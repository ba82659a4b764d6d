package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/analysis"
	"repro/internal/cellular"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/metrics"
	"repro/internal/policygen"
	"repro/internal/ran"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Sweep drive shape: a city loop at driving speed, the regime where the
// paper's policy diversity actually bites (dense grid, frequent decisions).
// The loop repeats until at least DriveSeconds of sim time have elapsed.
const (
	sweepPerimeterM  = 2400.0
	sweepSpeedMPS    = 8.3
	sweepCityDensity = 0.7
	// sweepSimSalt decorrelates the per-carrier sim seed from the
	// portfolio-sampling seed (both derive from MixSeed(seed, i)).
	sweepSimSalt = 0x51edd005
)

// SweepConfig parameterises a policy-portfolio sweep: Carriers generated
// portfolios are drawn from Seed, each is driven for at least DriveSeconds
// of sim time, and an online Prognos learner is replayed over the drive to
// measure how fast it converges on the unseen policy — and, with Drift, how
// fast it recovers after the carrier rewrites its policy mid-run.
type SweepConfig struct {
	// Carriers is the population size; Seed determines every portfolio,
	// drift and drive in it.
	Carriers int
	Seed     int64
	// Drift schedules a full policy rewrite at DriveSeconds/2 into each
	// carrier's drive (policygen.Drifted of the same index).
	Drift bool
	// Jobs is the worker count (≤0 ⇒ 1). The report is byte-identical at
	// any value: each carrier owns its RNG streams outright.
	Jobs int
	// F1Threshold is the convergence bar (default 0.6); DriveSeconds the
	// minimum per-carrier sim duration (default 600); BucketSeconds the F1
	// series bucket (default 30); WindowSeconds the prediction-window match
	// tolerance (default 1).
	F1Threshold   float64
	DriveSeconds  float64
	BucketSeconds float64
	WindowSeconds float64
	// Stats, when set, receives each finished carrier for live ops-plane
	// export (obs.RegisterSweepMetrics).
	Stats *metrics.SweepStats
	// OnCarrier, when set, is invoked for each finished carrier from
	// whatever worker ran it (concurrently under Jobs > 1).
	OnCarrier func(metrics.SweepCarrier)
}

func (c SweepConfig) withDefaults() SweepConfig {
	if c.Carriers <= 0 {
		c.Carriers = 1
	}
	if c.Jobs <= 0 {
		c.Jobs = 1
	}
	if c.F1Threshold == 0 {
		c.F1Threshold = 0.6
	}
	if c.DriveSeconds == 0 {
		c.DriveSeconds = 600
	}
	if c.BucketSeconds == 0 {
		c.BucketSeconds = 30
	}
	if c.WindowSeconds == 0 {
		c.WindowSeconds = 1
	}
	return c
}

// RunSweep fans Carriers generated portfolios across Jobs workers and
// returns the assembled report. Per-carrier failures are recorded in the
// carrier's Error field rather than aborting the sweep; RunSweep itself only
// errors on context cancellation. Results are ordered by carrier index and
// the report bytes are independent of Jobs.
func RunSweep(ctx context.Context, cfg SweepConfig) (metrics.SweepReport, error) {
	cfg = cfg.withDefaults()
	report := metrics.SweepReport{
		Seed:          cfg.Seed,
		Carriers:      cfg.Carriers,
		Drift:         cfg.Drift,
		F1Threshold:   cfg.F1Threshold,
		DriveSeconds:  cfg.DriveSeconds,
		BucketSeconds: cfg.BucketSeconds,
		WindowSeconds: cfg.WindowSeconds,
	}
	if cfg.Drift {
		report.DriftAtS = cfg.DriveSeconds / 2
	}
	if cfg.Stats != nil {
		cfg.Stats.Start(cfg.Carriers)
	}

	results := make([]metrics.SweepCarrier, cfg.Carriers)
	err := fanOut(ctx, cfg.Carriers, cfg.Jobs, func(i int) {
		c := runSweepCarrier(cfg, i)
		results[i] = c
		if cfg.Stats != nil {
			cfg.Stats.Observe(c)
		}
		if cfg.OnCarrier != nil {
			cfg.OnCarrier(c)
		}
	})
	if err != nil {
		return report, err
	}
	report.Results = results
	report.Summarize()
	return report, nil
}

// runSweepCarrier runs one generated carrier end to end: sample the
// portfolio (and its drift), simulate the drive under the scenario, replay
// an online Prognos learner over the trace, and read convergence off the
// windowed F1 series. Everything is a pure function of (cfg, i).
func runSweepCarrier(cfg SweepConfig, i int) metrics.SweepCarrier {
	out := metrics.SweepCarrier{Index: i, Name: policygen.GeneratedName(i)}
	base := policygen.Generate(cfg.Seed, i)
	out.Sequence = base.SequenceString()
	scenario := &policygen.Scenario{Base: base}
	driftAt := time.Duration(cfg.DriveSeconds / 2 * float64(time.Second))
	if cfg.Drift {
		drifted := policygen.Drifted(cfg.Seed, i)
		out.DriftSequence = drifted.SequenceString()
		scenario.Drifts = []policygen.Drift{{At: driftAt, Portfolio: drifted}}
	}

	laps := int(math.Ceil(cfg.DriveSeconds * sweepSpeedMPS / sweepPerimeterM))
	if laps < 1 {
		laps = 1
	}
	log, err := sim.Run(sim.Config{
		Carrier:      base.Deployment,
		Arch:         cellular.ArchNSA,
		RouteKind:    geo.RouteCityLoop,
		RouteLengthM: sweepPerimeterM,
		Laps:         laps,
		SpeedMPS:     sweepSpeedMPS,
		Seed:         policygen.MixSeed(cfg.Seed, i) ^ sweepSimSalt,
		Scenario:     scenario,
		TopoOpts:     topology.Options{CityDensity: sweepCityDensity},
	})
	if err != nil {
		out.Error = fmt.Sprintf("sim: %v", err)
		return out
	}
	out.Handovers = len(log.Handovers)
	out.Reports = len(log.Reports)

	// The learner sniffs the event configs (Prognos step 1); under drift it
	// must know both vocabularies, since the base decision event (say A3)
	// can drift into a different one (A5).
	configs := ran.EventConfigsFromPortfolio(&base, cellular.ArchNSA)
	if cfg.Drift {
		drifted := scenario.Drifts[0].Portfolio
		configs = unionConfigs(configs, ran.EventConfigsFromPortfolio(&drifted, cellular.ArchNSA))
	}
	prog, err := core.New(core.Config{
		EventConfigs:       configs,
		UseReportPredictor: true,
		Arch:               cellular.ArchNSA,
	})
	if err != nil {
		out.Error = fmt.Sprintf("prognos: %v", err)
		return out
	}
	ticks := core.Replay(prog, log)
	bucket := time.Duration(cfg.BucketSeconds * float64(time.Second))
	window := time.Duration(cfg.WindowSeconds * float64(time.Second))
	series := analysis.F1Series(ticks, log.Handovers, bucket, window)

	// The floor is measured from the first convergence point: every run
	// starts at F1 0 while the pattern DB is empty, so a whole-drive floor
	// would be identically zero and carry no stress signal. Once converged,
	// the floor captures how far quality ever falls again — under drift,
	// the rewrite's damage.
	floorFrom := time.Duration(0)
	if ttf, ok := analysis.TimeToThreshold(series, cfg.F1Threshold, 0); ok {
		out.Converged = true
		out.TimeToF1S = ttf.Seconds()
		floorFrom = ttf
	}
	if fl, ok := analysis.Floor(series, floorFrom); ok {
		out.FloorF1 = fl
	}
	if tail, ok := analysis.Tail(series, 3); ok {
		out.FinalF1 = tail
	}
	if cfg.Drift {
		if re, ok := analysis.TimeToThreshold(series, cfg.F1Threshold, driftAt); ok {
			out.Reconverged = true
			out.ReconvergeS = re.Seconds()
		}
		if fl, ok := analysis.Floor(series, driftAt); ok {
			out.PostDriftMinF1 = fl
		}
		// Pre-drift quality: the last handover-carrying bucket fully
		// before the rewrite.
		for _, p := range series {
			if p.Start+bucket > driftAt {
				break
			}
			if p.Handovers > 0 {
				out.PreDriftF1 = p.F1
			}
		}
	}
	return out
}

// unionConfigs merges two event-config tables, keeping the first occurrence
// of each (Type, Tech) pair.
func unionConfigs(a, b []cellular.EventConfig) []cellular.EventConfig {
	seen := make(map[[2]int]bool, len(a)+len(b))
	var out []cellular.EventConfig
	for _, c := range append(append([]cellular.EventConfig{}, a...), b...) {
		k := [2]int{int(c.Type), int(c.Tech)}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, c)
	}
	return out
}
