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
	"repro/internal/trace"
)

// holoopSimSalt decorrelates each UE's drive seed from the sweep and fleet
// seed streams (all derive from MixSeed-style mixing of the base seed).
const holoopSimSalt = 0x401_00b5

// HOLoopConfig parameterises the adaptive-vs-static handover comparison:
// UEs independent city drives, each simulated twice over the identical
// seed/route/deployment — once under the carrier's static policy, once with
// the prediction-driven adaptive layer closed over it.
type HOLoopConfig struct {
	// UEs is the fleet size; Seed determines every drive in it.
	UEs  int
	Seed int64
	// Jobs is the worker count (≤0 ⇒ 1). The report is byte-identical at
	// any value: each UE is a pure function of (cfg, index).
	Jobs int
	// Carrier / Arch pick the deployment and policy (default OpX NSA — the
	// dual-connectivity regime where all three adaptive controls apply).
	Carrier topology.CarrierProfile
	Arch    cellular.Arch
	// DriveSeconds is the minimum per-UE sim duration (default 120);
	// WindowSeconds the prediction-window match tolerance (default 1).
	DriveSeconds  float64
	WindowSeconds float64
	// Adaptive configures the adaptive arm's controller (zero value ⇒
	// ran.DefaultAdaptive). Its PingPongWindow also defines the ping-pong
	// critical window for both arms' metrics.
	Adaptive ran.AdaptiveConfig
	// OnUE, when set, is invoked for each finished UE from whatever worker
	// ran it (concurrently under Jobs > 1).
	OnUE func(metrics.HOLoopUE)
}

func (c HOLoopConfig) withDefaults() HOLoopConfig {
	if c.UEs <= 0 {
		c.UEs = 1
	}
	if c.Jobs <= 0 {
		c.Jobs = 1
	}
	if c.Carrier.Name == "" {
		c.Carrier = topology.OpX()
	}
	if c.Arch == 0 {
		c.Arch = cellular.ArchNSA
	}
	if c.DriveSeconds == 0 {
		c.DriveSeconds = 120
	}
	if c.WindowSeconds == 0 {
		c.WindowSeconds = 1
	}
	if !c.Adaptive.Enabled() && c.Adaptive.MinConfidence == 0 {
		c.Adaptive = *ran.DefaultAdaptive()
	}
	return c
}

// RunHOLoop fans UEs across Jobs workers, driving each twice (static and
// adaptive arm), and returns the assembled comparison report. Per-UE
// failures land in the UE's Error field; RunHOLoop itself only errors on
// context cancellation or an invalid adaptive config. Results are ordered by
// UE index and the report bytes are independent of Jobs.
func RunHOLoop(ctx context.Context, cfg HOLoopConfig) (metrics.HOLoopReport, error) {
	cfg = cfg.withDefaults()
	report := metrics.HOLoopReport{
		Seed:            cfg.Seed,
		UEs:             cfg.UEs,
		Carrier:         cfg.Carrier.Name,
		Arch:            cfg.Arch.String(),
		DriveSeconds:    cfg.DriveSeconds,
		PingPongWindowS: cfg.Adaptive.PingPongWindow.Seconds(),
		WindowSeconds:   cfg.WindowSeconds,
		EarlyPrep:       cfg.Adaptive.EarlyPrep,
		SkipAhead:       cfg.Adaptive.SkipAhead,
		AdaptTTT:        cfg.Adaptive.AdaptTTT,
	}
	if err := cfg.Adaptive.Validate(); err != nil {
		return report, err
	}
	if !cfg.Adaptive.Enabled() {
		return report, fmt.Errorf("experiments: holoop needs at least one adaptive control enabled")
	}

	results := make([]metrics.HOLoopUE, cfg.UEs)
	err := fanOut(ctx, cfg.UEs, cfg.Jobs, func(i int) {
		u := runHOLoopUE(cfg, i)
		results[i] = u
		if cfg.OnUE != nil {
			cfg.OnUE(u)
		}
	})
	if err != nil {
		return report, err
	}
	report.Results = results
	report.Summarize()
	return report, nil
}

// runHOLoopUE drives one UE through both arms. Everything is a pure
// function of (cfg, i): the two arms share seed, route and deployment, so
// any divergence is the controller's doing.
func runHOLoopUE(cfg HOLoopConfig, i int) metrics.HOLoopUE {
	seed := policygen.MixSeed(cfg.Seed, i) ^ holoopSimSalt
	out := metrics.HOLoopUE{Index: i, Seed: seed}

	laps := int(math.Ceil(cfg.DriveSeconds * sweepSpeedMPS / sweepPerimeterM))
	if laps < 1 {
		laps = 1
	}
	base := sim.Config{
		Carrier:      cfg.Carrier,
		Arch:         cfg.Arch,
		RouteKind:    geo.RouteCityLoop,
		RouteLengthM: sweepPerimeterM,
		Laps:         laps,
		SpeedMPS:     sweepSpeedMPS,
		Seed:         seed,
		TopoOpts:     topology.Options{CityDensity: sweepCityDensity},
	}
	window := time.Duration(cfg.WindowSeconds * float64(time.Second))

	// Static arm: plain drive, forecast quality measured by offline replay
	// of the same predictor the adaptive arm embeds.
	staticLog, err := sim.Run(base)
	if err != nil {
		out.Error = fmt.Sprintf("static sim: %v", err)
		return out
	}
	out.Static = armMetrics(staticLog, cfg.Adaptive.PingPongWindow)
	configs := ran.EventConfigsFor(cfg.Carrier.Name, cfg.Arch)
	prog, err := core.New(core.Config{
		EventConfigs:       configs,
		UseReportPredictor: true,
		Arch:               cfg.Arch,
	})
	if err != nil {
		out.Error = fmt.Sprintf("prognos: %v", err)
		return out
	}
	staticTicks := core.Replay(prog, staticLog)
	fillOutcome(&out.Static, staticTicks, staticLog.Handovers, window)

	// Adaptive arm: same seed, predictor in the loop.
	acfg := base
	adaptive := cfg.Adaptive // each drive owns its controller's config
	acfg.Adaptive = &adaptive
	adaptLog, loop, err := sim.RunClosedLoop(acfg)
	if err != nil {
		out.Error = fmt.Sprintf("adaptive sim: %v", err)
		return out
	}
	out.Adaptive = armMetrics(adaptLog, cfg.Adaptive.PingPongWindow)
	fillOutcome(&out.Adaptive, loop.Ticks, adaptLog.Handovers, window)
	out.EarlyPreps = loop.Stats.EarlyPreps
	out.SkipAheads = loop.Stats.SkipAheads
	out.Reconfigs = loop.Stats.Reconfigs
	out.PrepSavedMS = loop.Stats.PrepSavedMS
	return out
}

// armMetrics computes one arm's mobility and QoE numbers from its trace.
func armMetrics(log *trace.Log, ppWindow time.Duration) metrics.HOLoopArm {
	arm := metrics.HOLoopArm{Handovers: len(log.Handovers)}
	for _, ho := range log.Handovers {
		if ho.SourceCell != "" && ho.TargetCell != "" && ho.SourceCell != ho.TargetCell {
			arm.Moves++
		}
	}
	arm.PingPongs = analysis.PingPongs(log.Handovers, ppWindow)
	if arm.Moves > 0 {
		arm.PingPongRate = float64(arm.PingPongs) / float64(arm.Moves)
	}
	intr := analysis.Interruption(log.Handovers)
	arm.InterruptMS = intr.TotalMS
	arm.MeanInterruptMS = intr.MeanMS
	arm.MeanTputMbps, arm.StallFrac = analysis.QoESummary(log.Samples, analysis.DefaultStallMbps)
	return arm
}

// fillOutcome attaches the event-level prediction outcome of one arm's
// forecast series to its metrics.
func fillOutcome(arm *metrics.HOLoopArm, ticks []core.TickPrediction, handovers []cellular.HandoverEvent, window time.Duration) {
	ev := core.EvaluateEvents(ticks, handovers, window)
	arm.TP, arm.FP, arm.FN = ev.TP, ev.FP, ev.FN
	arm.F1 = ev.F1()
}
