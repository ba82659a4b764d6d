// The benchmark harness: one benchmark per paper table/figure (each runs
// the full regeneration pipeline at a reduced scale and reports the
// headline metric via b.ReportMetric), micro-benchmarks for the hot paths,
// and the ablation benches DESIGN.md calls out.
//
//	go test -bench=. -benchmem
package repro_test

import (
	"context"
	"testing"
	"time"

	"repro"
	"repro/internal/baseline"
	"repro/internal/cellular"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/experiments"
	"repro/internal/geo"
	"repro/internal/ran"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// benchOpts trades statistical depth for per-iteration time. Every
// iteration drives the same seed, so the work per op does not depend on
// b.N.
var benchOpts = experiments.Options{Seed: 1, Scale: 0.25}

// experimentBench runs one experiment regeneration per iteration.
func experimentBench(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		spec, err := experiments.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := spec.Run(benchOpts); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// One benchmark per table and figure of the paper's evaluation.

func BenchmarkTable1Dataset(b *testing.B)      { experimentBench(b, "table1") }
func BenchmarkFig4Conferencing(b *testing.B)   { experimentBench(b, "fig4") }
func BenchmarkFig5CloudGaming(b *testing.B)    { experimentBench(b, "fig5") }
func BenchmarkFig6Volumetric(b *testing.B)     { experimentBench(b, "fig6") }
func BenchmarkFig7BearerModes(b *testing.B)    { experimentBench(b, "fig7") }
func BenchmarkHOFrequency(b *testing.B)        { experimentBench(b, "freq") }
func BenchmarkFig8Preparation(b *testing.B)    { experimentBench(b, "fig8") }
func BenchmarkFig9Execution(b *testing.B)      { experimentBench(b, "fig9") }
func BenchmarkFig10Energy(b *testing.B)        { experimentBench(b, "fig10") }
func BenchmarkFig11Coverage(b *testing.B)      { experimentBench(b, "fig11") }
func BenchmarkFig12SCGCBandwidth(b *testing.B) { experimentBench(b, "fig12") }
func BenchmarkFig13Colocation(b *testing.B)    { experimentBench(b, "fig13") }
func BenchmarkTable3Prediction(b *testing.B)   { experimentBench(b, "table3") }
func BenchmarkFig14PanoramicVoD(b *testing.B)  { experimentBench(b, "fig14") }
func BenchmarkFig14Volumetric(b *testing.B)    { experimentBench(b, "fig14c") }
func BenchmarkFig15Bootstrap(b *testing.B)     { experimentBench(b, "fig15") }
func BenchmarkFig16HOTypes(b *testing.B)       { experimentBench(b, "fig16") }
func BenchmarkFig18LeadTime(b *testing.B)      { experimentBench(b, "fig18") }

// --- Whole-paper regeneration: sequential vs. worker pool ---

// benchAll regenerates every registered experiment per iteration through
// the runner at the given pool size, at a scale small enough to keep one
// iteration in tens of seconds. Individual experiments may error at this
// tiny scale (too few events observed); that is part of the workload, not
// a bench failure — only a runner malfunction aborts.
func benchAll(b *testing.B, jobs int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := experiments.Runner{Jobs: jobs, Options: experiments.Options{Seed: 1, Scale: 0.1}}
		results, _ := r.Run(context.Background(), experiments.All())
		rows := 0
		for _, res := range results {
			if res.Skipped {
				b.Fatalf("%s skipped: runner must not cancel without FailFast", res.Spec.ID)
			}
			rows += res.Metrics.Rows
		}
		b.ReportMetric(float64(rows), "rows/op")
	}
}

// BenchmarkAllSequential is the historical one-at-a-time behaviour
// (vivisect all -jobs 1).
func BenchmarkAllSequential(b *testing.B) { benchAll(b, 1) }

// BenchmarkAllParallel fans the same batch out across GOMAXPROCS workers;
// the speedup over BenchmarkAllSequential is the parallel engine's win on
// the current hardware.
func BenchmarkAllParallel(b *testing.B) { benchAll(b, 0) }

// --- Micro-benchmarks for the substrate hot paths ---

// benchWalk builds the shared walking log for the prediction benches.
func benchWalk(b *testing.B, seed int64) *trace.Log {
	b.Helper()
	log, err := sim.Run(sim.Config{
		Carrier:      topology.OpX(),
		Arch:         cellular.ArchNSA,
		RouteKind:    geo.RouteCityLoop,
		RouteLengthM: 2500,
		Laps:         3,
		SpeedMPS:     1.4,
		Seed:         seed,
		TopoOpts:     topology.Options{CityDensity: 0.7},
	})
	if err != nil {
		b.Fatal(err)
	}
	return log
}

// BenchmarkSimFreewayKm measures simulator throughput (wall time per
// simulated freeway kilometre, NSA with all layers) on one fixed drive.
func BenchmarkSimFreewayKm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		log, err := sim.Run(sim.Config{
			Carrier:      topology.OpX(),
			Arch:         cellular.ArchNSA,
			RouteKind:    geo.RouteFreeway,
			RouteLengthM: 10000,
			SpeedMPS:     29,
			Seed:         1,
			TopoOpts:     topology.Options{SkipMMWave: true},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(log.Handovers))/log.DistanceKM(), "HO/km")
	}
}

// BenchmarkSimCityKm is BenchmarkSimFreewayKm's city counterpart: the
// perfbench offline workload's city shape (OpX NSA over a 1 km mmWave loop
// at CityDensity 0.7 and 8.3 m/s), driven for two laps. A city tick
// observes more than twice as many cells as a freeway tick, most of them
// mmWave sectors seen from behind.
func BenchmarkSimCityKm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		log, err := sim.Run(sim.Config{
			Carrier:      topology.OpX(),
			Arch:         cellular.ArchNSA,
			RouteKind:    geo.RouteCityLoop,
			RouteLengthM: 1000,
			Laps:         2,
			SpeedMPS:     8.3,
			Seed:         1,
			TopoOpts:     topology.Options{CityDensity: 0.7},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(log.Handovers))/log.DistanceKM(), "HO/km")
	}
}

// benchPrognos builds the OpX NSA Prognos the prediction benches replay
// through.
func benchPrognos(b *testing.B) *core.Prognos {
	b.Helper()
	prog, err := core.New(core.Config{
		EventConfigs:       ran.EventConfigsFor("OpX", cellular.ArchNSA),
		Arch:               cellular.ArchNSA,
		UseReportPredictor: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// BenchmarkPrognosReplay measures the full Prognos pipeline per radio
// sample (report predictor + pattern matching at 20 Hz).
func BenchmarkPrognosReplay(b *testing.B) {
	log := benchWalk(b, 51)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ticks := core.Replay(benchPrognos(b), log)
		ev := core.EvaluateEvents(ticks, log.Handovers, time.Second)
		b.ReportMetric(ev.F1(), "F1")
	}
	b.ReportMetric(float64(len(log.Samples)), "samples/op")
}

// benchPrediction keeps BenchmarkPredict's result live.
var benchPrediction core.Prediction

// BenchmarkOnSample measures the per-sample stage alone: one op is one
// OnSample (the report predictor's smoothing, forecaster history and TTT
// tracking) over the replayed walk, cycled. OnSample reads no reports or
// handovers, so none are delivered.
func BenchmarkOnSample(b *testing.B) {
	log := benchWalk(b, 51)
	prog := benchPrognos(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog.OnSample(log.Samples[i%len(log.Samples)])
	}
}

// BenchmarkPredict measures the per-tick prediction stage alone: one op is
// one Predict (report-predictor forecast plus pattern matching) at the next
// tick of the replayed walk, with a fresh instance per pass. The tick's
// reports, handovers and sample are delivered first, outside the measured
// time: ns/op is the Predict time on the monotonic clock (plus one clock
// read), while allocs/op counts the whole tick.
func BenchmarkPredict(b *testing.B) {
	log := benchWalk(b, 51)
	var prog *core.Prognos
	var ri, hi int
	var predict time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(log.Samples)
		if j == 0 {
			prog, ri, hi = benchPrognos(b), 0, 0
		}
		s := log.Samples[j]
		for ri < len(log.Reports) && log.Reports[ri].Time <= s.Time {
			prog.OnReport(log.Reports[ri])
			ri++
		}
		for hi < len(log.Handovers) && log.Handovers[hi].Time <= s.Time {
			prog.OnHandover(log.Handovers[hi])
			hi++
		}
		prog.OnSample(s)
		t0 := time.Now()
		benchPrediction = prog.Predict()
		predict += time.Since(t0)
	}
	b.ReportMetric(float64(predict.Nanoseconds())/float64(b.N), "ns/op")
}

// BenchmarkGBCTraining measures baseline training cost.
func BenchmarkGBCTraining(b *testing.B) {
	log := benchWalk(b, 53)
	params := baseline.GBCParams{Seed: 1}
	examples := baseline.ExtractExamples(log, time.Second, params)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.TrainGBC(examples, params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLSTMTraining measures the from-scratch BPTT cost per epoch.
func BenchmarkLSTMTraining(b *testing.B) {
	log := benchWalk(b, 55)
	params := baseline.LSTMParams{Seed: 1, Epochs: 1}
	seqs := baseline.ExtractSequences(log, time.Second, params)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.TrainLSTM(seqs, params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPatternMatch measures the decision learner's per-prediction
// matching cost at a realistic store size.
func BenchmarkPatternMatch(b *testing.B) {
	l := core.NewDecisionLearner(core.LearnerConfig{})
	keys := []string{"A2", "A3", "A5", "NR-A2", "NR-A3s", "NR-A3d", "NR-B1", "HO:MNBH"}
	types := cellular.AllHOTypes()
	for i := 0; i < 400; i++ {
		seq := []string{keys[i%len(keys)], keys[(i*3+1)%len(keys)], keys[(i*7+2)%len(keys)]}
		l.ObservePhase(seq, types[i%len(types)])
	}
	probe := []string{"A2", "NR-B1", "A3"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Match(probe, nil)
	}
}

// BenchmarkLinkEmulation measures chunk-download emulation.
func BenchmarkLinkEmulation(b *testing.B) {
	mbps := make([]float64, 2400)
	for i := range mbps {
		mbps[i] = 30 + 40*float64(i%17)/16
	}
	tr, err := emu.NewBandwidthTrace(mbps, 100*time.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		link := emu.NewLink(tr, 40*time.Millisecond)
		for c := 0; c < 60; c++ {
			link.Download(10e6)
		}
	}
}

// --- Ablation benches (DESIGN.md) ---

// ablationF1 replays a configured Prognos over a fixed walk and reports F1.
func ablationF1(b *testing.B, mutate func(*core.Config)) {
	log := benchWalk(b, 57)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := core.Config{
			EventConfigs:       ran.EventConfigsFor("OpX", cellular.ArchNSA),
			Arch:               cellular.ArchNSA,
			UseReportPredictor: true,
		}
		mutate(&cfg)
		prog, err := core.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ticks := core.Replay(prog, log)
		b.ReportMetric(core.EvaluateEvents(ticks, log.Handovers, time.Second).F1(), "F1")
	}
}

// BenchmarkAblationFull is the reference configuration.
func BenchmarkAblationFull(b *testing.B) {
	ablationF1(b, func(*core.Config) {})
}

// BenchmarkAblationNoReportPredictor disables the first pipeline stage
// (the Fig. 18 ablation): predictions from observed reports only.
func BenchmarkAblationNoReportPredictor(b *testing.B) {
	ablationF1(b, func(c *core.Config) { c.UseReportPredictor = false })
}

// BenchmarkAblationNoSmoothing drops the triangular-kernel smoother down
// to a single sample, exposing the forecaster to raw fading.
func BenchmarkAblationNoSmoothing(b *testing.B) {
	ablationF1(b, func(c *core.Config) { c.SmootherWindow = 1 })
}

// BenchmarkAblationNoEviction turns off freshness-based pattern eviction.
func BenchmarkAblationNoEviction(b *testing.B) {
	ablationF1(b, func(c *core.Config) { c.Learner.FreshnessPhases = 1 << 20 })
}

// BenchmarkAblationMonolithic approximates a monolithic learner: suffix
// mining collapsed to full-sequence patterns only (MaxSuffixLen huge means
// every suffix is mined; 1 means only the last report is used — both lose
// to the default, showing why the two-stage decomposition with bounded
// pattern growth wins).
func BenchmarkAblationMonolithic(b *testing.B) {
	ablationF1(b, func(c *core.Config) { c.Learner.MaxSuffixLen = 1 })
}

// BenchmarkAblationWindow500ms halves the history/prediction windows.
func BenchmarkAblationWindow500ms(b *testing.B) {
	ablationF1(b, func(c *core.Config) {
		c.HistoryWindow = 500 * time.Millisecond
		c.PredictionWindow = 500 * time.Millisecond
	})
}

// BenchmarkAblationWindow2s doubles the history/prediction windows.
func BenchmarkAblationWindow2s(b *testing.B) {
	ablationF1(b, func(c *core.Config) {
		c.HistoryWindow = 2 * time.Second
		c.PredictionWindow = 2 * time.Second
	})
}

// BenchmarkPublicAPI exercises the facade end to end, keeping the
// documented quick-start path honest.
func BenchmarkPublicAPI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		log, err := repro.Drive(repro.DriveConfig{
			Carrier:      repro.OpX(),
			Arch:         repro.ArchNSA,
			RouteKind:    repro.RouteCityLoop,
			RouteLengthM: 2000,
			SpeedMPS:     8.3,
			Seed:         1,
			TopoOpts:     repro.TopologyOptions{CityDensity: 0.7},
		})
		if err != nil {
			b.Fatal(err)
		}
		prog, err := repro.NewPrognos(repro.PrognosConfig{
			EventConfigs:       repro.EventConfigs("OpX", repro.ArchNSA),
			Arch:               repro.ArchNSA,
			UseReportPredictor: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		repro.Replay(prog, log)
	}
}
