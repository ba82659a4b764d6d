package main

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/cellular"
	"repro/internal/core"
	"repro/internal/trace"
)

// offlineDrives is the offline workload's drive list: freeway NSA drives
// over the sparse grid and mmWave city loops through dense cells, in a
// fixed 2:1 mix. Every pass simulates and replays the same list.
func offlineDrives(seed int64) []driveSpec {
	var specs []driveSpec
	for k := 0; k < 16; k++ {
		specs = append(specs, freeway(driveSeed(seed, 0, k), 2))
		if k%2 == 1 {
			specs = append(specs, city(driveSeed(seed, 1, k), 1))
		}
	}
	return specs
}

// passResult is what one pass over the drive list produced.
type passResult struct {
	drives     []*drive
	wall       time.Duration // wall time of the whole pass
	latency    []int64       // per drive: deploy + sim + replay, ns
	replayRate []float64     // per drive: samples per second of its replay
	outcome    outcome
	samples    int
	handovers  int
	reports    int
	actionable int
	live       int // learner store size at the end of each replay, summed
	simMallocs uint64
}

// same reports whether two passes produced identical behaviour.
func (p *passResult) same(q *passResult) bool {
	return p.outcome == q.outcome && p.samples == q.samples && p.handovers == q.handovers &&
		p.reports == q.reports && p.actionable == q.actionable && p.live == q.live
}

// pass simulates every drive (phase one), then replays each trace through
// a fresh predictor and scores it (phase two), each phase on procs()
// workers with one tracer per worker (nil entries trace nothing). With
// countAllocs it counts the heap allocations of the sim phase.
func pass(specs []driveSpec, tracers []*Tracer, countAllocs bool) (*passResult, error) {
	res := &passResult{}
	var m0 uint64
	if countAllocs {
		m0 = mallocs()
	}
	t0 := time.Now()
	ds, err := simulateAll(specs, tracers)
	if err != nil {
		return nil, err
	}
	if countAllocs {
		res.simMallocs = mallocs() - m0
	}
	res.drives = ds

	replay := make([]time.Duration, len(ds))
	evals := make([]core.EventOutcome, len(ds))
	acts := make([]int, len(ds))
	lives := make([]int, len(ds))
	errs := make([]error, len(ds))
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for w := 0; w < min(len(tracers), len(ds)); w++ {
		wg.Add(1)
		go func(tr *Tracer) {
			defer wg.Done()
			for {
				mu.Lock()
				k := next
				next++
				mu.Unlock()
				if k >= len(ds) {
					return
				}
				s := time.Now()
				evals[k], acts[k], lives[k], errs[k] = replayDrive(ds[k].log, k, tr)
				replay[k] = time.Since(s)
			}
		}(tracers[w])
	}
	wg.Wait()
	res.wall = time.Since(t0)
	for k, d := range ds {
		if errs[k] != nil {
			return nil, errs[k]
		}
		res.latency = append(res.latency, int64(d.deploy+d.sim+replay[k]))
		res.replayRate = append(res.replayRate, float64(len(d.log.Samples))/replay[k].Seconds())
		res.outcome.add(evals[k])
		res.samples += len(d.log.Samples)
		res.handovers += len(d.log.Handovers)
		res.reports += len(d.log.Reports)
		res.actionable += acts[k]
		res.live += lives[k]
	}
	return res, nil
}

// replayDrive replays one trace through a fresh predictor and scores it
// (event F1, 1 s window). Untraced it is core.Replay itself; traced, the
// same delivery order with a span around every call, and a Snapshot at
// the end.
func replayDrive(log *trace.Log, k int, tr *Tracer) (core.EventOutcome, int, int, error) {
	p, err := newPrognos()
	if err != nil {
		return core.EventOutcome{}, 0, 0, err
	}
	var ticks []core.TickPrediction
	if tr == nil {
		ticks = core.Replay(p, log)
	} else {
		ticks = tracedReplay(p, log, k, tr)
		tr.Begin("core.snapshot", sampleID(k, int64(len(ticks))))
		p.Snapshot()
		tr.End(1)
	}
	act := 0
	for _, t := range ticks {
		if t.Type != cellular.HONone {
			act++
		}
	}
	_, _, _, live := p.Learner().Stats()
	return core.EvaluateEvents(ticks, log.Handovers, time.Second), act, live, nil
}

// tracedReplay is core.Replay with a span around every predictor call.
func tracedReplay(p *core.Prognos, log *trace.Log, k int, tr *Tracer) []core.TickPrediction {
	out := make([]core.TickPrediction, 0, len(log.Samples))
	ri, hi := 0, 0
	for i, s := range log.Samples {
		id := sampleID(k, int64(i+1))
		for ri < len(log.Reports) && log.Reports[ri].Time <= s.Time {
			tr.Begin("core.on_report", id)
			p.OnReport(log.Reports[ri])
			tr.End(1)
			ri++
		}
		for hi < len(log.Handovers) && log.Handovers[hi].Time <= s.Time {
			tr.Begin("core.on_handover", id)
			p.OnHandover(log.Handovers[hi])
			tr.End(1)
			hi++
		}
		tr.Begin("core.on_sample", id)
		p.OnSample(s)
		tr.End(1)
		tr.Begin("core.predict", id)
		pred := p.Predict()
		tr.End(1)
		out = append(out, core.TickPrediction{Time: s.Time, Type: pred.Type, PatternKey: pred.PatternKey})
	}
	return out
}

// offlinePhase is the work of consecutive passes.
type offlinePhase struct {
	passes     int
	drives     int
	samples    int
	wall       time.Duration
	latency    []int64
	passRates  []float64 // per pass: predictions per second of the pass
	simRates   []float64 // per drive: km per second of its deploy + sim
	replayRate []float64 // per drive: samples per second of its replay
	failed     int
	simMallocs uint64 // heap allocations of the first sim phase
}

// runPasses repeats passes until the deadline, checking each against the
// golden pass.
func runPasses(specs []driveSpec, golden *passResult, until time.Time, tracers []*Tracer, countAllocs bool) (*offlinePhase, error) {
	ph := &offlinePhase{}
	start := time.Now()
	for time.Now().Before(until) {
		p, err := pass(specs, tracers, countAllocs && ph.passes == 0)
		if err != nil {
			return nil, err
		}
		if ph.passes == 0 {
			ph.simMallocs = p.simMallocs
		}
		ph.passes++
		ph.drives += len(p.drives)
		ph.samples += p.samples
		ph.latency = append(ph.latency, p.latency...)
		ph.passRates = append(ph.passRates, float64(p.samples)/p.wall.Seconds())
		ph.replayRate = append(ph.replayRate, p.replayRate...)
		for _, d := range p.drives {
			ph.simRates = append(ph.simRates, d.kmPerSecond())
		}
		if !p.same(golden) {
			ph.failed += len(p.drives)
		}
	}
	ph.wall = time.Since(start)
	return ph, nil
}

func runOffline(cfg config) (*Result, error) {
	res := newResult(cfg.trace)
	specs := offlineDrives(cfg.seed)
	untracedDur, tracedDur := cfg.window()
	workers := make([]*Tracer, procs())

	// Setup is one golden pass, repeated; every repeat must agree.
	repeats := setupRepeats
	if cfg.trace {
		repeats = 1
	}
	var golden *passResult
	var setupTimes []float64
	for k := 0; k < repeats; k++ {
		t0 := time.Now()
		p, err := pass(specs, workers, false)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if golden != nil && !p.same(golden) {
			return nil, fmt.Errorf("setup pass %d differs from the first: simulation or replay is not deterministic for seed %d", k, cfg.seed)
		}
		golden = p
	}
	res.set("setup_s", median(setupTimes))

	start := time.Now()
	un, err := runPasses(specs, golden, start.Add(untracedDur), workers, false)
	if err != nil {
		return nil, err
	}
	res.Attempted = int64(un.drives)
	res.Failed = int64(un.failed)
	if !cfg.trace {
		res.Correct = res.Failed == 0
		res.set("predictions_per_s", median(un.passRates))
		l, err := summarize(un.latency)
		if err != nil {
			return nil, err
		}
		res.set("latency_p50_ms", l.p50)
		res.set("latency_p99_ms", l.p99)
		res.note("latency per drive (sim + replay) over %d drives in %d passes", l.n, un.passes)
		res.set("sim_km_per_s", median(un.simRates))
		res.set("replay_samples_per_s", median(un.replayRate))
		res.set("f1", golden.outcome.f1())
		res.set("rss_peak_mb", rssPeakMB())
		return res, nil
	}

	epoch := time.Now()
	tracers := make([]*Tracer, procs())
	for i := range tracers {
		tracers[i] = NewTracer(fmt.Sprintf("worker%d", i), epoch, 20000)
	}
	rtA := readRuntime()
	tr, err := runPasses(specs, golden, time.Now().Add(tracedDur), tracers, true)
	if err != nil {
		return nil, err
	}
	rtB := readRuntime()
	res.Attempted += int64(tr.drives)
	res.Failed += int64(tr.failed)
	res.Correct = res.Failed == 0

	// Wire and allocation probes on the golden drives as one record stream.
	st := newStream(golden.drives)
	n := min(allocPrefix, st.cycleLen)
	probeTr := NewTracer("wireprobe", epoch, 1024)
	bytesIn, bytesOut, err := probeCodec(st.clone(), n, true, probeTr)
	if err != nil {
		return nil, err
	}
	if _, _, err := probeCodec(st.clone(), n, false, probeTr); err != nil {
		return nil, err
	}
	wireAllocs, err := allocsPerRecord(st.clone(), n, true)
	if err != nil {
		return nil, err
	}
	coreAllocs, err := allocsPerPred(st.clone(), n)
	if err != nil {
		return nil, err
	}

	agg := layers(tracers...)
	for name, a := range layers(probeTr) {
		if strings.HasPrefix(name, "wire.") {
			agg[name] = a
		}
	}
	setLayerTimes(res, agg)
	gt := totals(golden.drives)
	res.set("failed_frac", float64(res.Failed)/float64(max(res.Attempted, 1)))
	res.set("loadgen.latency_samples", float64(len(un.latency)))
	res.set("wire.bytes_in_per_pred", float64(bytesIn)/float64(n))
	res.set("wire.bytes_out_per_pred", float64(bytesOut)/float64(n))
	res.set("wire.allocs_per_record", wireAllocs)
	res.set("core.allocs_per_pred", coreAllocs)
	res.set("core.patterns_live", float64(golden.live)/float64(len(golden.drives)))
	res.set("core.actionable_frac", float64(golden.actionable)/float64(golden.samples))
	res.set("sim.allocs_per_km", float64(tr.simMallocs)/gt.km)
	res.set("sim.ho_per_km", float64(gt.handovers)/gt.km)
	res.set("sim.reports_per_km", float64(gt.reports)/gt.km)
	var rt runtimeDelta
	rt.add(rtA, rtB)
	setRuntime(res, rt, int64(tr.samples))
	rate0 := float64(un.samples) / un.wall.Seconds()
	rate1 := float64(tr.samples) / tr.wall.Seconds()
	res.set("trace.overhead_frac", (rate0-rate1)/rate0)
	// Coverage: the sim, topology and core self time per prediction over
	// the untraced cost per prediction on the cores in use.
	costNS := float64(procs()) * float64(un.wall) / float64(un.samples)
	stageNS := 0.0
	for _, a := range layers(tracers...) {
		stageNS += float64(a.Self)
	}
	stageNS /= float64(tr.samples)
	coverage := stageNS / costNS
	res.set("trace.stage_coverage", coverage)
	res.note("stage coverage = sum over stages of self ns per prediction (%.0f) / (GOMAXPROCS %d x untraced wall / untraced predictions = %.0f ns)", stageNS, procs(), costNS)
	if coverage < coverageMargin {
		res.note("finding: stages cover %.0f%% of the per-prediction cost, below the %.0f%% margin", 100*coverage, 100*coverageMargin)
	}
	return res, writeTrace(cfg, res, agg, append(tracers, probeTr)...)
}
