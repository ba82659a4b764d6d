package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
)

// The three network workloads. Each runs procs() connections (one per
// core of the reference box) against in-process servers, and each
// connection cycles six 5 km freeway drives.
var (
	// serveClosed measures serve-path capacity: binary framing, 16
	// samples in flight per connection.
	serveClosed = serveShape{binary: true, window: 16, nodes: 1, driveKM: 5, drivesPerConn: 6}
	// serveOpen asks the queueing question on the default JSONL framing
	// at a fixed aggregate rate well below its saturation.
	serveOpen = serveShape{binary: false, rate: 4000, nodes: 1, driveKM: 5, drivesPerConn: 6}
	// clusterRepl runs the replicated 3-node ring, each connection owned
	// by a different node, 4 samples in flight.
	clusterRepl = serveShape{binary: true, window: 4, nodes: 3, driveKM: 5, drivesPerConn: 6}
)

// probeRepeats is how often each single-call cluster probe is timed; the
// median is reported.
const probeRepeats = 16

// allocPrefix bounds the samples the allocation and codec probes replay.
const allocPrefix = 20000

// rounds splits a run into rounds of about one round each; a traced run
// needs at least one untraced and one traced round.
func rounds(seconds float64, traced bool) (int, time.Duration) {
	n := max(1, int(math.Round(seconds/round.Seconds())))
	if traced {
		n = max(2, n)
	}
	return n, time.Duration(seconds * float64(time.Second) / float64(n))
}

// newTracers returns n tracers named by name, or n nils without tracing.
func newTracers(trace bool, epoch time.Time, n int, name func(i int) string) []*Tracer {
	trs := make([]*Tracer, n)
	if trace {
		for i := range trs {
			trs[i] = NewTracer(name(i), epoch, 20000)
		}
	}
	return trs
}

// replayRound checks what the last round served: each connection's
// replayer catches up with its answers, one worker per connection. It
// returns each worker's samples per second of its own replay.
func replayRound(reps []*replayer, runs []*connRun, trs []*Tracer) ([]float64, error) {
	rates := make([]float64, len(reps))
	err := parallel(len(reps), func(i int) error {
		n0, t0 := reps[i].n, time.Now()
		if err := reps[i].advance(runs[i].answers, trs[i]); err != nil {
			return err
		}
		if d := reps[i].n - n0; d > 0 {
			rates[i] = float64(d) / time.Since(t0).Seconds()
		}
		return nil
	})
	return slices.DeleteFunc(rates, func(v float64) bool { return v == 0 }), err
}

func runServe(cfg config, sh serveShape) (*Result, error) {
	res := newResult(cfg.trace)
	conns := procs()
	nRounds, roundDur := rounds(cfg.seconds, cfg.trace)
	epoch := time.Now()
	setupTr := newTracers(cfg.trace, epoch, conns, func(i int) string { return fmt.Sprintf("setup%d", i) })
	connTr := newTracers(cfg.trace, epoch, 2*conns, func(i int) string { return fmt.Sprintf("conn%d.%s", i/2, [2]string{"send", "read"}[i%2]) })
	replayTr := newTracers(cfg.trace, epoch, conns, func(i int) string { return fmt.Sprintf("replay%d", i) })

	// The rig the rounds run on. An untraced run sets up setupRepeats-1
	// more times between rounds; setup_s and sim_km_per_s are medians over
	// every setup.
	var setupTimes, simRates []float64
	setup := func(trs []*Tracer) (*rig, error) {
		t0 := time.Now()
		r, err := sh.setup(cfg.seed, trs)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		simRates = append(simRates, r.simRates...)
		return r, nil
	}
	r, err := setup(setupTr)
	if err != nil {
		return nil, err
	}
	defer r.close()
	extra := 0
	if !cfg.trace {
		extra = setupRepeats - 1
	}
	runs := make([]*connRun, conns)
	reps := make([]*replayer, conns)
	for i := range runs {
		runs[i] = newConnRun(r.streams[i])
		var c *codec
		if cfg.trace {
			c = newCodec(sh.binary)
		}
		if reps[i], err = newReplayer(i, r.streams[i].clone(), c); err != nil {
			return nil, err
		}
	}

	// The rounds. A traced run alternates untraced and traced rounds and
	// reads the servers and the runtime around each traced one.
	noTr := make([]*Tracer, 2*conns)
	spanCounts := make(map[float64]int64)
	var rt runtimeDelta
	var replayRates, lags []float64
	statsStart, windowStart := r.stats(), time.Now()
	for k := 0; k < nRounds; k++ {
		trs := noTr
		traced := cfg.trace && k%2 == 1
		var statsA []metrics.ServerSnapshot
		var rtA runtimeSample
		if traced {
			trs = connTr
			statsA, rtA = r.stats(), readRuntime()
		}
		sh.serveRound(r, runs, roundDur, trs)
		if traced {
			statsB := r.stats()
			rt.add(rtA, readRuntime())
			addSpanCounts(spanCounts, statsA, statsB)
			if r.ring != nil {
				for _, s := range statsB {
					lags = append(lags, float64(s.ReplicationLagUS)/1000)
				}
			}
		}
		for i, cr := range runs {
			if cr.err != nil {
				return nil, fmt.Errorf("connection %d: %w", i, cr.err)
			}
		}
		rates, err := replayRound(reps, runs, replayTr)
		if err != nil {
			return nil, fmt.Errorf("reference replay: %w", err)
		}
		replayRates = append(replayRates, rates...)
		if extra > 0 && k+1 < nRounds && (k+1)*setupRepeats/nRounds > k*setupRepeats/nRounds {
			more, err := setup(make([]*Tracer, conns))
			if err != nil {
				return nil, err
			}
			more.close()
			extra--
		}
	}
	window := time.Since(windowStart)
	finish(r, runs)
	statsEnd := r.stats()

	// The gate: sequence, time echo and reference answers per connection,
	// and the servers' session errors.
	var sent, failed int64
	var oc outcome
	var scored, actionable int
	for i, cr := range runs {
		if cr.err != nil {
			return nil, fmt.Errorf("connection %d: %w", i, cr.err)
		}
		sent += cr.sent
		failed += cr.gate.failed
		if cr.gate.firstErr != nil {
			res.note("connection %d: %v", i, cr.gate.firstErr)
		}
		if m := cr.answers.mismatches(reps[i].ref); m > 0 {
			res.note("connection %d: %d predictions differ from the reference", i, m)
			failed += m
		}
		oc.add(reps[i].score.evaluate())
		scored += len(reps[i].score.ticks)
		actionable += reps[i].score.actionable
	}
	var sessionErrors, redirects int64
	for _, s := range statsEnd {
		sessionErrors += s.SessionErrors
		redirects += s.Redirected
	}
	failed += sessionErrors
	res.Attempted, res.Failed, res.Correct = sent, failed, failed == 0

	// Per-round summaries: [0] untraced rounds, [1] traced ones.
	var rate, p50s, p99s [2][]float64
	var samples, preds [2]int64
	for k := 0; k < nRounds; k++ {
		p := 0
		var n int64
		var dur time.Duration
		for _, cr := range runs {
			rs := cr.rounds[k]
			if rs.err != nil {
				return nil, fmt.Errorf("round %d: %w", k, rs.err)
			}
			if rs.traced {
				p = 1
			}
			n += rs.preds
			dur = max(dur, rs.dur)
			p50s[p] = append(p50s[p], rs.lat.p50)
			p99s[p] = append(p99s[p], rs.lat.p99)
			samples[p] += int64(rs.lat.n)
		}
		preds[p] += n
		rate[p] = append(rate[p], float64(n)/dur.Seconds())
	}
	untracedRate, untracedP50 := median(rate[0]), median(p50s[0])

	if !cfg.trace {
		res.set("setup_s", median(setupTimes))
		res.set("predictions_per_s", untracedRate)
		res.set("latency_p50_ms", untracedP50)
		res.set("latency_p99_ms", median(p99s[0]))
		res.note("%d rounds of %v: throughput is the median round, latency the median (connection, round) percentile; %d latency samples", nRounds, roundDur, samples[0])
		res.set("sim_km_per_s", median(simRates))
		res.set("replay_samples_per_s", median(replayRates))
		res.note("setup: median of %d setups; sim: median of %d drives; replay: median of %d (connection, round) replays", len(setupTimes), len(simRates), len(replayRates))
		res.set("f1", oc.f1())
		res.set("rss_peak_mb", rssPeakMB())
		return res, nil
	}

	// Per-layer metrics, from the traced rounds and the traced replay.
	if sh.nodes > 1 {
		if err := clusterProbes(res, r, reps[0].p, statsStart, statsEnd, lags, window); err != nil {
			return nil, err
		}
	}
	r.close()
	st := r.streams[0]
	n := min(allocPrefix, st.cycleLen)
	wireAllocs, err := allocsPerRecord(st.clone(), n, sh.binary)
	if err != nil {
		return nil, err
	}
	coreAllocs, err := allocsPerPred(st.clone(), n)
	if err != nil {
		return nil, err
	}
	// The other framing's codec, on a prefix of the same records.
	probeTr := NewTracer("wireprobe", epoch, 1024)
	if _, _, err := probeCodec(st.clone(), n, !sh.binary, probeTr); err != nil {
		return nil, err
	}
	all := slices.Concat(setupTr, connTr, replayTr)
	agg := layers(all...)
	for name, a := range layers(probeTr) {
		if _, ok := agg[name]; !ok && strings.HasPrefix(name, "wire.") {
			agg[name] = a
		}
	}
	setLayerTimes(res, agg)

	var late []int64
	var reads, replayed, tracedReplayed, bytesIn, bytesOut int64
	live := 0
	for i, cr := range runs {
		late = append(late, cr.late...)
		reads += cr.reads
		rep := reps[i]
		replayed += int64(rep.n)
		tracedReplayed += int64(rep.traced)
		bytesIn += rep.c.inN
		bytesOut += rep.c.out.n
		_, _, _, l := rep.p.Learner().Stats()
		live += l
	}
	res.set("failed_frac", float64(failed)/float64(max(sent, 1)))
	res.set("loadgen.latency_samples", float64(samples[0]))
	if tailSupported(len(late), 0.99) {
		slices.Sort(late)
		res.set("loadgen.late_p99_ms", ms(time.Duration(quantile(late, 0.99))))
	}
	res.set("loadgen.send_us", agg["loadgen.send"].perOp()/1000)
	res.set("loadgen.read_us", agg["loadgen.read"].perOp()/1000)
	res.set("wire.bytes_in_per_pred", float64(bytesIn)/float64(replayed))
	res.set("wire.bytes_out_per_pred", float64(bytesOut)/float64(replayed))
	res.set("wire.allocs_per_record", wireAllocs)
	span50, span99 := bucketQuantiles(spanCounts)
	res.set("server.span_p50_us", span50)
	res.set("server.span_p99_us", span99)
	tracedP50 := median(p50s[1])
	res.set("server.outside_span_p50_us", tracedP50*1000-span50)
	res.set("server.reads_per_pred", float64(reads)/float64(preds[1]))
	res.set("server.session_errors", float64(sessionErrors))
	res.set("core.allocs_per_pred", coreAllocs)
	res.set("core.patterns_live", float64(live)/float64(conns))
	res.set("core.actionable_frac", float64(actionable)/float64(scored))
	res.set("cluster.redirects", float64(redirects))
	res.set("sim.allocs_per_km", r.simAllocsPerKM)
	res.set("sim.ho_per_km", float64(r.drives.handovers)/r.drives.km)
	res.set("sim.reports_per_km", float64(r.drives.reports)/r.drives.km)
	setRuntime(res, rt, preds[1])

	// Overhead: traced rounds against the untraced ones between them, on
	// the workload's primary metric (throughput, or median latency in open
	// loop, whose throughput the schedule fixes).
	if sh.open() {
		res.set("trace.overhead_frac", (tracedP50-untracedP50)/untracedP50)
	} else {
		res.set("trace.overhead_frac", (untracedRate-median(rate[1]))/untracedRate)
	}
	// Coverage: self time per prediction summed over the serve stages,
	// server side from the traced replay and client side from the traced
	// rounds, over the untraced cost per prediction on the cores in use.
	costNS := float64(procs()) * 1e9 / untracedRate
	server := layers(replayTr...)
	stageNS := 0.0
	for _, s := range []string{"wire.bin_decode", "wire.jsonl_decode", "core.on_report", "core.on_handover", "core.on_sample", "core.predict", "wire.bin_encode", "wire.jsonl_encode", "core.snapshot"} {
		stageNS += float64(server[s].Self) / float64(tracedReplayed)
	}
	for _, s := range []string{"loadgen.send", "loadgen.read"} {
		stageNS += float64(agg[s].Self) / float64(preds[1])
	}
	coverage := stageNS / costNS
	res.set("trace.stage_coverage", coverage)
	res.note("stage coverage = sum over stages of self ns per prediction (%.0f) / (GOMAXPROCS %d x 1 s / untraced predictions per second = %.0f ns)", stageNS, procs(), costNS)
	if coverage < coverageMargin {
		res.note("finding: stages cover %.0f%% of the per-prediction cost, below the %.0f%% margin; the rest is syscalls, scheduling, loopback and idle time outside the traced calls", 100*coverage, 100*coverageMargin)
	}
	return res, writeTrace(cfg, res, agg, append(all, probeTr)...)
}

// setLayerTimes reports the per-call self times of the wire, core, sim and
// topology spans.
func setLayerTimes(res *Result, agg map[string]LayerTime) {
	for _, m := range []struct {
		metric, span string
		scale        float64
	}{
		{"wire.bin_decode_ns", "wire.bin_decode", 1},
		{"wire.bin_encode_ns", "wire.bin_encode", 1},
		{"wire.jsonl_decode_ns", "wire.jsonl_decode", 1},
		{"wire.jsonl_encode_ns", "wire.jsonl_encode", 1},
		{"core.on_sample_ns", "core.on_sample", 1},
		{"core.predict_ns", "core.predict", 1},
		{"core.on_report_ns", "core.on_report", 1},
		{"core.on_handover_ns", "core.on_handover", 1},
		{"core.snapshot_us", "core.snapshot", 1e-3},
		{"topology.deploy_ms", "topology.deploy", 1e-6},
		{"sim.freeway.tick_us", "sim.freeway.tick", 1e-3},
		{"sim.city.tick_us", "sim.city.tick", 1e-3},
	} {
		if a, ok := agg[m.span]; ok && a.Ops > 0 {
			res.set(m.metric, a.perOp()*m.scale)
		}
	}
}

// setRuntime reports the Go runtime's share of the traced intervals.
func setRuntime(res *Result, d runtimeDelta, ops int64) {
	if d.totalCPU > 0 {
		res.set("runtime.gc_cpu_frac", d.gcCPU/d.totalCPU)
	}
	res.set("runtime.alloc_bytes_per_op", float64(d.allocBytes)/float64(max(ops, 1)))
	res.set("runtime.heap_live_mb", float64(d.heapLive)/(1<<20))
}

// addSpanCounts adds the servers' own span observations (Server.Stats().
// Latency) made between two readings to counts, keyed by bucket upper
// bound in microseconds.
func addSpanCounts(counts map[float64]int64, a, b []metrics.ServerSnapshot) {
	for i := range b {
		for _, bk := range b[i].Latency.Buckets {
			counts[bk.UpperUS] += bk.Count
		}
		for _, bk := range a[i].Latency.Buckets {
			counts[bk.UpperUS] -= bk.Count
		}
	}
}

// bucketQuantiles returns the p50 and p99 of bucketed counts: the upper
// bound of the bucket holding each rank.
func bucketQuantiles(counts map[float64]int64) (p50, p99 float64) {
	bounds := make([]float64, 0, len(counts))
	var total int64
	for ub, c := range counts {
		if c > 0 {
			bounds = append(bounds, ub)
			total += c
		}
	}
	if total == 0 {
		return 0, 0
	}
	slices.Sort(bounds)
	at := func(q float64) float64 {
		target, seen := int64(rank(int(total), q)), int64(0)
		for _, ub := range bounds {
			if seen += counts[ub]; seen >= target {
				return ub
			}
		}
		return bounds[len(bounds)-1]
	}
	return at(0.50), at(0.99)
}

// clusterProbes reports the ring's replication counters over the traced
// phase and times single state transfers: a session state built from a
// replayed snapshot, shipped to a node as a replica and as a migration,
// and a stats probe round trip.
func clusterProbes(res *Result, r *rig, p *core.Prognos, a, b []metrics.ServerSnapshot, lags []float64, window time.Duration) error {
	var pushes, bytes int64
	for i := range b {
		pushes += b[i].ReplicationPushes - a[i].ReplicationPushes
		bytes += b[i].ReplicationBytesOut - a[i].ReplicationBytesOut
	}
	res.set("cluster.repl_pushes_per_s", float64(pushes)/window.Seconds())
	res.set("cluster.repl_bytes_per_s", float64(bytes)/window.Seconds())
	if len(lags) > 0 {
		res.set("cluster.repl_lag_ms", median(lags))
	}
	target := r.addrs[0]
	var replica, migrate, probe []float64
	var stateBytes int64
	for k := 0; k < probeRepeats; k++ {
		st := cluster.SessionState{
			Token:    fmt.Sprintf("perfbench-ship-%d", k),
			Carrier:  carrierName,
			Arch:     arch,
			Seq:      int64(k + 1),
			Snapshot: p.Snapshot(),
		}
		d, err := elapsed(func() error {
			s, err := cluster.ShipReplicas(target, "perfbench", []cluster.SessionState{st}, 5*time.Second)
			stateBytes = s.Bytes
			return err
		})
		if err != nil {
			return fmt.Errorf("ship replica: %w", err)
		}
		replica = append(replica, us(d))
		st.Token += "-migrate"
		d, err = elapsed(func() error {
			_, err := cluster.Ship(target, "perfbench", []cluster.SessionState{st}, 5*time.Second)
			return err
		})
		if err != nil {
			return fmt.Errorf("ship migrate: %w", err)
		}
		migrate = append(migrate, us(d))
		d, err = elapsed(func() error { return cluster.ProbeStats(target, 5*time.Second) })
		if err != nil {
			return fmt.Errorf("probe: %w", err)
		}
		probe = append(probe, us(d))
	}
	res.set("cluster.ship_replica_us", median(replica))
	res.set("cluster.ship_migrate_us", median(migrate))
	res.set("cluster.probe_us", median(probe))
	res.set("cluster.state_bytes", float64(stateBytes))
	return nil
}

// writeTrace writes the traced run's spans and per-layer summary under
// cfg.out, and notes where.
func writeTrace(cfg config, res *Result, agg map[string]LayerTime, trs ...*Tracer) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := writeSpans(path, agg, trs...); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	res.note("spans written to %s", path)
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		a := agg[n]
		res.note("span %-20s spans=%d ops=%d self_ns/op=%.1f total_ms=%.1f", n, a.Spans, a.Ops, a.perOp(), float64(a.Total)/1e6)
	}
	return nil
}
