package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/wire"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, // rank 990: samples 991..1000 lie beyond
		{999, 0.99, false}, // rank 990: only 9 beyond
		{20, 0.50, true},   // rank 10: 10 beyond
		{19, 0.50, false},  // rank 10: 9 beyond
		{0, 0.50, false},
	} {
		if got := tailSupported(c.n, c.q); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}

	ns := make([]int64, 999)
	for i := range ns {
		ns[i] = int64(i+1) * int64(time.Millisecond)
	}
	if _, err := summarize(ns); err == nil {
		t.Fatal("summarize accepted 999 samples for a p99")
	}
	ns = append(ns, 1000*int64(time.Millisecond))
	// Shuffle-free reverse order: summarize must sort.
	for i, j := 0, len(ns)-1; i < j; i, j = i+1, j-1 {
		ns[i], ns[j] = ns[j], ns[i]
	}
	l, err := summarize(ns)
	if err != nil {
		t.Fatal(err)
	}
	if l.n != 1000 || l.p50 != 500 || l.p99 != 990 {
		t.Fatalf("summary = %+v, want n=1000 p50=500ms p99=990ms", l)
	}
	beyond := 0
	for _, v := range ns {
		if float64(v)/1e6 > l.p99 {
			beyond++
		}
	}
	if beyond != minBeyond {
		t.Fatalf("%d samples beyond the p99, want %d", beyond, minBeyond)
	}
}

// fakeClock returns the given instants in order, one per reading.
func fakeClock(t *testing.T, ts ...int64) func() int64 {
	return func() int64 {
		if len(ts) == 0 {
			t.Fatal("clock read more often than scripted")
		}
		v := ts[0]
		ts = ts[1:]
		return v
	}
}

// selfTimes recomputes per-name self time from a complete span list: each
// span's duration minus the durations of the spans whose parent it is.
// Children of one span never overlap, because a tracer belongs to one
// goroutine.
func selfTimes(spans []Span) map[string]int64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]int64)
	for i, s := range spans {
		out[s.Name] += s.End - s.Start - child[i]
	}
	return out
}

func TestSpanSelfTime(t *testing.T) {
	tr := NewTracer("test", time.Now(), 16)
	// root [0,100] ⊃ a [10,30], b [40,70] ⊃ c [50,60]; then d [100,104].
	tr.clock = fakeClock(t, 0, 10, 30, 40, 50, 60, 70, 100, 100, 104)
	tr.Begin("root", 1)
	tr.Begin("a", 1)
	tr.End(1)
	tr.Begin("b", 1)
	tr.Begin("c", 1)
	tr.End(2)
	tr.End(1)
	tr.End(1)
	tr.Begin("a", 2)
	tr.End(3)

	want := map[string]LayerTime{
		"root": {Spans: 1, Ops: 1, Total: 100, Self: 100 - 20 - 30},
		"a":    {Spans: 2, Ops: 4, Total: 24, Self: 24},
		"b":    {Spans: 1, Ops: 1, Total: 30, Self: 30 - 10},
		"c":    {Spans: 1, Ops: 2, Total: 10, Self: 10},
	}
	got := layers(tr)
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d span names, want %d", len(got), len(want))
	}
	// The kept spans reproduce the on-the-fly arithmetic.
	for name, self := range selfTimes(tr.spans) {
		if self != got[name].Self {
			t.Errorf("%s: self from span list %d, aggregate %d", name, self, got[name].Self)
		}
	}
	if p := tr.spans[3].Parent; tr.spans[p].Name != "b" {
		t.Errorf("c's parent is %q, want b", tr.spans[p].Name)
	}
	if a := got["a"]; a.perOp() != 6 {
		t.Errorf("a per op = %v, want 6", a.perOp())
	}
}

func TestSpanLimitKeepsAggregates(t *testing.T) {
	tr := NewTracer("test", time.Now(), 1)
	tr.clock = fakeClock(t, 0, 5, 7, 9)
	tr.Begin("x", 0)
	tr.End(1)
	tr.Begin("x", 0)
	tr.End(1)
	if len(tr.spans) != 1 || tr.dropped != 1 {
		t.Fatalf("kept %d spans, dropped %d; want 1 and 1", len(tr.spans), tr.dropped)
	}
	if got := layers(tr)["x"]; got.Spans != 2 || got.Self != 7 {
		t.Fatalf("aggregate %+v, want 2 spans and 7 ns", got)
	}
	var nilTracer *Tracer
	nilTracer.Begin("ignored", 0)
	nilTracer.End(1)
}

func TestOpenLoopDueTimeAccounting(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	sc := schedule{start: t0, end: at(100), period: 10 * time.Millisecond}

	// On time: at 25 ms samples 0..2 (due 0, 10, 20) are due.
	if got := sc.dueBy(0, at(25)); got != 3 {
		t.Fatalf("dueBy(0, 25ms) = %d, want 3", got)
	}
	if got := sc.dueBy(3, at(25)); got != 3 {
		t.Fatalf("dueBy(3, 25ms) = %d, want 3 (nothing new due)", got)
	}
	// The sender stalls until 72 ms: samples 3..7 go out in one batch, each
	// late by its own distance from its due time.
	end := sc.dueBy(3, at(72))
	if end != 8 {
		t.Fatalf("dueBy(3, 72ms) = %d, want 8", end)
	}
	for i, want := range []time.Duration{42, 32, 22, 12, 2} {
		if late := at(72).Sub(sc.due(int64(3 + i))); late != want*time.Millisecond {
			t.Errorf("sample %d late by %v, want %vms", 3+i, late, want)
		}
	}
	// Nothing is due at or after the end of the window.
	if got := sc.dueBy(8, at(500)); got != 10 {
		t.Fatalf("dueBy(8, 500ms) = %d, want 10", got)
	}
	// Latency runs from the due time, not the send time: sample 4 (due at
	// 40 ms) answered at 75 ms took 35 ms, although it was only sent at
	// 72 ms.
	if got := sc.latency(4, at(75)); got != 35*time.Millisecond {
		t.Fatalf("latency(4, 75ms) = %v, want 35ms", got)
	}
}

// feedGate runs a response stream through a gate; sample i (1-based) has
// time i·50ms.
func feedGate(seqs []int64, sent int64) *seqGate {
	g := newSeqGate()
	for _, s := range seqs {
		g.observe(wire.Response{Seq: s, Time: time.Duration(s) * 50 * time.Millisecond}, time.Duration(g.next)*50*time.Millisecond)
	}
	g.finish(sent)
	return g
}

func TestGateCatchesBrokenStreams(t *testing.T) {
	for _, c := range []struct {
		name       string
		seqs       []int64
		sent       int64
		wantFailed int64
	}{
		{"intact", []int64{1, 2, 3, 4, 5}, 5, 0},
		{"dropped", []int64{1, 2, 4, 5}, 5, 1},
		{"dropped tail", []int64{1, 2, 3}, 5, 2},
		{"duplicated", []int64{1, 2, 2, 3, 4, 5}, 5, 1},
		{"reordered", []int64{1, 3, 2, 4, 5}, 5, 2},
		{"unasked", []int64{1, 2, 3}, 2, 1},
	} {
		g := feedGate(c.seqs, c.sent)
		if g.failed != c.wantFailed {
			t.Errorf("%s: failed = %d (%v), want %d", c.name, g.failed, g.firstErr, c.wantFailed)
		}
		if (g.firstErr != nil) != (c.wantFailed > 0) {
			t.Errorf("%s: firstErr = %v", c.name, g.firstErr)
		}
	}

	// A response echoing the wrong sample time fails even in sequence.
	g := newSeqGate()
	g.observe(wire.Response{Seq: 1, Time: time.Second}, 2*time.Second)
	if g.failed != 1 {
		t.Fatalf("wrong time echo: failed = %d, want 1", g.failed)
	}
}

func TestAnswerLogCountsDifferingChunks(t *testing.T) {
	served, ref := newAnswerLog(3), newAnswerLog(0)
	n := 2*hashChunk + 10
	for i := 0; i < n; i++ {
		a := answer{score: 1, typ: cellular.HONone}
		served.add(a)
		if i == hashChunk+7 {
			a.lead = 200 // the reference disagrees once, in the second chunk
		}
		ref.add(a)
	}
	if got := served.mismatches(ref); got != hashChunk {
		t.Fatalf("mismatches = %d, want %d (one whole chunk)", got, hashChunk)
	}
	if got := served.mismatches(served); got != 0 {
		t.Fatalf("self mismatches = %d", got)
	}
	short := newAnswerLog(0)
	short.add(answer{})
	if got := served.mismatches(short); got != int64(n) {
		t.Fatalf("against a shorter log: %d, want %d", got, n)
	}
	if len(served.types) != 3 {
		t.Fatalf("kept %d types, want 3", len(served.types))
	}
}

// TestBenchmarkJSONNamesEveryMetric keeps BENCHMARK.json and the metric
// lists the program reports in step.
func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(listed), len(defs))
		}
		for i := range min(len(listed), len(defs)) {
			if listed[i].Name != defs[i].name || listed[i].Unit != defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, listed[i].Name, listed[i].Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not a program workload", w.Name)
		}
	}
}

// TestWorkloadsPassTheGate runs every workload briefly, traced, and
// requires a correct result with every per-layer metric present.
func TestWorkloadsPassTheGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, run := range workloads {
		t.Run(name, func(t *testing.T) {
			res, err := run(config{workload: name, seed: 7, seconds: 2, trace: true, out: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			res.complete()
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d notes=%v", res.Correct, res.Attempted, res.Failed, res.notes)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Fatalf("%d metrics, want %d", len(res.Metrics), len(perLayer))
			}
		})
	}
}
