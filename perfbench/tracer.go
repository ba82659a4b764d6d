package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// Span is one timed call from the benchmark into a layer: name, start,
// end and the span that encloses it. Spans of one sample share ID
// (connection<<32 | seq); batch spans carry the ID of their first sample
// and count the operations they cover in Ops.
type Span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id,omitempty"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Ops    int32  `json:"ops"`
}

// sampleID is the span identifier shared by every span of one sample.
func sampleID(conn int, seq int64) uint64 { return uint64(conn)<<32 | uint64(seq) }

// LayerTime aggregates every span of one name.
type LayerTime struct {
	Spans int64 // spans recorded
	Ops   int64 // operations they covered
	Total int64 // summed duration, ns
	Self  int64 // summed self time (duration minus direct children), ns
}

// perOp returns the mean self time per operation in ns (0 without ops).
func (l LayerTime) perOp() float64 {
	if l.Ops == 0 {
		return 0
	}
	return float64(l.Self) / float64(l.Ops)
}

// Tracer records spans for one goroutine. Spans stay in memory (the first
// limit of them verbatim, all of them in the per-name aggregate) and are
// written out when the run ends. A nil *Tracer records nothing, so the
// untraced path pays one nil check per call site.
type Tracer struct {
	label   string
	clock   func() int64 // ns since the tracer's epoch
	limit   int
	spans   []Span
	dropped int64
	stack   []openSpan
	agg     map[string]*LayerTime
}

type openSpan struct {
	idx   int32 // index in spans, -1 when over the limit
	name  string
	start int64
	child int64 // summed duration of finished direct children
}

// NewTracer returns a tracer whose timestamps count from epoch and which
// keeps the first limit spans verbatim.
func NewTracer(label string, epoch time.Time, limit int) *Tracer {
	return &Tracer{
		label: label,
		clock: func() int64 { return int64(time.Since(epoch)) },
		limit: limit,
		spans: make([]Span, 0, limit),
		agg:   make(map[string]*LayerTime),
	}
}

// Begin opens a span nested in the innermost open one.
func (t *Tracer) Begin(name string, id uint64) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].idx
	}
	idx := int32(-1)
	start := t.clock()
	if len(t.spans) < t.limit {
		idx = int32(len(t.spans))
		t.spans = append(t.spans, Span{Name: name, ID: id, Parent: parent, Start: start})
	} else {
		t.dropped++
	}
	t.stack = append(t.stack, openSpan{idx: idx, name: name, start: start})
}

// End closes the innermost open span, which covered ops operations.
func (t *Tracer) End(ops int) {
	if t == nil {
		return
	}
	end := t.clock()
	n := len(t.stack) - 1
	o := t.stack[n]
	t.stack = t.stack[:n]
	dur := end - o.start
	if n > 0 {
		t.stack[n-1].child += dur
	}
	if o.idx >= 0 {
		t.spans[o.idx].End = end
		t.spans[o.idx].Ops = int32(ops)
	}
	a := t.agg[o.name]
	if a == nil {
		a = &LayerTime{}
		t.agg[o.name] = a
	}
	a.Spans++
	a.Ops += int64(ops)
	a.Total += dur
	a.Self += dur - o.child
}

// layers merges the aggregates of several tracers.
func layers(trs ...*Tracer) map[string]LayerTime {
	out := make(map[string]LayerTime)
	for _, t := range trs {
		if t == nil {
			continue
		}
		for name, a := range t.agg {
			m := out[name]
			m.Spans += a.Spans
			m.Ops += a.Ops
			m.Total += a.Total
			m.Self += a.Self
			out[name] = m
		}
	}
	return out
}

// writeSpans writes every kept span as one JSON line tagged with its
// tracer's label, followed by one summary line per span name.
func writeSpans(path string, agg map[string]LayerTime, trs ...*Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Tracer string `json:"tracer"`
		Span
	}
	for _, t := range trs {
		if t == nil {
			continue
		}
		for _, s := range t.spans {
			if err := enc.Encode(line{Tracer: t.label, Span: s}); err != nil {
				f.Close()
				return err
			}
		}
		if t.dropped > 0 {
			fmt.Fprintf(w, "{\"tracer\":%q,\"dropped_spans\":%d}\n", t.label, t.dropped)
		}
	}
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := agg[n]
		fmt.Fprintf(w, "{\"layer\":%q,\"spans\":%d,\"ops\":%d,\"total_ns\":%d,\"self_ns\":%d}\n", n, a.Spans, a.Ops, a.Total, a.Self)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
