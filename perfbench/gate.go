package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cellular"
	"repro/internal/core"
	"repro/internal/ran"
	"repro/internal/wire"
)

// seqGate checks one connection's response stream as it arrives. Every
// response must carry the next Seq (exactly +1 per connection) and echo
// the time of the sample it answers. Each violation is one failed sample:
// a gap fails every skipped sample, a repeated or backwards Seq fails the
// response itself.
type seqGate struct {
	next     int64 // Seq the next response must carry
	failed   int64
	firstErr error
}

func newSeqGate() *seqGate { return &seqGate{next: 1} }

func (g *seqGate) fail(n int64, format string, args ...any) {
	g.failed += n
	if g.firstErr == nil {
		g.firstErr = fmt.Errorf(format, args...)
	}
}

// observe checks r against the time of the sample that should have earned
// it and reports whether r was the expected response.
func (g *seqGate) observe(r wire.Response, want time.Duration) bool {
	switch {
	case r.Seq < g.next:
		g.fail(1, "duplicate or reordered response: seq %d after %d", r.Seq, g.next-1)
		return false
	case r.Seq > g.next:
		g.fail(r.Seq-g.next, "missing responses: seq %d, want %d", r.Seq, g.next)
		g.next = r.Seq + 1
		return false
	}
	g.next++
	if r.Time != want {
		g.fail(1, "seq %d answers t=%v, want t=%v", r.Seq, r.Time, want)
		return false
	}
	return true
}

// finish accounts the samples sent that never earned a response, and the
// responses that answered no sample.
func (g *seqGate) finish(sent int64) {
	switch got := g.next - 1; {
	case got < sent:
		g.fail(sent-got, "%d of %d samples got no response", sent-got, sent)
	case got > sent:
		g.fail(got-sent, "%d responses for %d samples", got, sent)
	}
}

// answer is the part of a response the reference must reproduce.
type answer struct {
	score float64
	lead  int64
	typ   cellular.HOType
}

func answerOf(r wire.Response) answer { return answer{score: r.Score, lead: r.LeadMS, typ: r.Type} }

// hashChunk is how many consecutive answers share one hash in an
// answerLog.
const hashChunk = 256

// answerLog is what a connection keeps of the answers it read: one FNV-1a
// hash per chunk of hashChunk consecutive answers, and the predicted types
// of the first keepTypes answers (for F1). Keeping every answer would make
// the benchmark's own bookkeeping dominate the process's memory.
type answerLog struct {
	n         int
	hashes    []uint64
	cur       uint64
	keepTypes int
	types     []cellular.HOType
}

func newAnswerLog(keepTypes int) *answerLog { return &answerLog{keepTypes: keepTypes} }

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

func (l *answerLog) add(a answer) {
	if l.n%hashChunk == 0 {
		l.cur = fnvOffset
	}
	h := l.cur
	for _, v := range [3]uint64{math.Float64bits(a.score), uint64(a.lead), uint64(a.typ)} {
		for k := 0; k < 64; k += 8 {
			h = (h ^ (v >> k & 0xff)) * fnvPrime
		}
	}
	l.cur = h
	l.n++
	if l.n%hashChunk == 0 {
		l.hashes = append(l.hashes, h)
	}
	if len(l.types) < l.keepTypes {
		l.types = append(l.types, a.typ)
	}
}

// chunks returns the chunk hashes, the last one possibly partial.
func (l *answerLog) chunks() []uint64 {
	if l.n%hashChunk != 0 {
		return append(l.hashes[:len(l.hashes):len(l.hashes)], l.cur)
	}
	return l.hashes
}

// mismatches counts the answers of l that lie in a chunk whose hash
// differs from ref's: every answer of a differing chunk counts as failed.
func (l *answerLog) mismatches(ref *answerLog) int64 {
	a, b := l.chunks(), ref.chunks()
	var bad int64
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			bad += int64(min(hashChunk, l.n-i*hashChunk))
		}
	}
	return bad
}

func predAnswer(p core.Prediction) answer {
	return answer{score: p.Score, lead: p.Lead.Milliseconds(), typ: p.Type}
}

// newPrognos builds the predictor exactly as the server does for a
// carrier/arch hello without warm state.
func newPrognos() (*core.Prognos, error) {
	return core.New(core.Config{
		EventConfigs:       ran.EventConfigsFor(carrierName, arch),
		Arch:               arch,
		UseReportPredictor: true,
	})
}

// feed applies one step to p in the order the session loop receives it:
// reports, handovers, then the sample, whose prediction it returns.
func feed(p *core.Prognos, st *step) core.Prediction {
	for _, mr := range st.reports {
		mr.Time += st.off
		p.OnReport(mr)
	}
	for _, ho := range st.hos {
		ho.Time += st.off
		p.OnHandover(ho)
	}
	p.OnSample(st.smp)
	return p.Predict()
}

// outcome tallies event-level F1 inputs across streams.
type outcome struct{ tp, fp, fn int }

func (o *outcome) add(e core.EventOutcome) { o.tp += e.TP; o.fp += e.FP; o.fn += e.FN }

func (o outcome) f1() float64 {
	return core.EventOutcome{TP: o.tp, FP: o.fp, FN: o.fn}.F1()
}

// scorer accumulates the ticks and handovers of one stream's prefix for
// core.EvaluateEvents (1 s window).
type scorer struct {
	ticks      []core.TickPrediction
	handovers  []cellular.HandoverEvent
	actionable int
}

func (s *scorer) add(st *step, typ cellular.HOType) {
	for _, ho := range st.hos {
		ho.Time += st.off
		s.handovers = append(s.handovers, ho)
	}
	s.ticks = append(s.ticks, core.TickPrediction{Time: st.smp.Time, Type: typ})
	if typ != cellular.HONone {
		s.actionable++
	}
}

func (s *scorer) evaluate() core.EventOutcome {
	return core.EvaluateEvents(s.ticks, s.handovers, time.Second)
}
