package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/cellular"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/wire"
)

// snapshotEvery matches the server's warm-state push cadence: the session
// loop calls Prognos.Snapshot once per this many samples.
const snapshotEvery = 512

// parallel runs f(i) for i in [0, n) on at most procs() goroutines and
// returns the first error.
func parallel(n int, f func(i int) error) error {
	errs := make([]error, n)
	sem := make(chan struct{}, procs())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// record is one decoded client record.
type record struct {
	kind byte // wire.FrameSample, FrameReport or FrameHO
	smp  trace.Sample
	mr   cellular.MeasurementReport
	ho   cellular.HandoverEvent
}

// countWriter counts the bytes written through it.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// codec is the session loop's side of one framing, driven from memory: it
// decodes client records from a buffer and encodes responses into a
// counting writer.
type codec struct {
	binary bool
	in     bytes.Buffer // encoded client records of the current chunk
	enc    *client      // client-side encoder writing into in
	rd     bytes.Reader
	br     *bufio.Reader
	fr     *wire.FrameReader
	out    countWriter
	bw     *bufio.Writer
	fw     *wire.FrameWriter
	je     *json.Encoder
	inN    int64
}

func newCodec(binary bool) *codec {
	c := &codec{binary: binary}
	bw := bufio.NewWriter(&c.in)
	c.enc = &client{binary: binary, bw: bw, fw: wire.NewFrameWriter(bw), enc: json.NewEncoder(bw)}
	c.br = bufio.NewReaderSize(&c.rd, 64<<10)
	c.fr = wire.NewFrameReader(c.br)
	c.bw = bufio.NewWriter(&c.out)
	c.fw = wire.NewFrameWriter(c.bw)
	c.je = json.NewEncoder(c.bw)
	return c
}

// load encodes steps as a client would and rewinds the decoder onto them.
func (c *codec) load(steps []step) error {
	c.in.Reset()
	for i := range steps {
		if err := c.enc.send(&steps[i]); err != nil {
			return err
		}
	}
	if err := c.enc.bw.Flush(); err != nil {
		return err
	}
	c.inN += int64(c.in.Len())
	c.rd.Reset(c.in.Bytes())
	c.br.Reset(&c.rd)
	return nil
}

// decode reads every loaded record into recs, as the session loop's
// ReadRecord does.
func (c *codec) decode(recs []record) ([]record, error) {
	recs = recs[:0]
	for {
		var r record
		if c.binary {
			typ, p, err := c.fr.ReadFrame()
			if err == io.EOF {
				return recs, nil
			}
			if err != nil {
				return recs, err
			}
			r.kind = typ
			switch typ {
			case wire.FrameSample:
				err = wire.DecodeSample(p, &r.smp)
			case wire.FrameReport:
				err = wire.DecodeReport(p, &r.mr)
			case wire.FrameHO:
				err = wire.DecodeHandover(p, &r.ho)
			default:
				err = fmt.Errorf("unexpected frame 0x%02x", typ)
			}
			if err != nil {
				return recs, err
			}
		} else {
			line, err := wire.ReadLine(c.br, wire.MaxLineBytes)
			if err == io.EOF {
				return recs, nil
			}
			if err != nil {
				return recs, err
			}
			var rec wire.Record
			if err := json.Unmarshal(line, &rec); err != nil {
				return recs, err
			}
			switch {
			case rec.Sample != nil:
				r.kind, r.smp = wire.FrameSample, *rec.Sample
			case rec.Report != nil:
				r.kind, r.mr = wire.FrameReport, *rec.Report
			case rec.HO != nil:
				r.kind, r.ho = wire.FrameHO, *rec.HO
			}
		}
		recs = append(recs, r)
	}
}

// encode writes responses as the session loop does, then flushes.
func (c *codec) encode(resps []wire.Response) error {
	for _, r := range resps {
		var err error
		if c.binary {
			err = c.fw.WriteResponse(r)
		} else {
			err = c.je.Encode(r)
		}
		if err != nil {
			return err
		}
	}
	return c.bw.Flush()
}

// replayTraceLimit bounds the samples per connection whose replay through
// the session-loop functions is traced; the rest of the stream is still
// replayed and checked, untraced.
const replayTraceLimit = 200_000

// chunkSamples is how many samples a codec replay decodes and encodes per
// batch span: wire calls take tens of nanoseconds, so one clock read per
// call would dominate what it measures.
const chunkSamples = 64

// replayer replays one connection's record stream into a fresh predictor,
// incrementally and exactly as the session loop feeds it, and logs the
// answers so they can be compared with the served ones. With a codec the
// replay also goes through the public functions the session loop calls,
// with spans around each: record decode (wire.FrameReader.ReadFrame +
// Decode*, or wire.ReadLine + json.Unmarshal), Prognos.OnReport/
// OnHandover/OnSample/Predict, response encode (FrameWriter.WriteResponse
// or json.Encoder.Encode) and Prognos.Snapshot every snapshotEvery
// samples. Decode and encode spans cover a chunk of records, core spans
// one call each; only the first replayTraceLimit samples are traced.
type replayer struct {
	ci     int
	st     *stream
	p      *core.Prognos
	ref    *answerLog
	score  scorer
	c      *codec // nil: feed the predictor directly
	n      int    // samples replayed
	traced int    // samples replayed under spans
	steps  []step
	recs   []record
	resps  []wire.Response
}

func newReplayer(ci int, st *stream, c *codec) (*replayer, error) {
	p, err := newPrognos()
	if err != nil {
		return nil, err
	}
	return &replayer{ci: ci, st: st, p: p, ref: newAnswerLog(0), c: c}, nil
}

// advance replays up to served.n samples and scores those whose served
// types the log kept.
func (r *replayer) advance(served *answerLog, tr *Tracer) error {
	if r.c != nil {
		return r.advanceThrough(served, tr)
	}
	var sp step
	for ; r.n < served.n; r.n++ {
		r.st.next(&sp)
		r.ref.add(predAnswer(feed(r.p, &sp)))
		if r.n < len(served.types) {
			r.score.add(&sp, served.types[r.n])
		}
	}
	return nil
}

func (r *replayer) advanceThrough(served *answerLog, tr *Tracer) error {
	decodeSpan, encodeSpan := "wire.jsonl_decode", "wire.jsonl_encode"
	if r.c.binary {
		decodeSpan, encodeSpan = "wire.bin_decode", "wire.bin_encode"
	}
	for r.n < served.n {
		r.steps = r.steps[:0]
		for len(r.steps) < chunkSamples && r.n+len(r.steps) < served.n {
			var s step
			r.st.next(&s)
			r.steps = append(r.steps, s)
		}
		if err := r.c.load(r.steps); err != nil {
			return err
		}
		t := tr
		if r.n >= replayTraceLimit {
			t = nil
		} else {
			r.traced += len(r.steps)
		}
		id := sampleID(r.ci, int64(r.n+1))
		t.Begin("session.chunk", id)
		t.Begin(decodeSpan, id)
		var err error
		r.recs, err = r.c.decode(r.recs)
		t.End(len(r.recs))
		if err != nil {
			t.End(0)
			return err
		}
		r.resps = r.resps[:0]
		for i := range r.recs {
			rec := &r.recs[i]
			switch rec.kind {
			case wire.FrameReport:
				t.Begin("core.on_report", id)
				r.p.OnReport(rec.mr)
				t.End(1)
			case wire.FrameHO:
				t.Begin("core.on_handover", id)
				r.p.OnHandover(rec.ho)
				t.End(1)
			case wire.FrameSample:
				st := &r.steps[len(r.resps)]
				r.n++
				id = sampleID(r.ci, int64(r.n))
				t.Begin("core.on_sample", id)
				r.p.OnSample(rec.smp)
				t.End(1)
				t.Begin("core.predict", id)
				pred := r.p.Predict()
				t.End(1)
				r.ref.add(predAnswer(pred))
				if r.n <= len(served.types) {
					r.score.add(st, served.types[r.n-1])
				}
				r.resps = append(r.resps, wire.Response{
					Time:       rec.smp.Time,
					Type:       pred.Type,
					TypeName:   pred.Type.String(),
					Score:      pred.Score,
					Similarity: pred.Similarity,
					LeadMS:     pred.Lead.Milliseconds(),
					Seq:        int64(r.n),
				})
				if r.n%snapshotEvery == 0 {
					t.Begin("core.snapshot", id)
					r.p.Snapshot()
					t.End(1)
				}
			}
		}
		t.Begin(encodeSpan, id)
		err = r.c.encode(r.resps)
		t.End(len(r.resps))
		t.End(len(r.resps))
		if err != nil {
			return err
		}
	}
	return nil
}

// predict returns the log of the answers a fresh predictor gives to the
// first n steps of st.
func predict(st *stream, n int) (*answerLog, error) {
	p, err := newPrognos()
	if err != nil {
		return nil, err
	}
	out := newAnswerLog(0)
	var sp step
	for i := 0; i < n; i++ {
		st.next(&sp)
		out.add(predAnswer(feed(p, &sp)))
	}
	return out, nil
}

// probeCodec replays the first n steps of st through one framing's codec,
// traced, and returns the record and response bytes it encoded. Its
// answers must equal a direct replay's.
func probeCodec(st *stream, n int, binary bool, tr *Tracer) (in, out int64, err error) {
	want, err := predict(st.clone(), n)
	if err != nil {
		return 0, 0, err
	}
	rep, err := newReplayer(0, st, newCodec(binary))
	if err != nil {
		return 0, 0, err
	}
	if err := rep.advance(want, tr); err != nil {
		return 0, 0, fmt.Errorf("codec probe: %w", err)
	}
	if m := want.mismatches(rep.ref); m > 0 {
		return 0, 0, fmt.Errorf("codec probe: %d predictions differ after a codec round trip", m)
	}
	return rep.c.inN, rep.c.out.n, nil
}

// allocsPerRecord decodes the first n steps of st in one framing and
// returns heap allocations per decoded record. Nothing else may run.
func allocsPerRecord(st *stream, n int, binary bool) (float64, error) {
	steps := make([]step, n)
	for i := range steps {
		st.next(&steps[i])
	}
	c := newCodec(binary)
	if err := c.load(steps); err != nil {
		return 0, err
	}
	recs := make([]record, 0, 2*n)
	m0 := mallocs()
	recs, err := c.decode(recs)
	m1 := mallocs()
	if err != nil {
		return 0, err
	}
	return float64(m1-m0) / float64(len(recs)), nil
}

// allocsPerPred feeds the first n steps of st to a fresh predictor and
// returns heap allocations per prediction. Nothing else may run.
func allocsPerPred(st *stream, n int) (float64, error) {
	steps := make([]step, n)
	for i := range steps {
		st.next(&steps[i])
	}
	p, err := newPrognos()
	if err != nil {
		return 0, err
	}
	m0 := mallocs()
	for i := range steps {
		feed(p, &steps[i])
	}
	return float64(mallocs()-m0) / float64(n), nil
}

// elapsed runs f and returns its wall time.
func elapsed(f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0), err
}
