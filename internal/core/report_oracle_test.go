package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/trace"
)

// The report predictor as it was before its four tracks shared one kernel
// and each prediction froze one view per track, kept as a test-only oracle:
// the reference tracks (a TriangularSmoother feeding a LinearForecaster,
// each over a ring of its own), the entering test and the step-by-step
// PredictInto scan. FuzzReportPredictorMatchesReference holds the
// production predictor to it tick for tick.

// ring keeps the newest len(buf) samples of a stream. The smoother and the
// forecaster both sum over it oldest-first; runs hands them the retained
// samples as at most two contiguous slices, so those sums index the buffer
// directly instead of taking a modulo per element.
type ring struct {
	buf    []float64
	head   int // index the next sample is written to
	filled int
}

func newRing(n int) ring { return ring{buf: make([]float64, n)} }

// push appends v, dropping the oldest sample once the ring is full.
func (r *ring) push(v float64) {
	r.buf[r.head] = v
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	if r.filled < len(r.buf) {
		r.filled++
	}
}

// runs returns the retained samples oldest-first: older, then newer.
func (r *ring) runs() (older, newer []float64) {
	start := r.head - r.filled
	if start < 0 {
		return r.buf[start+len(r.buf):], r.buf[:r.head]
	}
	return r.buf[start:r.head], nil
}

// last returns the newest sample; the ring must not be empty.
func (r *ring) last() float64 {
	i := r.head - 1
	if i < 0 {
		i += len(r.buf)
	}
	return r.buf[i]
}

func (r *ring) reset() { r.head, r.filled = 0, 0 }

// contents returns a copy of the retained samples, oldest-first.
func (r *ring) contents() []float64 {
	older, newer := r.runs()
	out := make([]float64, 0, r.filled)
	return append(append(out, older...), newer...)
}

// load replaces the contents with vs (oldest-first), the inverse of
// contents. When vs is longer than the ring only the newest samples are
// kept.
func (r *ring) load(vs []float64) {
	r.reset()
	if over := len(vs) - len(r.buf); over > 0 {
		vs = vs[over:]
	}
	for _, v := range vs {
		r.push(v)
	}
}

// TriangularSmoother implements the triangular-kernel signal smoothing of
// Long & Sikdar over a ring of the last W samples: the weighted mean with
// weights rising linearly toward the most recent sample, w_i = i+1 for
// i = 0..W-1 (oldest to newest).
type TriangularSmoother struct {
	samples ring
}

// NewTriangularSmoother creates a smoother over the given window length.
// Window must be at least 1.
func NewTriangularSmoother(window int) (*TriangularSmoother, error) {
	if window < 1 {
		return nil, fmt.Errorf("core: smoother window must be >= 1, got %d", window)
	}
	return &TriangularSmoother{samples: newRing(window)}, nil
}

// Push adds a sample and returns the current smoothed value. Until the
// window fills, the weighted mean over the available samples is returned.
func (s *TriangularSmoother) Push(v float64) float64 {
	s.samples.push(v)
	return s.Value()
}

// Value returns the smoothed value over the samples seen so far. With no
// samples it returns 0.
func (s *TriangularSmoother) Value() float64 {
	m := s.samples.filled
	if m == 0 {
		return 0
	}
	// The weights 1..m sum exactly to m(m+1)/2.
	var num, w float64
	older, newer := s.samples.runs()
	for _, run := range [2][]float64{older, newer} {
		for _, v := range run {
			w++
			num += w * v
		}
	}
	return num / float64(m*(m+1)/2)
}

// Reset clears the smoother state.
func (s *TriangularSmoother) Reset() { s.samples.reset() }

// Samples returns the retained window contents oldest-first.
func (s *TriangularSmoother) Samples() []float64 { return s.samples.contents() }

// SetSamples replaces the smoother contents with vs (oldest-first), the
// inverse of Samples. When vs is longer than the window only the newest
// window-many samples are kept.
func (s *TriangularSmoother) SetSamples(vs []float64) { s.samples.load(vs) }

// LinearForecaster predicts future signal strength by ordinary least
// squares over a sliding history window. Samples are pushed at a fixed
// rate; Forecast(k) extrapolates k steps ahead of the most recent sample.
type LinearForecaster struct {
	hist ring
}

// Line is a least-squares line fitted over a forecaster's history, with
// x = 0 at the oldest retained sample.
type Line struct {
	A, B float64 // intercept and slope per step
	X0   float64 // x of the newest sample
}

// At extrapolates k steps beyond the newest sample.
func (l Line) At(k int) float64 { return l.A + l.B*(l.X0+float64(k)) }

// NewLinearForecaster creates a forecaster with the given history window
// (number of samples). Window must be at least 2 so a slope is defined.
func NewLinearForecaster(window int) (*LinearForecaster, error) {
	if window < 2 {
		return nil, fmt.Errorf("core: forecaster window must be >= 2, got %d", window)
	}
	return &LinearForecaster{hist: newRing(window)}, nil
}

// Push appends one sample to the history window.
func (f *LinearForecaster) Push(v float64) { f.hist.push(v) }

// Ready reports whether enough history has accumulated to fit a slope.
func (f *LinearForecaster) Ready() bool { return f.hist.filled >= 2 }

// Line fits the least-squares line through the history; ok is false until
// Ready.
func (f *LinearForecaster) Line() (l Line, ok bool) {
	m := f.hist.filled
	if m < 2 {
		return Line{}, false
	}
	// x runs over the integers 0..m-1, so its sums are exact in closed form
	// (and equal to summing them one by one) for any window below ~300,000
	// samples. Only the y sums run over the ring, oldest first.
	n := float64(m)
	sx := float64(m * (m - 1) / 2)
	sxx := float64((m - 1) * m * (2*m - 1) / 6)
	var sy, sxy, x float64
	older, newer := f.hist.runs()
	for _, run := range [2][]float64{older, newer} {
		for _, y := range run {
			sy += y
			sxy += x * y
			x++
		}
	}
	// den = m²(m²-1)/12 > 0 for every m >= 2.
	den := n*sxx - sx*sx
	b := (n*sxy - sx*sy) / den
	a := (sy - b*sx) / n
	return Line{A: a, B: b, X0: float64(m - 1)}, true
}

// Forecast extrapolates k steps beyond the newest sample (k >= 1). With
// fewer than 2 samples it returns the last sample, or 0 with none.
func (f *LinearForecaster) Forecast(k int) float64 {
	if l, ok := f.Line(); ok {
		return l.At(k)
	}
	if f.hist.filled == 0 {
		return 0
	}
	return f.hist.last()
}

// Slope returns the fitted slope per step (0 until Ready).
func (f *LinearForecaster) Slope() float64 {
	l, _ := f.Line()
	return l.B
}

// Reset clears the history window.
func (f *LinearForecaster) Reset() { f.hist.reset() }

// History returns the retained window contents oldest-first.
func (f *LinearForecaster) History() []float64 { return f.hist.contents() }

// SetHistory replaces the history window with vs (oldest-first), the
// inverse of History. When vs is longer than the window only the newest
// window-many samples are kept.
func (f *LinearForecaster) SetHistory(vs []float64) { f.hist.load(vs) }

// refTrack follows one RRS stream: the smoother, then the forecaster over
// the smoothed values.
type refTrack struct {
	smoother *TriangularSmoother
	forecast *LinearForecaster
	valid    bool
	last     float64
}

func newRefTrack(smoothWin, histWin int) refTrack {
	sm, err := NewTriangularSmoother(smoothWin)
	if err != nil {
		panic(err)
	}
	fc, err := NewLinearForecaster(histWin)
	if err != nil {
		panic(err)
	}
	return refTrack{smoother: sm, forecast: fc}
}

// push feeds one sample (valid=false resets the track).
func (t *refTrack) push(v float64, valid bool) {
	if !valid {
		t.valid = false
		t.smoother.Reset()
		t.forecast.Reset()
		return
	}
	t.valid = true
	sm := t.smoother.Push(v)
	t.forecast.Push(sm)
	t.last = sm
}

func (t *refTrack) state() TrackState {
	return TrackState{Valid: t.valid, Last: t.last, Smooth: t.smoother.Samples(), History: t.forecast.History()}
}

func (t *refTrack) setState(st TrackState) {
	t.valid = st.Valid
	t.last = st.Last
	t.smoother.SetSamples(st.Smooth)
	t.forecast.SetHistory(st.History)
}

// refAt extrapolates k steps ahead (k=0 returns the smoothed current value).
func (t *refTrack) refAt(k int) (float64, bool) {
	if !t.valid {
		return 0, false
	}
	if k <= 0 {
		return t.last, true
	}
	if !t.forecast.Ready() {
		return t.last, true
	}
	return t.forecast.Forecast(k), true
}

// refPredictor is the report predictor the oracle runs: its configs, its
// four reference tracks and its per-event counters.
type refPredictor struct {
	configs         []cellular.EventConfig
	tracks          [4]refTrack
	heldSteps       []int
	edgeActive      []int
	predictionSteps int
	stepDur         time.Duration
}

func newRefPredictor(configs []cellular.EventConfig, smoothWin, histWin, predSteps int, stepDur time.Duration) *refPredictor {
	r := &refPredictor{predictionSteps: predSteps, stepDur: stepDur}
	for i := range r.tracks {
		r.tracks[i] = newRefTrack(smoothWin, histWin)
	}
	r.SetConfigs(configs)
	return r
}

func (r *refPredictor) SetConfigs(configs []cellular.EventConfig) {
	r.configs = configs
	r.heldSteps = make([]int, len(configs))
	r.edgeActive = make([]int, len(configs))
}

func (r *refPredictor) State() ReportState {
	return ReportState{
		ServLTE:    r.tracks[servLTE].state(),
		NeighLTE:   r.tracks[neighLTE].state(),
		ServNR:     r.tracks[servNR].state(),
		NeighNR:    r.tracks[neighNR].state(),
		Held:       append([]int(nil), r.heldSteps...),
		EdgeActive: append([]int(nil), r.edgeActive...),
	}
}

func (r *refPredictor) SetState(st ReportState) {
	for i, ts := range [4]TrackState{st.ServLTE, st.NeighLTE, st.ServNR, st.NeighNR} {
		r.tracks[i].setState(ts)
	}
	r.heldSteps = make([]int, len(r.configs))
	r.edgeActive = make([]int, len(r.configs))
	copy(r.heldSteps, st.Held)
	copy(r.edgeActive, st.EdgeActive)
}

// refObserve feeds one 20 Hz cross-layer sample and advances the per-event
// condition trackers.
func (r *refPredictor) refObserve(s trace.Sample) {
	r.tracks[servLTE].push(s.ServingLTE.RSRP, s.ServingLTE.Valid)
	r.tracks[neighLTE].push(s.NeighborLTE.RSRP, s.NeighborLTE.Valid)
	r.tracks[servNR].push(s.ServingNR.RSRP, s.ServingNR.Valid)
	r.tracks[neighNR].push(s.NeighborNR.RSRP, s.NeighborNR.Valid)
	for i, cfg := range r.configs {
		if r.refEnteringNow(cfg) {
			r.heldSteps[i]++
		} else {
			r.heldSteps[i] = 0
		}
	}
}

// refEnteringNow evaluates an event's entering condition on the current
// smoothed measurements.
func (r *refPredictor) refEnteringNow(cfg cellular.EventConfig) bool {
	serv, neigh := r.refTracksFor(cfg)
	sv, sok := serv.refAt(0)
	if !sok {
		return false
	}
	nv, nok := neigh.refAt(0)
	if !nok {
		if cfg.Type != cellular.EventA1 && cfg.Type != cellular.EventA2 {
			return false
		}
		nv = -200
	}
	return cfg.Entering(sv, nv)
}

// refTracksFor returns the (serving, neighbour) tracks an event evaluates.
func (r *refPredictor) refTracksFor(cfg cellular.EventConfig) (*refTrack, *refTrack) {
	if cfg.Type == cellular.EventB1 {
		return &r.tracks[servLTE], &r.tracks[neighNR]
	}
	if cfg.Tech == cellular.TechNR {
		return &r.tracks[servNR], &r.tracks[neighNR]
	}
	return &r.tracks[servLTE], &r.tracks[neighLTE]
}

// refPredictInto is PredictInto as the oracle: every look-ahead step reads
// the tracks afresh.
func (r *refPredictor) refPredictInto(out []PredictedReport) []PredictedReport {
	tttSteps := func(ttt time.Duration) int {
		st := int(ttt / r.stepDur)
		if st < 1 {
			st = 1
		}
		return st
	}
	for i, cfg := range r.configs {
		serv, neigh := r.refTracksFor(cfg)
		needNeigh := cfg.Type != cellular.EventA1 && cfg.Type != cellular.EventA2
		if !serv.valid && cfg.Type != cellular.EventB1 {
			continue
		}
		need := tttSteps(cfg.TTT)
		if r.refEnteringNow(cfg) {
			r.edgeActive[i] = 0
			if r.heldSteps[i] >= need {
				// Case 1: already reported. If the event re-reports
				// periodically and the condition persists, the repeat is
				// forecast at roughly the report interval.
				if cfg.ReportInterval > 0 {
					lead := int(cfg.ReportInterval/r.stepDur) / 2
					if lead < 1 {
						lead = 1
					}
					out = append(out, PredictedReport{Event: cfg.Type, Tech: cfg.Tech, LeadSteps: lead, Repeat: true})
				}
				continue
			}
			// Case 2: TTT in progress. A couple of samples must confirm the
			// condition before the completion is forecast.
			if r.heldSteps[i] >= 2 {
				out = append(out, PredictedReport{Event: cfg.Type, Tech: cfg.Tech, LeadSteps: need - r.heldSteps[i]})
			}
			continue
		}
		// Case 3: rising-edge search on the forecast signals; the trigger
		// may complete up to one TTT beyond the window. The approach rate
		// must be significant.
		if !approachSignificant(&cfg, serv.forecast.Slope(), neigh.forecast.Slope()) {
			r.edgeActive[i] = 0
			continue
		}
		fired := false
		held := 0
		for k := 1; k <= r.predictionSteps+need; k++ {
			sv, sok := serv.refAt(k)
			nv, nok := neigh.refAt(k)
			if !sok {
				break
			}
			if needNeigh && !nok {
				held = 0
				continue
			}
			if !nok {
				nv = -200
			}
			if !cfg.Entering(sv+forecastMarginDB, nv-forecastMarginDB) {
				held = 0
				continue
			}
			held++
			if held >= need {
				fired = true
				r.edgeActive[i]++
				// Debounce flickering edges; silence edges that have failed
				// to materialise within twice the horizon.
				if r.edgeActive[i] >= edgeDebounceTicks && r.edgeActive[i] <= 2*r.predictionSteps {
					out = append(out, PredictedReport{Event: cfg.Type, Tech: cfg.Tech, LeadSteps: k})
				}
				break
			}
		}
		if !fired {
			r.edgeActive[i] = 0
		}
	}
	// Order by when the trigger completes.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].LeadSteps < out[j-1].LeadSteps; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// fuzzInput hands out the fuzz input a byte at a time, then zeros.
type fuzzInput struct{ data []byte }

func (in *fuzzInput) next() byte {
	if len(in.data) == 0 {
		return 0
	}
	b := in.data[0]
	in.data = in.data[1:]
	return b
}

// Op bytes of a fuzz program; every other value feeds one sample.
const (
	opSetConfigs = 0  // [0, 8): replace the event configs
	opState      = 8  // [8, 16): compare the states, then save, or restore the saved one
	opFlip       = 16 // [16, 24): flip the validity of track op%4
	opExtreme    = 24 // [24, 28): set track op%4 to extremeLevels[next byte % 8]
	opPredict    = 28 // [28, 32): predict again without a new sample
	opSample     = 32 // [32, 256): one sample, a signed delta per track
)

// extremeLevels are the levels opExtreme sets a track to: beyond the A3
// bisection guard (|RSRP| >= 1e4), infinite or NaN, or back to -100 dBm.
var extremeLevels = [8]float64{1e4, -1e4, 1e15, 1e300, math.Inf(1), math.Inf(-1), math.NaN(), -100}

// decodeConfigs reads 1-6 event configs, 8 bytes each. Type 7 is no event
// type at all, which Entering never lets trigger.
func decodeConfigs(in *fuzzInput) []cellular.EventConfig {
	cfgs := make([]cellular.EventConfig, 1+int(in.next())%6)
	for i := range cfgs {
		cfgs[i] = cellular.EventConfig{
			Type:           cellular.EventType(in.next() % 8),
			Tech:           cellular.Tech(in.next() % 2),
			Threshold1:     -130 + float64(in.next())/4,
			Threshold2:     -130 + float64(in.next())/4,
			Offset:         float64(int8(in.next())) / 16,
			Hysteresis:     float64(in.next()%16) / 4,
			TTT:            time.Duration(in.next()%16) * 40 * time.Millisecond,
			ReportInterval: time.Duration(in.next()%4) * 60 * time.Millisecond,
		}
	}
	return cfgs
}

// maxFuzzTicks bounds the samples one fuzz input may feed. The oracle
// refits per look-ahead step, so short inputs keep each exec, and the
// fuzzer's minimisation of every new input, cheap.
const maxFuzzTicks = 500

// runAgainstReference decodes a program from data (smoother window 1-12,
// history window 2-40, horizon 1-40 steps, the event configs, then ops) and
// runs it on a production predictor and on the oracle side by side,
// failing at the first prediction where their forecasts, TTT counters or
// edge counters differ, or at the first state op where their exported
// states differ.
func runAgainstReference(t *testing.T, data []byte) {
	in := &fuzzInput{data: data}
	smoothWin := 1 + int(in.next())%12
	histWin := 2 + int(in.next())%39
	predSteps := 1 + int(in.next())%40
	cfgs := decodeConfigs(in)
	got := NewReportPredictor(cfgs, smoothWin, histWin, predSteps, trace.SamplePeriod)
	ref := newRefPredictor(cfgs, smoothWin, histWin, predSteps, trace.SamplePeriod)
	level := [4]float64{-100, -100, -100, -100}
	valid := [4]bool{true, true, true, true}
	var saved *ReportState
	var gotBuf, refBuf []PredictedReport
	predict := func(tick int) {
		gotBuf = got.PredictInto(gotBuf[:0])
		refBuf = ref.refPredictInto(refBuf[:0])
		if !reflect.DeepEqual(got.heldSteps, ref.heldSteps) {
			t.Fatalf("tick %d: held %v, reference %v", tick, got.heldSteps, ref.heldSteps)
		}
		if !reflect.DeepEqual(got.edgeActive, ref.edgeActive) {
			t.Fatalf("tick %d: edgeActive %v, reference %v", tick, got.edgeActive, ref.edgeActive)
		}
		if len(gotBuf) != len(refBuf) || (len(gotBuf) > 0 && !reflect.DeepEqual(gotBuf, refBuf)) {
			t.Fatalf("tick %d: forecast %+v, reference %+v", tick, gotBuf, refBuf)
		}
	}
	for tick := 0; tick < maxFuzzTicks && len(in.data) > 0; {
		op := in.next()
		switch {
		case op < opState:
			cfgs := decodeConfigs(in)
			got.SetConfigs(cfgs)
			ref.SetConfigs(cfgs)
		case op < opFlip:
			if st, want := got.State(), ref.State(); !sameState(st, want) {
				t.Fatalf("tick %d: state %+v, reference %+v", tick, st, want)
			}
			if saved == nil {
				st := ref.State()
				saved = &st
			} else {
				got.SetState(*saved)
				ref.SetState(*saved)
			}
		case op < opExtreme:
			valid[op%4] = !valid[op%4]
		case op < opPredict:
			level[op%4] = extremeLevels[in.next()%8]
		case op < opSample:
			predict(tick)
		default:
			for j := range level {
				level[j] += float64(int8(in.next())) / 16
			}
			obs := func(j int) trace.CellObs { return trace.CellObs{RSRP: level[j], Valid: valid[j]} }
			s := trace.Sample{ServingLTE: obs(servLTE), NeighborLTE: obs(neighLTE), ServingNR: obs(servNR), NeighborNR: obs(neighNR)}
			got.Observe(&s)
			ref.refObserve(s)
			predict(tick)
			tick++
		}
	}
}

// sameState reports whether two report states are equal bit for bit, any
// NaN matching any NaN.
func sameState(a, b ReportState) bool {
	ta := [4]TrackState{a.ServLTE, a.NeighLTE, a.ServNR, a.NeighNR}
	tb := [4]TrackState{b.ServLTE, b.NeighLTE, b.ServNR, b.NeighNR}
	for i := range ta {
		if ta[i].Valid != tb[i].Valid || !sameValue(ta[i].Last, tb[i].Last) ||
			!slices.EqualFunc(ta[i].Smooth, tb[i].Smooth, sameValue) ||
			!slices.EqualFunc(ta[i].History, tb[i].History, sameValue) {
			return false
		}
	}
	return slices.Equal(a.Held, b.Held) && slices.Equal(a.EdgeActive, b.EdgeActive)
}

// reportFuzzSeeds builds the seed corpus: 40 short programs of 120
// samples with smoother windows 1-10 and history windows 2-40, whose
// configs together cover every event type on both RATs with thresholds
// near the signals. The signals follow piecewise trends toward levels in
// the thresholds' band, steep enough to cross them and to both pass and
// fail the approach-rate test, with validity flips, a config swap every 40
// samples and a state saved at sample 40 and restored at sample 80. Short
// programs keep the fuzzer's minimisation of each new input quick. The
// seeds after them exercise the bisected, guarded and cached paths
// (a3SameSignSeeds, extremeSeeds, predictAfterSwapSeeds).
func reportFuzzSeeds() [][]byte {
	var seeds [][]byte
	for i := 0; i < 40; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		b := []byte{byte(i % 10), byte(i * 7 % 39), byte(i * 11 % 40)}
		configs := func(shift int) {
			n := 6
			b = append(b, byte(n-1))
			for j := 0; j < n; j++ {
				b = append(b,
					byte((i+j+shift)%8), byte(j%2),
					byte(120+rng.Intn(80)), byte(120+rng.Intn(80)),
					byte(rng.Intn(64)-32), byte(rng.Intn(16)),
					byte(rng.Intn(16)), byte(rng.Intn(4)))
			}
		}
		configs(0)
		lvl := [4]float64{-100, -100, -100, -100}
		var trend [4]float64
		for tick := 0; tick < 120; tick++ {
			switch {
			case tick%40 == 39:
				b = append(b, opSetConfigs)
				configs(tick / 40)
			case tick == 40 || tick == 80:
				b = append(b, opState)
			case rng.Intn(40) == 0:
				b = append(b, opFlip+byte(rng.Intn(4)))
			}
			if tick%20 == 0 {
				// Head for a level in the thresholds' band, so trends
				// keep crossing them.
				for j := range trend {
					trend[j] = (-105 + 30*rng.Float64() - lvl[j]) / 20
				}
			}
			b = append(b, opSample+byte(rng.Intn(256-opSample)))
			for j := range trend {
				d := int8(math.Max(-127, math.Min(127, 16*trend[j]+4*rng.NormFloat64())))
				b = append(b, byte(d))
				lvl[j] += float64(d) / 16
			}
		}
		seeds = append(seeds, b)
	}
	seeds = append(seeds, a3SameSignSeeds()...)
	seeds = append(seeds, extremeSeeds()...)
	return append(seeds, predictAfterSwapSeeds()...)
}

// sampleOp encodes one sample whose tracks move by d[j]/16 dB.
func sampleOp(d [4]int8) []byte {
	return []byte{opSample, byte(d[0]), byte(d[1]), byte(d[2]), byte(d[3])}
}

// a3SameSignSeeds are programs of A3 events on both RATs whose serving and
// neighbour tracks move in the same direction, the neighbour faster up or
// the serving faster down, so the A3 approaches with slopes of one sign:
// the rising edge is bisected. Each approach crosses and then retreats.
func a3SameSignSeeds() [][]byte {
	var seeds [][]byte
	for i := 0; i < 8; i++ {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		b := []byte{byte(7 + i%3), byte(18 + 4*(i%3)), byte(19 - 5*(i%2))}
		b = append(b, 3)
		for j := 0; j < 4; j++ {
			b = append(b, byte(cellular.EventA3), byte(j%2), 0, 0,
				byte(rng.Intn(48)), byte(rng.Intn(16)), byte(rng.Intn(16)), byte(rng.Intn(4)))
		}
		// Neighbours start 8 dB below their serving cells.
		b = append(b, sampleOp([4]int8{0, -64, 0, -64})...)
		b = append(b, sampleOp([4]int8{0, -64, 0, -64})...)
		// Serving and neighbour slopes per step, in 1/16 dB: both up or
		// both down, the neighbour gaining 3/16 dB per step.
		serv, neigh := int8(1), int8(4)
		if i%2 == 1 {
			serv, neigh = -4, -1
		}
		for tick := 0; tick < 150; tick++ {
			s, n := serv, neigh
			if tick%75 >= 55 {
				s, n = -s, -n // retreat
			}
			noise := func() int8 { return int8(rng.Intn(3) - 1) }
			b = append(b, sampleOp([4]int8{s + noise(), n + noise(), s + noise(), n + noise()})...)
		}
		seeds = append(seeds, b)
	}
	return seeds
}

// extremeSeeds are programs whose tracks leave the A3 bisection guard:
// serving and neighbour at ±1e4 or 1e15 dB with an A3 approaching, then
// ±Inf, NaN, 1e15 and 1e300 on single tracks, each restored to -100 dBm
// after a while. These take the step-by-step scan.
func extremeSeeds() [][]byte {
	var seeds [][]byte
	for i := 0; i < 6; i++ {
		rng := rand.New(rand.NewSource(int64(200 + i)))
		b := []byte{byte(7), byte(18), byte(19), 5}
		for j := 0; j < 6; j++ {
			typ := byte(cellular.EventA3)
			if j >= 4 {
				typ = byte(j+i) % 6
			}
			b = append(b, typ, byte(j%2), byte(120+rng.Intn(80)), byte(120+rng.Intn(80)),
				byte(rng.Intn(48)), byte(rng.Intn(16)), byte(rng.Intn(16)), byte(rng.Intn(4)))
		}
		// All four tracks at 1e4, -1e4 or 1e15 dB, then the neighbours fall
		// behind and catch up again.
		for j := byte(0); j < 4; j++ {
			b = append(b, opExtreme+j, byte(i%3))
		}
		for tick := 0; tick < 60; tick++ {
			n := int8(-16)
			if tick >= 20 {
				n = 4 + int8(i%3)*2
			}
			b = append(b, sampleOp([4]int8{2, n, 2, n})...)
		}
		for j := byte(0); j < 4; j++ {
			b = append(b, opExtreme+j, 7)
		}
		// One track at a time to an extreme level and back.
		for e, lvl := range []byte{4, 5, 6, 3, 2} {
			b = append(b, opExtreme+byte(e+i)%4, lvl)
			for tick := 0; tick < 12; tick++ {
				b = append(b, sampleOp([4]int8{int8(rng.Intn(9) - 4), int8(rng.Intn(9) - 4), int8(rng.Intn(9) - 4), int8(rng.Intn(9) - 4)})...)
			}
			b = append(b, opExtreme+byte(e+i)%4, 7)
			for tick := 0; tick < 25; tick++ {
				b = append(b, sampleOp([4]int8{-2, 3, -2, 3})...)
			}
		}
		seeds = append(seeds, b)
	}
	return seeds
}

// predictAfterSwapSeeds are programs that predict again at once after
// SetConfigs and after SetState, before any new sample, and twice in a
// row: PredictInto must read the k = 0 condition of the configs and state
// it now holds.
func predictAfterSwapSeeds() [][]byte {
	var seeds [][]byte
	for i := 0; i < 6; i++ {
		rng := rand.New(rand.NewSource(int64(300 + i)))
		b := []byte{byte(i % 10), byte(5 + 6*i), byte(10 + 5*i)}
		configs := func() {
			b = append(b, 5)
			for j := 0; j < 6; j++ {
				b = append(b, byte(rng.Intn(7)), byte(j%2), byte(120+rng.Intn(80)), byte(120+rng.Intn(80)),
					byte(rng.Intn(64)-32), byte(rng.Intn(16)), byte(rng.Intn(16)), byte(rng.Intn(4)))
			}
		}
		configs()
		var trend [4]int8
		for tick := 0; tick < 120; tick++ {
			switch {
			case tick%30 == 29:
				b = append(b, opSetConfigs)
				configs()
				b = append(b, opPredict)
			case tick == 20 || tick%30 == 14:
				b = append(b, opState, opPredict, opPredict+1)
			case rng.Intn(30) == 0:
				b = append(b, opFlip+byte(rng.Intn(4)), opPredict+2)
			}
			if tick%15 == 0 {
				for j := range trend {
					trend[j] = int8(rng.Intn(17) - 8)
				}
			}
			b = append(b, sampleOp(trend)...)
		}
		seeds = append(seeds, b)
	}
	return seeds
}

// TestRisingEdgeMatchesScan holds risingEdge to the step-by-step scan on
// frozen lines. Beyond the guard, near 1e15 dB where an ulp is 0.125 dB,
// an A3 whose slopes share a sign and differ by 0.01 dB per step can read
// true, false, true as k grows; there the scan must run. Inside the guard
// every event type must agree with the scan over random lines.
func TestRisingEdgeMatchesScan(t *testing.T) {
	scan := func(cfg *cellular.EventConfig, serv, neigh *trackView, horizon, need int) int {
		held := 0
		for k := 1; k <= horizon; k++ {
			if !entering(cfg, serv, neigh, k, forecastMarginDB) {
				held = 0
				continue
			}
			if held++; held >= need {
				return k
			}
		}
		return 0
	}
	line := func(a, b float64) trackView { return trackView{valid: true, fitted: true, last: a, a: a, b: b, x0: 19} }
	flicker := 0
	for need := 1; need <= 4; need++ {
		cfg := cellular.EventConfig{Type: cellular.EventA3, Offset: 1, Hysteresis: 0.5}
		for _, base := range []float64{1e15, -1e15, 1e4, 9999} {
			for gap := 0; gap < 200; gap++ {
				for _, sb := range []float64{0.1, -0.11, 1.5} {
					serv := line(base, sb)
					neigh := line(base+3.5+float64(gap)/100, sb+0.01)
					if !approachSignificant(&cfg, serv.slope(), neigh.slope()) {
						t.Fatalf("slopes %v, %v: approach not significant", serv.b, neigh.b)
					}
					want := scan(&cfg, &serv, &neigh, 40, need)
					if got := risingEdge(&cfg, &serv, &neigh, 40, need); got != want {
						t.Fatalf("A3 base %v gap %d slope %v need %d: risingEdge %d, scan %d", base, gap, sb, need, got, want)
					}
					prev, down := false, false
					for k := 1; k <= 40; k++ {
						on := entering(&cfg, &serv, &neigh, k, forecastMarginDB)
						down = down || prev && !on
						prev = on
					}
					if down {
						flicker++
					}
				}
			}
		}
	}
	if flicker == 0 {
		t.Error("no A3 beyond the guard read true, then false: the cases test nothing")
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		cfg := cellular.EventConfig{
			Type:       cellular.EventType(rng.Intn(7)),
			Threshold1: -110 + 20*rng.Float64(),
			Threshold2: -110 + 20*rng.Float64(),
			Offset:     6*rng.Float64() - 3,
			Hysteresis: 3 * rng.Float64(),
		}
		serv := line(-110+20*rng.Float64(), rng.NormFloat64()/4)
		neigh := line(-110+20*rng.Float64(), rng.NormFloat64()/4)
		if rng.Intn(8) == 0 {
			serv = trackView{valid: true, last: serv.last} // unfitted
		}
		neigh.valid = rng.Intn(8) != 0
		horizon, need := 1+rng.Intn(60), 1+rng.Intn(20)
		if !approachSignificant(&cfg, serv.slope(), neigh.slope()) {
			continue
		}
		if got, want := risingEdge(&cfg, &serv, &neigh, horizon, need), scan(&cfg, &serv, &neigh, horizon, need); got != want {
			t.Fatalf("%+v serv %+v neigh %+v horizon %d need %d: risingEdge %d, scan %d", cfg, serv, neigh, horizon, need, got, want)
		}
	}
}

// FuzzReportPredictorMatchesReference holds the report predictor to the
// oracle above: fed the same configs and signals, both must forecast the
// same reports with the same TTT and edge counters after every sample and
// every predict op, and export the same state at every state op, across
// SetConfigs, SetState and levels beyond the A3 bisection guard.
//
//	go test -run '^$' -fuzz FuzzReportPredictorMatchesReference -fuzztime 30s ./internal/core
func FuzzReportPredictorMatchesReference(f *testing.F) {
	for _, seed := range reportFuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(runAgainstReference)
}
