package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/trace"
)

// The report predictor as it was before each prediction froze one view per
// track: signalTrack.at, the entering test and the PredictInto scan, kept
// verbatim as a test-only oracle. The only edits are the track lookup
// (tracks now sit in an indexed array) and approachSignificant taking its
// config by pointer. FuzzReportPredictorMatchesReference holds the
// production predictor to it tick for tick.

// refAt extrapolates k steps ahead (k=0 returns the smoothed current value).
func (t *signalTrack) refAt(k int) (float64, bool) {
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

// refObserve feeds one 20 Hz cross-layer sample and advances the per-event
// condition trackers.
func (r *ReportPredictor) refObserve(s trace.Sample) {
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
func (r *ReportPredictor) refEnteringNow(cfg cellular.EventConfig) bool {
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
func (r *ReportPredictor) refTracksFor(cfg cellular.EventConfig) (*signalTrack, *signalTrack) {
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
func (r *ReportPredictor) refPredictInto(out []PredictedReport) []PredictedReport {
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
	opState      = 8  // [8, 16): save the state, or restore the saved one
	opFlip       = 16 // [16, 32): flip the validity of track op%4
	opSample     = 32 // [32, 256): one sample, a signed delta per track
)

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
// failing at the first sample where their forecasts, TTT counters or edge
// counters differ.
func runAgainstReference(t *testing.T, data []byte) {
	in := &fuzzInput{data: data}
	smoothWin := 1 + int(in.next())%12
	histWin := 2 + int(in.next())%39
	predSteps := 1 + int(in.next())%40
	cfgs := decodeConfigs(in)
	got := NewReportPredictor(cfgs, smoothWin, histWin, predSteps, trace.SamplePeriod)
	ref := NewReportPredictor(cfgs, smoothWin, histWin, predSteps, trace.SamplePeriod)
	level := [4]float64{-100, -100, -100, -100}
	valid := [4]bool{true, true, true, true}
	var saved *ReportState
	var gotBuf, refBuf []PredictedReport
	for tick := 0; tick < maxFuzzTicks && len(in.data) > 0; {
		op := in.next()
		switch {
		case op < opState:
			cfgs := decodeConfigs(in)
			got.SetConfigs(cfgs)
			ref.SetConfigs(cfgs)
		case op < opFlip:
			if saved == nil {
				st := ref.State()
				saved = &st
			} else {
				got.SetState(*saved)
				ref.SetState(*saved)
			}
		case op < opSample:
			valid[op%4] = !valid[op%4]
		default:
			for j := range level {
				level[j] += float64(int8(in.next())) / 16
			}
			obs := func(j int) trace.CellObs { return trace.CellObs{RSRP: level[j], Valid: valid[j]} }
			s := trace.Sample{ServingLTE: obs(servLTE), NeighborLTE: obs(neighLTE), ServingNR: obs(servNR), NeighborNR: obs(neighNR)}
			got.Observe(&s)
			ref.refObserve(s)
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
			tick++
		}
	}
}

// reportFuzzSeeds builds the seed corpus: 40 short programs of 120
// samples with smoother windows 1-10 and history windows 2-40, whose
// configs together cover every event type on both RATs with thresholds
// near the signals. The signals follow piecewise trends toward levels in
// the thresholds' band, steep enough to cross them and to both pass and
// fail the approach-rate test, with validity flips, a config swap every 40
// samples and a state saved at sample 40 and restored at sample 80. Short
// programs keep the fuzzer's minimisation of each new input quick.
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
	return seeds
}

// FuzzReportPredictorMatchesReference holds the frozen-view report
// predictor to the oracle above: fed the same configs and signals, both
// must forecast the same reports with the same TTT and edge counters after
// every sample, including across SetConfigs and SetState.
//
//	go test -run '^$' -fuzz FuzzReportPredictorMatchesReference -fuzztime 30s ./internal/core
func FuzzReportPredictorMatchesReference(f *testing.F) {
	for _, seed := range reportFuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(runAgainstReference)
}
