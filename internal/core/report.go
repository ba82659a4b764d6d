package core

import (
	"math"
	"time"

	"repro/internal/cellular"
	"repro/internal/trace"
)

// trackView freezes one signal track for one pass over the event configs:
// its validity, its smoothed value now and, once fitted, its forecast line
// a + b*(x0+k). A pass reads each track once, so each track is fitted at
// most once per prediction however many configs and look-ahead steps read
// it.
type trackView struct {
	valid, fitted bool
	last          float64
	a, b, x0      float64 // intercept, slope per step, x of the newest sample
}

// at is the track's value k steps ahead: the smoothed value now for k = 0
// or before the track has a fit, the fitted line's forecast after. It is
// the one expression every forecast is computed by.
func (v *trackView) at(k int) float64 {
	if k <= 0 || !v.fitted {
		return v.last
	}
	return v.a + v.b*(v.x0+float64(k))
}

// slope is the fitted slope per step (0 before the track has a fit).
func (v *trackView) slope() float64 { return v.b }

// entering is the one evaluation of an event's entering condition: on the
// frozen tracks k steps ahead (k = 0 reads the smoothed values now), with
// the serving signal raised and the neighbour lowered by margin. An event
// never enters without its serving track, nor without its neighbour unless
// it is A1/A2, which read a missing neighbour as -200 dBm.
func entering(cfg *cellular.EventConfig, serv, neigh *trackView, k int, margin float64) bool {
	if !serv.valid {
		return false
	}
	nv := -200.0
	if neigh.valid {
		nv = neigh.at(k)
	} else if cfg.Type != cellular.EventA1 && cfg.Type != cellular.EventA2 {
		return false
	}
	return cfg.Entering(serv.at(k)+margin, nv-margin)
}

// PredictedReport is a measurement report the report predictor expects the
// UE to send within the prediction window.
type PredictedReport struct {
	// Event is the 3GPP measurement event expected to trigger (A2, A3,
	// NR-B1, ...), and Tech the RAT it concerns.
	Event cellular.EventType
	Tech  cellular.Tech
	// LeadSteps is how many sample steps ahead the trigger completes.
	LeadSteps int
	// Repeat marks a forecast periodic re-report of a standing condition.
	Repeat bool
}

// Key returns the MR-key notation of the predicted report ("NR-A3" etc.).
func (p PredictedReport) Key() string {
	mr := cellular.MeasurementReport{Event: p.Event, Tech: p.Tech}
	return mr.Key()
}

// ReportPredictor forecasts which measurement events will trigger within
// the next prediction window, from the event configurations sniffed off the
// RRC layer and the predicted RRS of serving and neighbour cells. It
// emulates the UE's measurement engine on the smoothed signals: conditions
// whose time-to-trigger is already running are forecast to complete, while
// conditions that have held past TTT are assumed already reported.
type ReportPredictor struct {
	configs []cellular.EventConfig
	// steps holds, per config, its TTT and the lead of its forecast
	// periodic repeat in samples, derived once per config table.
	steps []eventSteps

	tracks tracks

	// heldSteps tracks, per config, how many consecutive samples the
	// entering condition has held on the smoothed measurements.
	heldSteps []int
	// edgeActive tracks, per config, how long a rising-edge forecast has
	// been continuously emitted. A forecast claiming an imminent trigger
	// that fails to materialise within twice its own horizon is silenced
	// until the condition forecast clears — otherwise a hovering trend
	// keeps predicting a crossing that never comes.
	edgeActive []int
	// enteringNow holds, per config, the entering condition on the newest
	// smoothed values: Observe's test, which PredictInto reads back as its
	// k = 0 case. SetConfigs and SetState re-evaluate it.
	enteringNow []bool

	// predictionSteps is the look-ahead horizon in samples.
	predictionSteps int
	stepDur         time.Duration
}

// eventSteps is one event config's durations in samples: its TTT (at least
// 1), and the lead of a forecast periodic repeat (half the report interval,
// at least 1; 0 for an event that does not re-report).
type eventSteps struct{ ttt, repeat int }

// forecastMarginDB makes rising-edge forecasts conservative: the predicted
// signals must clear the trigger condition by this margin. Linear fits over
// a short history pick up shadowing wiggles; without a margin they forecast
// phantom crossings continuously at pedestrian speeds.
const forecastMarginDB = 1.5

// edgeDebounceTicks requires a rising-edge forecast to persist this many
// consecutive prediction calls before it is emitted.
const edgeDebounceTicks = 6

// minClosingRateDBPerStep requires the signal geometry to approach the
// trigger at a meaningful rate (≈0.16 dB/s at 20 Hz sampling — walking
// through a 50 m-correlated shadow field moves signals by well under
// 1 dB/s) before a rising edge is forecast; hovering trends otherwise
// produce phantom crossings from fit noise.
const minClosingRateDBPerStep = 0.008

// Indices of ReportPredictor.tracks.
const (
	servLTE = iota
	neighLTE
	servNR
	neighNR
)

// approachSignificant reports whether the fitted slopes actually drive the
// event's condition toward triggering.
func approachSignificant(cfg *cellular.EventConfig, servSlope, neighSlope float64) bool {
	switch cfg.Type {
	case cellular.EventA1:
		return servSlope >= minClosingRateDBPerStep
	case cellular.EventA2:
		return -servSlope >= minClosingRateDBPerStep
	case cellular.EventA3:
		return neighSlope-servSlope >= minClosingRateDBPerStep
	case cellular.EventA4, cellular.EventB1:
		return neighSlope >= minClosingRateDBPerStep
	case cellular.EventA5:
		return -servSlope >= minClosingRateDBPerStep/2 || neighSlope >= minClosingRateDBPerStep/2
	default:
		return true
	}
}

// enteringMonotone reports whether the forecast entering condition, with
// the margin, can only turn from false to true as the look-ahead k grows.
// Each forecast is a + b*(x0+k) on one frozen line, or a constant for an
// unfitted track and for A1/A2's missing neighbour.
//
// When every track the event reads moves toward its trigger or stands
// still (A1: serving slope >= 0; A2: serving <= 0; A4/B1: neighbour >= 0;
// A3/A5: serving <= 0 and neighbour >= 0), round-to-nearest keeps each
// forecast, the margin and Entering's additions and comparisons monotone
// in k, with or without a fused multiply-add, whatever the magnitudes.
//
// An A3 whose approach passed approachSignificant is monotone under a
// guard even when both slopes share a sign. Its computed test is
// (n(k) - m) - h > (s(k) + m) + off, and the exact difference of the two
// sides rises by nB - sB per step, which approachSignificant puts at
// 0.008 dB or more (less its own rounding, under 2e-12). With |a|,
// |b|*(x0+horizon) and the smoothed value of both tracks, and |h| and
// |off|, below 1e4, every intermediate stays below 2^15, so each of a
// side's four roundings is at most 2^-39 and a side is off by under
// 1e-11 dB. The computed difference therefore still rises by more than
// 0.008 - 4e-11 per step: strictly increasing, with or without a fused
// multiply-add. Outside the guard (NaN, Inf, huge values: near 1e15 dB an
// ulp is 0.125 dB and the test can read true, false, true) and for A5
// with unfavourable slopes the caller scans step by step.
func enteringMonotone(cfg *cellular.EventConfig, serv, neigh *trackView, horizon int) bool {
	s, n := serv.slope(), neigh.slope()
	switch cfg.Type {
	case cellular.EventA1:
		return s >= 0
	case cellular.EventA2:
		return s <= 0
	case cellular.EventA4, cellular.EventB1:
		return n >= 0
	case cellular.EventA5:
		return s <= 0 && n >= 0
	case cellular.EventA3:
		return s <= 0 && n >= 0 || serv.bounded(horizon) && neigh.bounded(horizon) &&
			math.Abs(cfg.Hysteresis) < monotoneBound && math.Abs(cfg.Offset) < monotoneBound
	default:
		return false
	}
}

// monotoneBound is enteringMonotone's guard on an A3's magnitudes, in dB.
const monotoneBound = 1e4

// bounded reports whether the view's forecasts up to horizon steps ahead
// stay inside enteringMonotone's guard.
func (v *trackView) bounded(horizon int) bool {
	return math.Abs(v.last) < monotoneBound && math.Abs(v.a) < monotoneBound &&
		math.Abs(v.b*(v.x0+float64(horizon))) < monotoneBound
}

// risingEdge returns the look-ahead step at which the forecast entering
// condition, with the margin, has held for need consecutive steps, or 0
// when that does not happen within horizon steps. The caller has passed
// approachSignificant. Where the condition is monotone in k it reads
// false...false, true...true, so the first true step k* is bisected and
// the edge completes at k* + need - 1, exactly where the step-by-step scan
// would stop; a condition false at the horizon is false at every step.
func risingEdge(cfg *cellular.EventConfig, serv, neigh *trackView, horizon, need int) int {
	if enteringMonotone(cfg, serv, neigh, horizon) {
		if !entering(cfg, serv, neigh, horizon, forecastMarginDB) {
			return 0
		}
		lo, hi := 1, horizon
		for lo < hi {
			if mid := (lo + hi) / 2; entering(cfg, serv, neigh, mid, forecastMarginDB) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		if k := lo + need - 1; k <= horizon {
			return k
		}
		return 0
	}
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

// NewReportPredictor creates a report predictor. smoothWin/histWin are in
// samples (the paper uses 1 s windows at 20 Hz); predSteps is the
// prediction window length in samples.
func NewReportPredictor(configs []cellular.EventConfig, smoothWin, histWin, predSteps int, stepDur time.Duration) *ReportPredictor {
	r := &ReportPredictor{
		tracks:          newTracks(smoothWin, histWin),
		predictionSteps: predSteps,
		stepDur:         stepDur,
	}
	r.SetConfigs(configs)
	return r
}

// SetConfigs replaces the sniffed event configurations (after an RRC
// reconfiguration).
func (r *ReportPredictor) SetConfigs(configs []cellular.EventConfig) {
	r.configs = configs
	r.steps = make([]eventSteps, len(configs))
	for i := range configs {
		r.steps[i].ttt = max(1, int(configs[i].TTT/r.stepDur))
		if configs[i].ReportInterval > 0 {
			r.steps[i].repeat = max(1, int(configs[i].ReportInterval/r.stepDur)/2)
		}
	}
	r.heldSteps = make([]int, len(configs))
	r.edgeActive = make([]int, len(configs))
	r.enteringNow = make([]bool, len(configs))
	r.evaluateNow()
}

// Observe feeds one 20 Hz cross-layer sample and advances the per-event
// condition trackers.
func (r *ReportPredictor) Observe(s *trace.Sample) {
	r.tracks.push(
		[4]float64{s.ServingLTE.RSRP, s.NeighborLTE.RSRP, s.ServingNR.RSRP, s.NeighborNR.RSRP},
		[4]bool{s.ServingLTE.Valid, s.NeighborLTE.Valid, s.ServingNR.Valid, s.NeighborNR.Valid})
	r.evaluateNow()
	for i, on := range r.enteringNow {
		if on {
			r.heldSteps[i]++
		} else {
			r.heldSteps[i] = 0
		}
	}
}

// evaluateNow evaluates every config's entering condition on the newest
// smoothed values into enteringNow.
func (r *ReportPredictor) evaluateNow() {
	v := r.tracks.views()
	for i := range r.configs {
		cfg := &r.configs[i]
		si, ni := tracksFor(cfg)
		r.enteringNow[i] = entering(cfg, &v[si], &v[ni], 0, 0)
	}
}

// tracksFor returns the indices of the (serving, neighbour) tracks an event
// evaluates.
func tracksFor(cfg *cellular.EventConfig) (serv, neigh int) {
	if cfg.Type == cellular.EventB1 {
		// Inter-RAT: LTE serving vs NR candidate (logged as the NR
		// neighbour when no NR leg is attached).
		return servLTE, neighNR
	}
	if cfg.Tech == cellular.TechNR {
		return servNR, neighNR
	}
	return servLTE, neighLTE
}

// State exports the report predictor's smoothing and condition-tracking
// state for checkpointing: the four signal tracks plus the per-event TTT
// and edge-debounce counters. SetState is the inverse; counter slices are
// truncated or zero-extended to the current event-configuration count.
func (r *ReportPredictor) State() ReportState {
	return ReportState{
		ServLTE:    r.tracks.state(servLTE),
		NeighLTE:   r.tracks.state(neighLTE),
		ServNR:     r.tracks.state(servNR),
		NeighNR:    r.tracks.state(neighNR),
		Held:       append([]int(nil), r.heldSteps...),
		EdgeActive: append([]int(nil), r.edgeActive...),
	}
}

// SetState restores a report-predictor checkpoint exported with State.
func (r *ReportPredictor) SetState(st ReportState) {
	r.tracks.setState(servLTE, st.ServLTE)
	r.tracks.setState(neighLTE, st.NeighLTE)
	r.tracks.setState(servNR, st.ServNR)
	r.tracks.setState(neighNR, st.NeighNR)
	r.heldSteps = make([]int, len(r.configs))
	r.edgeActive = make([]int, len(r.configs))
	copy(r.heldSteps, st.Held)
	copy(r.edgeActive, st.EdgeActive)
	r.evaluateNow()
}

// PredictInto forecasts the measurement reports expected within the
// prediction window, ordered by lead time. Three per-event cases, mirroring
// the UE's measurement engine on smoothed signals:
//
//  1. The condition has held past TTT — the report already fired and sits
//     in the observed phase; nothing new to forecast.
//  2. The condition is holding with TTT still running — the report is
//     forecast to complete in (TTT − held) steps.
//  3. The condition is off — a rising edge is searched in the forecast RRS,
//     and the report is predicted when the edge plus TTT fit the horizon.
//
// Forecasts are appended to out (nil, or a reused scratch slice with
// length 0) so the steady-state prediction path allocates nothing. The
// returned slice is only valid until the caller's next PredictInto call
// with the same backing array.
func (r *ReportPredictor) PredictInto(out []PredictedReport) []PredictedReport {
	v := r.tracks.views()
	r.tracks.fit(&v)
	for i := range r.configs {
		cfg := &r.configs[i]
		si, ni := tracksFor(cfg)
		serv, neigh := &v[si], &v[ni]
		if !serv.valid && cfg.Type != cellular.EventB1 {
			continue
		}
		need := r.steps[i].ttt
		if r.enteringNow[i] {
			r.edgeActive[i] = 0
			if r.heldSteps[i] >= need {
				// Case 1: already reported. If the event re-reports
				// periodically and the condition persists, the repeat is
				// forecast at roughly the report interval.
				if lead := r.steps[i].repeat; lead > 0 {
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
		if !approachSignificant(cfg, serv.slope(), neigh.slope()) {
			r.edgeActive[i] = 0
			continue
		}
		k := risingEdge(cfg, serv, neigh, r.predictionSteps+need, need)
		if k == 0 {
			r.edgeActive[i] = 0
			continue
		}
		r.edgeActive[i]++
		// Debounce flickering edges; silence edges that have failed to
		// materialise within twice the horizon.
		if r.edgeActive[i] >= edgeDebounceTicks && r.edgeActive[i] <= 2*r.predictionSteps {
			out = append(out, PredictedReport{Event: cfg.Type, Tech: cfg.Tech, LeadSteps: k})
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
