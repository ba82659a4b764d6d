package core

import (
	"time"

	"repro/internal/cellular"
	"repro/internal/radio"
	"repro/internal/trace"
)

// signalTrack follows one RRS stream (e.g. "serving LTE RSRP"): a
// triangular-kernel smoother to strip fast fading followed by a
// linear-regression forecaster over the history window (§7.2's report
// predictor internals).
type signalTrack struct {
	smoother *radio.TriangularSmoother
	forecast *radio.LinearForecaster
	valid    bool
	last     float64
}

func newSignalTrack(smoothWin, histWin int) signalTrack {
	sm, err := radio.NewTriangularSmoother(smoothWin)
	if err != nil {
		panic("core: " + err.Error())
	}
	fc, err := radio.NewLinearForecaster(histWin)
	if err != nil {
		panic("core: " + err.Error())
	}
	return signalTrack{smoother: sm, forecast: fc}
}

// push feeds one sample (valid=false resets the track, e.g. after the UE
// detaches from the measured cell).
func (t *signalTrack) push(v float64, valid bool) {
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

// trackView freezes one signal track for one pass over the event configs:
// its validity, its smoothed value now and, once fitted, its forecast line.
// A pass reads each track once, so each track is fitted at most once per
// prediction however many configs and look-ahead steps read it.
type trackView struct {
	valid  bool
	last   float64
	fitted bool
	line   radio.Line
}

// current freezes the track's present reading, enough for k = 0.
func (t *signalTrack) current() trackView { return trackView{valid: t.valid, last: t.last} }

// frozen freezes the track together with its fitted forecast line.
func (t *signalTrack) frozen() trackView {
	v := t.current()
	v.line, v.fitted = t.forecast.Line()
	return v
}

// at is the track's value k steps ahead: the smoothed value now for k = 0
// or before the forecaster has a fit, the fitted line's forecast after.
func (v *trackView) at(k int) float64 {
	if k <= 0 || !v.fitted {
		return v.last
	}
	return v.line.At(k)
}

// slope is the fitted slope per step (0 before the forecaster has a fit).
func (v *trackView) slope() float64 { return v.line.B }

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

	// tracks are indexed servLTE, neighLTE, servNR, neighNR.
	tracks [4]signalTrack

	// heldSteps tracks, per config, how many consecutive samples the
	// entering condition has held on the smoothed measurements.
	heldSteps []int
	// edgeActive tracks, per config, how long a rising-edge forecast has
	// been continuously emitted. A forecast claiming an imminent trigger
	// that fails to materialise within twice its own horizon is silenced
	// until the condition forecast clears — otherwise a hovering trend
	// keeps predicting a crossing that never comes.
	edgeActive []int

	// predictionSteps is the look-ahead horizon in samples.
	predictionSteps int
	stepDur         time.Duration
}

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

// enteringMonotone reports whether every track the event reads moves toward
// its trigger or stands still, so that the forecast entering condition can
// only turn from false to true as the look-ahead grows.
func enteringMonotone(cfg *cellular.EventConfig, servSlope, neighSlope float64) bool {
	switch cfg.Type {
	case cellular.EventA1:
		return servSlope >= 0
	case cellular.EventA2:
		return servSlope <= 0
	case cellular.EventA4, cellular.EventB1:
		return neighSlope >= 0
	case cellular.EventA3, cellular.EventA5:
		return servSlope <= 0 && neighSlope >= 0
	default:
		return false
	}
}

// NewReportPredictor creates a report predictor. smoothWin/histWin are in
// samples (the paper uses 1 s windows at 20 Hz); predSteps is the
// prediction window length in samples.
func NewReportPredictor(configs []cellular.EventConfig, smoothWin, histWin, predSteps int, stepDur time.Duration) *ReportPredictor {
	r := &ReportPredictor{
		configs:         configs,
		heldSteps:       make([]int, len(configs)),
		edgeActive:      make([]int, len(configs)),
		predictionSteps: predSteps,
		stepDur:         stepDur,
	}
	for i := range r.tracks {
		r.tracks[i] = newSignalTrack(smoothWin, histWin)
	}
	return r
}

// SetConfigs replaces the sniffed event configurations (after an RRC
// reconfiguration).
func (r *ReportPredictor) SetConfigs(configs []cellular.EventConfig) {
	r.configs = configs
	r.heldSteps = make([]int, len(configs))
	r.edgeActive = make([]int, len(configs))
}

// Observe feeds one 20 Hz cross-layer sample and advances the per-event
// condition trackers.
func (r *ReportPredictor) Observe(s *trace.Sample) {
	r.tracks[servLTE].push(s.ServingLTE.RSRP, s.ServingLTE.Valid)
	r.tracks[neighLTE].push(s.NeighborLTE.RSRP, s.NeighborLTE.Valid)
	r.tracks[servNR].push(s.ServingNR.RSRP, s.ServingNR.Valid)
	r.tracks[neighNR].push(s.NeighborNR.RSRP, s.NeighborNR.Valid)
	var v [4]trackView
	for j := range v {
		v[j] = r.tracks[j].current()
	}
	for i := range r.configs {
		cfg := &r.configs[i]
		si, ni := tracksFor(cfg)
		if entering(cfg, &v[si], &v[ni], 0, 0) {
			r.heldSteps[i]++
		} else {
			r.heldSteps[i] = 0
		}
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

// trackState exports one signal track for checkpointing.
func (t *signalTrack) state() TrackState {
	return TrackState{
		Valid:   t.valid,
		Last:    t.last,
		Smooth:  t.smoother.Samples(),
		History: t.forecast.History(),
	}
}

// setState restores a signal track exported with state.
func (t *signalTrack) setState(st TrackState) {
	t.valid = st.Valid
	t.last = st.Last
	t.smoother.SetSamples(st.Smooth)
	t.forecast.SetHistory(st.History)
}

// State exports the report predictor's smoothing and condition-tracking
// state for checkpointing: the four signal tracks plus the per-event TTT
// and edge-debounce counters. SetState is the inverse; counter slices are
// truncated or zero-extended to the current event-configuration count.
func (r *ReportPredictor) State() ReportState {
	return ReportState{
		ServLTE:    r.tracks[servLTE].state(),
		NeighLTE:   r.tracks[neighLTE].state(),
		ServNR:     r.tracks[servNR].state(),
		NeighNR:    r.tracks[neighNR].state(),
		Held:       append([]int(nil), r.heldSteps...),
		EdgeActive: append([]int(nil), r.edgeActive...),
	}
}

// SetState restores a report-predictor checkpoint exported with State.
func (r *ReportPredictor) SetState(st ReportState) {
	r.tracks[servLTE].setState(st.ServLTE)
	r.tracks[neighLTE].setState(st.NeighLTE)
	r.tracks[servNR].setState(st.ServNR)
	r.tracks[neighNR].setState(st.NeighNR)
	r.heldSteps = make([]int, len(r.configs))
	r.edgeActive = make([]int, len(r.configs))
	copy(r.heldSteps, st.Held)
	copy(r.edgeActive, st.EdgeActive)
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
	tttSteps := func(ttt time.Duration) int {
		st := int(ttt / r.stepDur)
		if st < 1 {
			st = 1
		}
		return st
	}
	var v [4]trackView
	for j := range v {
		v[j] = r.tracks[j].frozen()
	}
	for i := range r.configs {
		cfg := &r.configs[i]
		si, ni := tracksFor(cfg)
		serv, neigh := &v[si], &v[ni]
		if !serv.valid && cfg.Type != cellular.EventB1 {
			continue
		}
		need := tttSteps(cfg.TTT)
		if entering(cfg, serv, neigh, 0, 0) {
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
		if !approachSignificant(cfg, serv.slope(), neigh.slope()) {
			r.edgeActive[i] = 0
			continue
		}
		horizon := r.predictionSteps + need
		// A scan that cannot fire is skipped. When every track the event
		// reads moves toward its trigger or stands still, the forecast
		// condition can only turn on as k grows: each forecast is
		// a + b*(x0+k) on one frozen line, which round-to-nearest keeps
		// monotone in k with or without a fused multiply-add, and so are
		// the margin and Entering's additions and comparisons. An unfitted
		// track forecasts a constant, as does a missing neighbour of A1/A2.
		// If the condition then fails at the horizon it fails at every k,
		// and the scan would end unfired.
		if enteringMonotone(cfg, serv.slope(), neigh.slope()) && !entering(cfg, serv, neigh, horizon, forecastMarginDB) {
			r.edgeActive[i] = 0
			continue
		}
		fired := false
		held := 0
		for k := 1; k <= horizon; k++ {
			if !entering(cfg, serv, neigh, k, forecastMarginDB) {
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
