package core

import (
	"time"

	"repro/internal/cellular"
	"repro/internal/trace"
)

// Predictor is the interface shared by Prognos and the comparison
// approaches (§7.3): an online consumer of the cross-layer stream that can
// be asked, at any time, for the next prediction window's HO forecast.
type Predictor interface {
	// OnSample feeds one 20 Hz radio sample.
	OnSample(trace.Sample)
	// OnReport feeds one RRC measurement report.
	OnReport(cellular.MeasurementReport)
	// OnHandover feeds one executed handover command.
	OnHandover(cellular.HandoverEvent)
	// Predict forecasts the next prediction window.
	Predict() Prediction
}

// TickPrediction is one per-sample prediction during a replay.
type TickPrediction struct {
	// Time is the radio sample's timestamp (20 Hz grid).
	Time time.Duration
	// Type is the handover type predicted for the prediction window
	// standing at Time (HONone when no handover is expected).
	Type cellular.HOType
	// PatternKey identifies the matched pattern (diagnostics).
	PatternKey string
}

// Replay feeds a trace through a predictor in time order, recording the
// prediction at every sample tick. This is the paper's trace-driven
// emulation (§7.3).
func Replay(p Predictor, log *trace.Log) []TickPrediction {
	out := make([]TickPrediction, 0, len(log.Samples))
	ri, hi := 0, 0
	for i := range log.Samples {
		s := &log.Samples[i]
		// Deliver control-plane events up to this sample's time.
		for ri < len(log.Reports) && log.Reports[ri].Time <= s.Time {
			p.OnReport(log.Reports[ri])
			ri++
		}
		for hi < len(log.Handovers) && log.Handovers[hi].Time <= s.Time {
			p.OnHandover(log.Handovers[hi])
			hi++
		}
		p.OnSample(*s)
		pred := p.Predict()
		out = append(out, TickPrediction{Time: s.Time, Type: pred.Type, PatternKey: pred.PatternKey})
	}
	return out
}

// WindowLabel is the ground truth vs prediction for one evaluation window.
type WindowLabel struct {
	// Start is the window's opening instant.
	Start time.Duration
	// Truth is the first handover command inside the window (HONone when
	// the window is quiet); Pred is the prediction standing at Start.
	Truth cellular.HOType
	Pred  cellular.HOType
}

// Windows discretises per-tick predictions into fixed windows: the
// prediction for a window is the one standing at its first tick; the truth
// is the first handover command falling inside the window (HONone
// otherwise). This matches the paper's 1 s prediction-window evaluation
// with class-imbalance-aware metrics.
func Windows(ticks []TickPrediction, handovers []cellular.HandoverEvent, window time.Duration) []WindowLabel {
	if len(ticks) == 0 {
		return nil
	}
	var out []WindowLabel
	end := ticks[len(ticks)-1].Time
	hi := 0
	ti := 0
	for start := ticks[0].Time; start <= end; start += window {
		// Prediction standing at the window's first tick.
		for ti+1 < len(ticks) && ticks[ti+1].Time <= start {
			ti++
		}
		pred := ticks[ti].Type
		truth := cellular.HONone
		for hi < len(handovers) && handovers[hi].Time < start {
			hi++
		}
		if hi < len(handovers) && handovers[hi].Time < start+window {
			truth = handovers[hi].Type
		}
		out = append(out, WindowLabel{Start: start, Truth: truth, Pred: pred})
	}
	return out
}

// EventOutcome tallies event-level prediction outcomes: each handover is a
// positive event; each maximal run of identical positive predictions is one
// prediction event.
type EventOutcome struct {
	// TP, FP and FN are the event-level tallies behind the §7.3 metrics:
	// a handover predicted with the right type in time is a TP, a
	// prediction event no handover fulfils is an FP, and a handover no
	// prediction covered is an FN.
	TP, FP, FN int
	// WindowsTotal / WindowsCorrect give the window-level accuracy the
	// paper reports alongside F1 (dominated by true negatives).
	WindowsTotal   int
	WindowsCorrect int
}

// Precision returns TP/(TP+FP); 0 when undefined.
func (e EventOutcome) Precision() float64 {
	if e.TP+e.FP == 0 {
		return 0
	}
	return float64(e.TP) / float64(e.TP+e.FP)
}

// Recall returns TP/(TP+FN); 0 when undefined.
func (e EventOutcome) Recall() float64 {
	if e.TP+e.FN == 0 {
		return 0
	}
	return float64(e.TP) / float64(e.TP+e.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (e EventOutcome) F1() float64 {
	p, r := e.Precision(), e.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Accuracy returns the window-level accuracy.
func (e EventOutcome) Accuracy() float64 {
	if e.WindowsTotal == 0 {
		return 0
	}
	return float64(e.WindowsCorrect) / float64(e.WindowsTotal)
}

// predRun is one maximal run of identical positive predictions.
type predRun struct {
	typ        cellular.HOType
	start, end time.Duration
	matched    bool
}

// EvaluateEvents performs event-level matching with the paper's 1 s
// prediction-window semantics: a handover counts as predicted (TP) when a
// prediction run of its type covers any instant in the window preceding it
// (run start ≤ HO time ≤ run end + window); prediction runs matching no
// handover are false positives; unpredicted handovers are false negatives.
// Window-level accuracy is computed over fixed windows as in Windows.
func EvaluateEvents(ticks []TickPrediction, handovers []cellular.HandoverEvent, window time.Duration) EventOutcome {
	var out EventOutcome
	// Build prediction runs.
	var runs []predRun
	for i := 0; i < len(ticks); {
		if ticks[i].Type == cellular.HONone {
			i++
			continue
		}
		j := i
		for j+1 < len(ticks) && ticks[j+1].Type == ticks[i].Type {
			j++
		}
		runs = append(runs, predRun{typ: ticks[i].Type, start: ticks[i].Time, end: ticks[j].Time})
		i = j + 1
	}
	// Match each handover to a covering run of its type.
	ri := 0
	for _, ho := range handovers {
		if ho.Type == cellular.HONone {
			continue
		}
		for ri < len(runs) && runs[ri].end+window < ho.Time {
			ri++
		}
		matched := false
		for k := ri; k < len(runs) && runs[k].start <= ho.Time; k++ {
			if runs[k].typ == ho.Type && runs[k].end+window >= ho.Time {
				runs[k].matched = true
				matched = true
			}
		}
		if matched {
			out.TP++
		} else {
			out.FN++
		}
	}
	for _, r := range runs {
		if !r.matched {
			out.FP++
		}
	}
	// Window accuracy.
	wins := Windows(ticks, handovers, window)
	out.WindowsTotal = len(wins)
	for _, w := range wins {
		if w.Truth == w.Pred {
			out.WindowsCorrect++
		}
	}
	return out
}

// LeadTime computes, for each handover, how far in advance the predictor
// was continuously forecasting that handover's type (Fig. 18's lead-time
// metric). Handovers never predicted are skipped; the hit flag reports the
// fraction predicted via the returned count.
func LeadTime(ticks []TickPrediction, handovers []cellular.HandoverEvent) []time.Duration {
	var out []time.Duration
	ti := 0
	for _, ho := range handovers {
		// Advance to the last tick before the HO command.
		for ti < len(ticks) && ticks[ti].Time < ho.Time {
			ti++
		}
		last := ti - 1
		if last < 0 {
			continue
		}
		if ticks[last].Type != ho.Type {
			continue
		}
		first := last
		for first-1 >= 0 && ticks[first-1].Type == ho.Type {
			first--
		}
		out = append(out, ho.Time-ticks[first].Time)
	}
	return out
}
