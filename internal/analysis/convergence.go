package analysis

import (
	"time"

	"repro/internal/cellular"
	"repro/internal/core"
)

// F1Point is one bucket of a windowed F1 time series: the event-level F1
// of the predictions made during [Start, Start+Bucket), together with the
// number of ground-truth handovers inside the bucket. Buckets with no
// handover carry no convergence signal (F1 is undefined without positive
// events), so consumers filter on Handovers > 0.
type F1Point struct {
	Start     time.Duration
	F1        float64
	Handovers int
}

// F1Series buckets a replay into fixed spans and scores each bucket's
// event-level F1 independently (core.EvaluateEvents semantics, with the
// paper's prediction-window matching). The series is the observable an
// online learner's convergence is read from: early buckets score low while
// patterns are still being learned, the curve climbs as the pattern DB
// fills, and a mid-run policy drift knocks it down until re-learning
// catches up.
func F1Series(ticks []core.TickPrediction, handovers []cellular.HandoverEvent, bucket, window time.Duration) []F1Point {
	if len(ticks) == 0 || bucket <= 0 {
		return nil
	}
	end := ticks[len(ticks)-1].Time
	var out []F1Point
	ti, hi := 0, 0
	for start := ticks[0].Time; start <= end; start += bucket {
		stop := start + bucket
		t0 := ti
		for ti < len(ticks) && ticks[ti].Time < stop {
			ti++
		}
		h0 := hi
		for hi < len(handovers) && handovers[hi].Time < stop {
			hi++
		}
		o := core.EvaluateEvents(ticks[t0:ti], handovers[h0:hi], window)
		out = append(out, F1Point{Start: start, F1: o.F1(), Handovers: hi - h0})
	}
	return out
}

// TimeToThreshold returns how long after `from` the series first sustains
// F1 ≥ threshold, measured to the end of the qualifying bucket (the
// learner has converged once a whole bucket with real handovers scores
// above the bar). Buckets without handovers are skipped — silence is not
// evidence of convergence. The second return is false when the series
// never reaches the threshold after `from`.
func TimeToThreshold(series []F1Point, threshold float64, from time.Duration) (time.Duration, bool) {
	for _, p := range series {
		if p.Start < from || p.Handovers == 0 {
			continue
		}
		if p.F1 >= threshold {
			end := p.Start
			if len(series) > 1 {
				end += series[1].Start - series[0].Start
			}
			return end - from, true
		}
	}
	return 0, false
}

// Floor returns the minimum F1 over buckets carrying at least one handover
// after `from` — the worst sustained prediction quality of the run. The
// second return is false when no bucket after `from` had a handover.
func Floor(series []F1Point, from time.Duration) (float64, bool) {
	found := false
	floor := 0.0
	for _, p := range series {
		if p.Start < from || p.Handovers == 0 {
			continue
		}
		if !found || p.F1 < floor {
			floor = p.F1
			found = true
		}
	}
	return floor, found
}

// Tail returns the mean F1 of the last n handover-carrying buckets — the
// converged end-state quality of the run (n is clamped to what exists).
func Tail(series []F1Point, n int) (float64, bool) {
	var vals []float64
	for _, p := range series {
		if p.Handovers > 0 {
			vals = append(vals, p.F1)
		}
	}
	if len(vals) == 0 {
		return 0, false
	}
	if n > len(vals) {
		n = len(vals)
	}
	sum := 0.0
	for _, v := range vals[len(vals)-n:] {
		sum += v
	}
	return sum / float64(n), true
}
