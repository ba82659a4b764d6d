// Package abr implements the adaptive-bitrate stack of §7.4: the
// harmonic-mean throughput predictor, the published rate-adaptation
// algorithms the paper modifies (RB, FESTIVE, fastMPC, robustMPC, and a
// ViVo-style volumetric controller), and chunk-level player simulations
// for 16K panoramic VoD and real-time volumetric streaming over the
// trace-driven link emulator. The players apply Prognos's ho_score to the
// predicted throughput themselves.
package abr

import "math"

// HarmonicMean is the stock predictor used by RB/fastMPC/robustMPC: the
// harmonic mean of the last W chunk throughputs, robust to bursts.
type HarmonicMean struct {
	window int
	buf    []float64
}

// NewHarmonicMean creates the predictor (window default 5).
func NewHarmonicMean(window int) *HarmonicMean {
	if window <= 0 {
		window = 5
	}
	return &HarmonicMean{window: window}
}

// Observe records one throughput sample.
func (h *HarmonicMean) Observe(mbps float64) {
	if mbps <= 0 {
		mbps = 0.01
	}
	h.buf = append(h.buf, mbps)
	if len(h.buf) > h.window {
		h.buf = h.buf[len(h.buf)-h.window:]
	}
}

// Predict returns the harmonic mean of the window (0 before any sample).
func (h *HarmonicMean) Predict() float64 {
	if len(h.buf) == 0 {
		return 0
	}
	inv := 0.0
	for _, v := range h.buf {
		inv += 1 / v
	}
	return float64(len(h.buf)) / inv
}

// ErrorTracker records relative prediction errors for robustMPC's
// discounting.
type ErrorTracker struct {
	window int
	errs   []float64
}

// NewErrorTracker creates a tracker (window default 5).
func NewErrorTracker(window int) *ErrorTracker {
	if window <= 0 {
		window = 5
	}
	return &ErrorTracker{window: window}
}

// Record logs |predicted-actual|/actual for one chunk.
func (e *ErrorTracker) Record(predicted, actual float64) {
	if actual <= 0 {
		return
	}
	err := math.Abs(predicted-actual) / actual
	e.errs = append(e.errs, err)
	if len(e.errs) > e.window {
		e.errs = e.errs[len(e.errs)-e.window:]
	}
}

// MaxError returns the maximum recent relative error (0 with no history).
func (e *ErrorTracker) MaxError() float64 {
	m := 0.0
	for _, v := range e.errs {
		if v > m {
			m = v
		}
	}
	return m
}
