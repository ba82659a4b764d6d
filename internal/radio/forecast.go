package radio

import "fmt"

// LinearForecaster predicts future signal strength by ordinary least squares
// over a sliding history window, exactly the "light-weight linear regression
// model" Prognos' report predictor uses to forecast the serving and
// neighbour RRS in the next prediction window (§7.2).
//
// Samples are pushed at a fixed rate; Forecast(k) extrapolates k steps ahead
// of the most recent sample.
type LinearForecaster struct {
	hist ring
}

// Line is a least-squares line fitted over a forecaster's history, with
// x = 0 at the oldest retained sample.
type Line struct {
	A, B float64 // intercept and slope per step
	X0   float64 // x of the newest sample
}

// At extrapolates k steps beyond the newest sample. It is the one
// expression every forecast is computed by.
func (l Line) At(k int) float64 { return l.A + l.B*(l.X0+float64(k)) }

// NewLinearForecaster creates a forecaster with the given history window
// (number of samples). Window must be at least 2 so a slope is defined.
func NewLinearForecaster(window int) (*LinearForecaster, error) {
	if window < 2 {
		return nil, fmt.Errorf("radio: forecaster window must be >= 2, got %d", window)
	}
	return &LinearForecaster{hist: newRing(window)}, nil
}

// Push appends one sample to the history window.
func (f *LinearForecaster) Push(v float64) { f.hist.push(v) }

// Ready reports whether enough history has accumulated to fit a slope.
func (f *LinearForecaster) Ready() bool { return f.hist.filled >= 2 }

// Line fits the least-squares line through the history; ok is false until
// Ready. Each call refits, so a caller evaluating many forecasts from one
// history fits once and keeps the Line.
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

// History returns the retained window contents oldest-first, for state
// checkpointing. An empty slice means the forecaster is empty.
func (f *LinearForecaster) History() []float64 { return f.hist.contents() }

// SetHistory replaces the history window with vs (oldest-first), the
// inverse of History. When vs is longer than the window only the newest
// window-many samples are kept.
func (f *LinearForecaster) SetHistory(vs []float64) { f.hist.load(vs) }
