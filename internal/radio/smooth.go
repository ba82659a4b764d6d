package radio

import "fmt"

// TriangularSmoother implements the triangular-kernel signal smoothing of
// Long & Sikdar ("A Real-Time Algorithm for Long Range Signal Strength
// Prediction in Wireless Networks"), which Prognos' report predictor uses to
// eliminate variations caused by small-scale fading and measurement noise
// (§7.2).
//
// The smoother maintains a ring of the last W samples and returns the
// triangular-weighted mean, with weights rising linearly toward the most
// recent sample: w_i = i+1 for i = 0..W-1 (oldest to newest).
type TriangularSmoother struct {
	samples ring
}

// NewTriangularSmoother creates a smoother over the given window length.
// Window must be at least 1.
func NewTriangularSmoother(window int) (*TriangularSmoother, error) {
	if window < 1 {
		return nil, fmt.Errorf("radio: smoother window must be >= 1, got %d", window)
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

// Samples returns the retained window contents oldest-first, for state
// checkpointing. An empty slice means the smoother is empty.
func (s *TriangularSmoother) Samples() []float64 { return s.samples.contents() }

// SetSamples replaces the smoother contents with vs (oldest-first), the
// inverse of Samples. When vs is longer than the window only the newest
// window-many samples are kept.
func (s *TriangularSmoother) SetSamples(vs []float64) { s.samples.load(vs) }
