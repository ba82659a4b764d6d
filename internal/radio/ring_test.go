package radio

import (
	"math"
	"math/rand"
	"testing"
)

// moduloRing is the ring the smoother and forecaster summed over before
// their two-run loops: one % per element, every sum accumulated in a loop.
// It is kept as the bit-exactness reference for both.
type moduloRing struct {
	window       int
	buf          []float64
	head, filled int
}

func (r *moduloRing) push(v float64) {
	r.buf[r.head] = v
	r.head = (r.head + 1) % r.window
	if r.filled < r.window {
		r.filled++
	}
}

func (r *moduloRing) reset() { r.head, r.filled = 0, 0 }

func (r *moduloRing) smoothed() float64 {
	if r.filled == 0 {
		return 0
	}
	start := r.head - r.filled
	if start < 0 {
		start += r.window
	}
	num, den := 0.0, 0.0
	for i := 0; i < r.filled; i++ {
		idx := (start + i) % r.window
		w := float64(i + 1)
		num += w * r.buf[idx]
		den += w
	}
	return num / den
}

func (r *moduloRing) fit() (a, b float64) {
	n := float64(r.filled)
	start := r.head - r.filled
	if start < 0 {
		start += r.window
	}
	var sx, sy, sxx, sxy float64
	for i := 0; i < r.filled; i++ {
		x := float64(i)
		y := r.buf[(start+i)%r.window]
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return sy / n, 0
	}
	b = (n*sxy - sx*sy) / den
	a = (sy - b*sx) / n
	return a, b
}

func (r *moduloRing) forecast(k int) float64 {
	switch r.filled {
	case 0:
		return 0
	case 1:
		return r.buf[(r.head-1+r.window)%r.window]
	}
	a, b := r.fit()
	x := float64(r.filled-1) + float64(k)
	return a + b*x
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestRingSumsMatchModuloReference pins the smoother's Value and the
// forecaster's fit, Forecast and Slope bit for bit to the %-indexed
// reference, for every window from 1 to 64, through several ring wraps, a
// Reset and a SetHistory/SetSamples round trip. Samples mix RSRP-scale
// values with large magnitudes, so any change to summation order would show.
func TestRingSumsMatchModuloReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sample := func() float64 {
		v := -140 + 100*rng.Float64()
		if rng.Intn(8) == 0 {
			v *= 1e7 * rng.Float64()
		}
		return v
	}
	for w := 1; w <= 64; w++ {
		sm, err := NewTriangularSmoother(w)
		if err != nil {
			t.Fatal(err)
		}
		var fc *LinearForecaster
		if w >= 2 {
			if fc, err = NewLinearForecaster(w); err != nil {
				t.Fatal(err)
			}
		}
		ref := &moduloRing{window: w, buf: make([]float64, w)}
		check := func(step int) {
			if got, want := sm.Value(), ref.smoothed(); !sameBits(got, want) {
				t.Fatalf("window %d step %d: Value %v, reference %v", w, step, got, want)
			}
			if fc == nil {
				return
			}
			if l, ok := fc.Line(); ok {
				a, b := ref.fit()
				if !sameBits(l.A, a) || !sameBits(l.B, b) {
					t.Fatalf("window %d step %d: line (%v, %v), reference (%v, %v)", w, step, l.A, l.B, a, b)
				}
				if !sameBits(fc.Slope(), b) {
					t.Fatalf("window %d step %d: Slope %v, reference %v", w, step, fc.Slope(), b)
				}
			} else if ref.filled >= 2 || fc.Slope() != 0 {
				t.Fatalf("window %d step %d: no line with %d samples", w, step, ref.filled)
			}
			for _, k := range []int{1, 2, 7, 20, 40, 80} {
				if got, want := fc.Forecast(k), ref.forecast(k); !sameBits(got, want) {
					t.Fatalf("window %d step %d: Forecast(%d) %v, reference %v", w, step, k, got, want)
				}
			}
		}
		steps := 3*w + 5
		for step := 0; step < 2*steps; step++ {
			if step == steps {
				sm.Reset()
				ref.reset()
				if fc != nil {
					fc.Reset()
				}
				check(step)
			}
			v := sample()
			if got, want := sm.Push(v), func() float64 { ref.push(v); return ref.smoothed() }(); !sameBits(got, want) {
				t.Fatalf("window %d step %d: Push %v, reference %v", w, step, got, want)
			}
			if fc != nil {
				fc.Push(v)
			}
			check(step)
		}
		// A checkpoint round trip restores the same sums.
		sm2, _ := NewTriangularSmoother(w)
		sm2.SetSamples(sm.Samples())
		if !sameBits(sm2.Value(), sm.Value()) {
			t.Fatalf("window %d: restored Value %v, want %v", w, sm2.Value(), sm.Value())
		}
		if fc != nil {
			fc2, _ := NewLinearForecaster(w)
			fc2.SetHistory(fc.History())
			if !sameBits(fc2.Forecast(5), fc.Forecast(5)) {
				t.Fatalf("window %d: restored Forecast %v, want %v", w, fc2.Forecast(5), fc.Forecast(5))
			}
		}
	}
}
