package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestTracksMatchReference holds the four-track kernel to four reference
// tracks (a TriangularSmoother feeding a LinearForecaster, each over a
// ring of its own) for every smoother window from 1 to 12 and history
// window from 2 to 40. The tracks fill, run through several wraps, reset
// one at a time on invalid samples, and are restored from states of every
// length (empty, short, a full window, longer than it) at every head offset
// of the shared ring. After every step each track's smoothed value, fitted
// line and exported state must match the reference bit for bit (any NaN
// matching any NaN). Samples mix RSRP-scale values with large magnitudes,
// ±Inf and NaN.
func TestTracksMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sample := func() float64 {
		switch rng.Intn(300) {
		case 0:
			return math.Inf(1)
		case 1:
			return math.Inf(-1)
		case 2:
			return math.NaN()
		}
		v := -140 + 100*rng.Float64()
		if rng.Intn(8) == 0 {
			v *= 1e7 * rng.Float64()
		}
		return v
	}
	for sw := 1; sw <= 12; sw++ {
		for hw := 2; hw <= 40; hw++ {
			k := newTracks(sw, hw)
			var ref [4]refTrack
			for i := range ref {
				ref[i] = newRefTrack(sw, hw)
			}
			check := func(what string) {
				t.Helper()
				v := k.views()
				k.fit(&v)
				for i := range ref {
					if v[i].valid != ref[i].valid || !sameValue(v[i].last, ref[i].last) {
						t.Fatalf("windows %d/%d %s track %d: smoothed (%v, %v), reference (%v, %v)",
							sw, hw, what, i, v[i].valid, v[i].last, ref[i].valid, ref[i].last)
					}
					l, ok := ref[i].forecast.Line()
					if v[i].fitted != ok || !sameValue(v[i].a, l.A) || !sameValue(v[i].b, l.B) || !sameValue(v[i].x0, l.X0) {
						t.Fatalf("windows %d/%d %s track %d: line %v (%v, %v, %v), reference %v %+v",
							sw, hw, what, i, v[i].fitted, v[i].a, v[i].b, v[i].x0, ok, l)
					}
					got, want := k.state(i), ref[i].state()
					if got.Valid != want.Valid || !sameValue(got.Last, want.Last) ||
						!slices.EqualFunc(got.Smooth, want.Smooth, sameValue) ||
						!slices.EqualFunc(got.History, want.History, sameValue) {
						t.Fatalf("windows %d/%d %s track %d: state %+v, reference %+v", sw, hw, what, i, got, want)
					}
				}
			}
			push := func(what string, resetEvery int) {
				var v [4]float64
				var ok [4]bool
				for i := range v {
					v[i], ok[i] = sample(), resetEvery == 0 || rng.Intn(resetEvery) != 0
				}
				k.push(v, ok)
				for i := range ref {
					ref[i].push(v[i], ok[i])
				}
				check(what)
			}
			for range 3 * k.n {
				push("filling", 0)
			}
			for range 3 * k.n {
				push("resetting", 12)
			}
			// A state of every length, restored once at each head offset:
			// one push per restore moves the head by one.
			for off := range k.n {
				var st [4]TrackState
				for i := range st {
					st[i] = ref[i].state()
					st[i].Smooth = restoredWindow(rng, st[i].Smooth, sw)
					st[i].History = restoredWindow(rng, st[i].History, hw)
					k.setState(i, st[i])
					ref[i].setState(st[i])
				}
				check("restored")
				resetEvery := 0
				if off%4 == 3 {
					resetEvery = 4
				}
				push("after restore", resetEvery)
			}
		}
	}
}

// restoredWindow returns a window of a state to restore: vs cut to its
// newest m samples for a random m in [0, len(vs)], or vs behind extra
// older samples that push it past the window win.
func restoredWindow(rng *rand.Rand, vs []float64, win int) []float64 {
	if rng.Intn(4) == 0 {
		extra := make([]float64, 1+rng.Intn(win))
		for i := range extra {
			extra[i] = -200 + float64(i)
		}
		return append(extra, vs...)
	}
	return vs[rng.Intn(len(vs)+1):]
}

func TestTriangularSmootherConstantSignal(t *testing.T) {
	s, err := NewTriangularSmoother(5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got := s.Push(-90); math.Abs(got+90) > 1e-9 {
			t.Fatalf("constant signal smoothed to %v", got)
		}
	}
}

func TestTriangularSmootherWeightsRecent(t *testing.T) {
	s, _ := NewTriangularSmoother(4)
	for _, v := range []float64{0, 0, 0, 10} {
		s.Push(v)
	}
	// Weighted mean with weights 1,2,3,4 → 40/10 = 4, above the plain mean
	// of 2.5: recent samples dominate.
	if got := s.Value(); math.Abs(got-4) > 1e-9 {
		t.Errorf("Value = %v, want 4", got)
	}
}

func TestTriangularSmootherBounds(t *testing.T) {
	// Smoothed output must stay within the min/max of the window.
	rng := rand.New(rand.NewSource(2))
	s, _ := NewTriangularSmoother(8)
	var win []float64
	for i := 0; i < 200; i++ {
		v := rng.NormFloat64() * 10
		win = append(win, v)
		if len(win) > 8 {
			win = win[1:]
		}
		got := s.Push(v)
		lo, hi := win[0], win[0]
		for _, w := range win {
			if w < lo {
				lo = w
			}
			if w > hi {
				hi = w
			}
		}
		if got < lo-1e-9 || got > hi+1e-9 {
			t.Fatalf("smoothed %v outside window [%v, %v]", got, lo, hi)
		}
	}
}

func TestSmootherValidation(t *testing.T) {
	if _, err := NewTriangularSmoother(0); err == nil {
		t.Error("zero window accepted")
	}
	s, _ := NewTriangularSmoother(3)
	if s.Value() != 0 {
		t.Error("empty smoother value")
	}
	s.Push(5)
	s.Reset()
	if s.Value() != 0 {
		t.Error("reset did not clear")
	}
	s.SetSamples([]float64{1, 2, 3, 4, 5})
	if got := s.Samples(); len(got) != 3 || got[0] != 3 {
		t.Errorf("a 3-sample window kept %v", got)
	}
}

func TestLinearForecasterExactLine(t *testing.T) {
	f, err := NewLinearForecaster(10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		f.Push(float64(i) * 2)
	}
	// Perfect line: forecast k steps ahead continues it.
	for k := 1; k <= 5; k++ {
		want := float64(9+k) * 2
		if got := f.Forecast(k); math.Abs(got-want) > 1e-9 {
			t.Errorf("Forecast(%d) = %v, want %v", k, got, want)
		}
	}
	if math.Abs(f.Slope()-2) > 1e-9 {
		t.Errorf("Slope = %v", f.Slope())
	}
}

func TestLinearForecasterEdgeCases(t *testing.T) {
	if _, err := NewLinearForecaster(1); err == nil {
		t.Error("window 1 accepted")
	}
	f, _ := NewLinearForecaster(5)
	if f.Forecast(3) != 0 {
		t.Error("empty forecaster should return 0")
	}
	f.Push(7)
	if f.Forecast(3) != 7 {
		t.Error("single-sample forecast should repeat the sample")
	}
	if f.Ready() {
		t.Error("not ready with one sample")
	}
	f.Push(7)
	if !f.Ready() {
		t.Error("ready with two samples")
	}
	f.Reset()
	if f.Ready() {
		t.Error("reset did not clear")
	}
}

func TestLinearForecasterConstant(t *testing.T) {
	f, _ := NewLinearForecaster(8)
	for i := 0; i < 20; i++ {
		f.Push(-95)
	}
	if got := f.Forecast(10); math.Abs(got+95) > 1e-9 {
		t.Errorf("constant forecast = %v", got)
	}
}

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

// sameValue is sameBits except that any two NaNs match. A NaN's payload is
// no part of the contract: every comparison reads a NaN as false whatever
// its bits, a checkpoint cannot encode one, and which operand's payload an
// addition of two NaNs keeps depends on the order the compiler gives the
// operands.
func sameValue(a, b float64) bool { return sameBits(a, b) || a != a && b != b }

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
