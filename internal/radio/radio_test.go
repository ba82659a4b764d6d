package radio

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cellular"
)

func TestPathLossMonotoneInDistance(t *testing.T) {
	m := DefaultModel()
	f := func(a, b float64) bool {
		da := 1 + math.Abs(a)
		db := 1 + math.Abs(b)
		if da > db {
			da, db = db, da
		}
		return m.PathLossDB(cellular.BandMid, da) <= m.PathLossDB(cellular.BandMid, db)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPathLossOrderedByFrequency(t *testing.T) {
	m := DefaultModel()
	for _, d := range []float64{10, 100, 1000, 5000} {
		low := m.PathLossDB(cellular.BandLow, d)
		mid := m.PathLossDB(cellular.BandMid, d)
		mmw := m.PathLossDB(cellular.BandMMWave, d)
		if !(low < mid && mid < mmw) {
			t.Errorf("d=%v: path loss ordering violated: low=%v mid=%v mmWave=%v", d, low, mid, mmw)
		}
	}
}

func TestPathLossClampsReference(t *testing.T) {
	m := DefaultModel()
	if m.PathLossDB(cellular.BandLow, 0.1) != m.PathLossDB(cellular.BandLow, 1) {
		t.Error("sub-reference distances must clamp to d0")
	}
}

func TestMedianRSRPDecreases(t *testing.T) {
	m := DefaultModel()
	near := m.MedianRSRP(cellular.BandLow, 25, 100)
	far := m.MedianRSRP(cellular.BandLow, 25, 2000)
	if near <= far {
		t.Errorf("RSRP near (%v) must exceed far (%v)", near, far)
	}
}

func TestShadowFieldCorrelation(t *testing.T) {
	m := DefaultModel()
	rng := rand.New(rand.NewSource(5))
	f := m.NewShadowField(rng, &ShadowStep{})
	v0 := f.At(0)
	v1 := f.At(1) // 1 m later: highly correlated
	if math.Abs(v1-v0) > 3*m.ShadowSigmaDB/2 {
		t.Errorf("shadowing jumped %v dB over 1 m", v1-v0)
	}
	// After many decorrelation distances, variance should look like the
	// configured sigma.
	var vals []float64
	pos := 1.0
	for i := 0; i < 2000; i++ {
		pos += m.ShadowCorrDistM * 3
		vals = append(vals, f.At(pos))
	}
	mean, sd := meanStd(vals)
	if math.Abs(mean) > 0.5 {
		t.Errorf("shadow mean %v, want ≈0", mean)
	}
	if sd < m.ShadowSigmaDB*0.8 || sd > m.ShadowSigmaDB*1.2 {
		t.Errorf("shadow stddev %v, want ≈%v", sd, m.ShadowSigmaDB)
	}
}

func meanStd(xs []float64) (float64, float64) {
	m := 0.0
	for _, x := range xs {
		m += x
	}
	m /= float64(len(xs))
	v := 0.0
	for _, x := range xs {
		v += (x - m) * (x - m)
	}
	return m, math.Sqrt(v / float64(len(xs)-1))
}

func TestSINRWithInterferers(t *testing.T) {
	m := DefaultModel()
	clean := m.SINR(-80, nil)
	dirty := m.SINR(-80, []float64{-85, -90})
	if clean <= dirty {
		t.Errorf("interference must reduce SINR: clean=%v dirty=%v", clean, dirty)
	}
	// With no interferers, SINR = RSRP - noise floor.
	if math.Abs(clean-(-80-m.NoiseFloorDBm)) > 1e-9 {
		t.Errorf("noise-limited SINR = %v", clean)
	}
}

func TestRSRQBounds(t *testing.T) {
	f := func(rsrp float64, interferers int) bool {
		if interferers < 0 {
			interferers = -interferers
		}
		q := RSRQFromRSRP(rsrp, interferers%20)
		return q >= -19.5 && q <= -3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
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

func TestFreeSpaceRefLoss(t *testing.T) {
	// Doubling frequency adds ~6 dB at the reference distance.
	d := FreeSpaceRefLossDB(2e9) - FreeSpaceRefLossDB(1e9)
	if math.Abs(d-6.02) > 0.1 {
		t.Errorf("frequency doubling adds %v dB, want ≈6", d)
	}
}
