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

func TestFreeSpaceRefLoss(t *testing.T) {
	// Doubling frequency adds ~6 dB at the reference distance.
	d := FreeSpaceRefLossDB(2e9) - FreeSpaceRefLossDB(1e9)
	if math.Abs(d-6.02) > 0.1 {
		t.Errorf("frequency doubling adds %v dB, want ≈6", d)
	}
}
