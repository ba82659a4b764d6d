package energy

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/ran"
)

func mkHO(ty cellular.HOType, band cellular.Band, rng *rand.Rand) cellular.HandoverEvent {
	t1, t2 := ran.SampleDurations(ran.DurationParams{Type: ty, Band: band}, rng)
	return cellular.HandoverEvent{
		Type: ty, Band: band, T1: t1, T2: t2,
		Signaling: ran.SignalingFor(ty, band, rng),
	}
}

func TestUnitConversions(t *testing.T) {
	// 1 mAh at 3.85 V is 13.86 J.
	if got := JoulesToMAh(13.86); math.Abs(got-1) > 1e-9 {
		t.Errorf("13.86 J = %v mAh", got)
	}
}

func TestPowerRatios(t *testing.T) {
	lte := HOPowerW(cellular.HOLTEH, cellular.BandMid)
	low := HOPowerW(cellular.HOSCGC, cellular.BandLow)
	mmw := HOPowerW(cellular.HOSCGC, cellular.BandMMWave)
	// §5.3: NSA HO power 1.2-2.3× LTE.
	if r := low / lte; r < 1.2 || r > 2.3 {
		t.Errorf("NSA/LTE power ratio %v", r)
	}
	// A single mmWave HO is "54% more energy efficient": ~0.65× power.
	if r := mmw / low; r < 0.55 || r > 0.75 {
		t.Errorf("mmWave/low power ratio %v, want ≈0.65", r)
	}
}

func TestEnergyPositiveAndSignalingCoupled(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ho := mkHO(cellular.HOSCGC, cellular.BandLow, rng)
	base := HOEnergyJ(ho)
	if base <= 0 {
		t.Fatal("non-positive HO energy")
	}
	more := ho
	more.Signaling = ho.Signaling.Add(cellular.SignalingCount{PHY: 50})
	if HOEnergyJ(more) <= base {
		t.Error("more signalling must cost more energy (§5.3 correlation)")
	}
}

func TestMMWaveEnergyDespiteLowerPower(t *testing.T) {
	// mmWave HOs draw less power but their longer execution and beam tail
	// cost more energy per HO overall.
	rng := rand.New(rand.NewSource(5))
	var low, mmw float64
	for i := 0; i < 500; i++ {
		low += HOEnergyJ(mkHO(cellular.HOSCGC, cellular.BandLow, rng))
		mmw += HOEnergyJ(mkHO(cellular.HOSCGC, cellular.BandMMWave, rng))
	}
	if mmw <= low {
		t.Errorf("mmWave per-HO energy (%v) should exceed low-band (%v)", mmw, low)
	}
}

func TestSummarize(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var hos []cellular.HandoverEvent
	for i := 0; i < 100; i++ {
		hos = append(hos, mkHO(cellular.HOSCGC, cellular.BandLow, rng))
	}
	d := Summarize(hos, 40)
	if d.Handovers != 100 {
		t.Errorf("Handovers = %d", d.Handovers)
	}
	if d.TotalMAh <= 0 || d.PerKmMAh <= 0 || d.PerHOAvgW <= 0 {
		t.Errorf("drain = %+v", d)
	}
	if math.Abs(d.PerKmMAh-d.TotalMAh/40) > 1e-9 {
		t.Error("per-km inconsistent")
	}
	empty := Summarize(nil, 0)
	if empty.TotalMAh != 0 || empty.PerHOAvgW != 0 || empty.PerKmMAh != 0 {
		t.Errorf("empty drain = %+v", empty)
	}
}

func TestHourlyDrainBallpark(t *testing.T) {
	// §5.3: ≈553 low-band NSA HOs in an hour at 130 km/h drain ≈34.7 mAh;
	// LTE HOs drain ≈3.4 mAh. Check the model lands in the right decade
	// with the paper's own event counts.
	rng := rand.New(rand.NewSource(7))
	var nsa, lte float64
	for i := 0; i < 553; i++ {
		nsa += JoulesToMAh(HOEnergyJ(mkHO(cellular.HOSCGC, cellular.BandLow, rng)))
	}
	for i := 0; i < 217; i++ {
		lte += JoulesToMAh(HOEnergyJ(mkHO(cellular.HOLTEH, cellular.BandMid, rng)))
	}
	if nsa < 15 || nsa > 70 {
		t.Errorf("hourly NSA drain %v mAh, want ≈34.7", nsa)
	}
	if lte < 1 || lte > 8 {
		t.Errorf("hourly LTE drain %v mAh, want ≈3.4", lte)
	}
	if nsa/lte < 5 {
		t.Errorf("NSA/LTE hourly ratio %v, want ≈10", nsa/lte)
	}
}

func TestDataEnergyRatios(t *testing.T) {
	down, up := DataEnergy(cellular.BandLow, 34.7)
	if math.Abs(down-4.3) > 0.01 || math.Abs(up-2.0) > 0.01 {
		t.Errorf("low-band data equivalents: %v GB down, %v GB up", down, up)
	}
	down, _ = DataEnergy(cellular.BandMMWave, 81.7)
	if math.Abs(down-75.4) > 0.01 {
		t.Errorf("mmWave download equivalent %v GB", down)
	}
}

func TestTailDurations(t *testing.T) {
	// The beam-management tail makes the mmWave energy window the longest.
	lte := tailDuration(cellular.HOLTEH, cellular.BandMid)
	low := tailDuration(cellular.HOSCGC, cellular.BandLow)
	mmw := tailDuration(cellular.HOSCGC, cellular.BandMMWave)
	if !(lte < low && low < mmw) {
		t.Errorf("tail ordering: lte=%v low=%v mmw=%v", lte, low, mmw)
	}
	if mmw < 500*time.Millisecond {
		t.Error("mmWave tail too short for its signalling load")
	}
}
