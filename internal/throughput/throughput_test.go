package throughput

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cellular"
)

func TestCapacityOrdering(t *testing.T) {
	// At a healthy SINR, mmWave > mid > low for NR, and NR low > LTE low.
	const sinr = 20.0
	mmw := CapacityMbps(cellular.TechNR, cellular.BandMMWave, sinr)
	mid := CapacityMbps(cellular.TechNR, cellular.BandMid, sinr)
	low := CapacityMbps(cellular.TechNR, cellular.BandLow, sinr)
	lte := CapacityMbps(cellular.TechLTE, cellular.BandMid, sinr)
	if !(mmw > mid && mid > low) {
		t.Errorf("capacity ordering: mmw=%v mid=%v low=%v", mmw, mid, low)
	}
	if low <= lte*0.5 {
		t.Errorf("NR low (%v) should be comparable to LTE (%v)", low, lte)
	}
	// Headline magnitudes (§3's deployments): mmWave in the Gbps range.
	if mmw < 1500 || mmw > 3500 {
		t.Errorf("mmWave peak %v Mbps, want 1.5-3.5 Gbps", mmw)
	}
}

// TestCapacityMonotoneInSINR is a property test.
func TestCapacityMonotoneInSINR(t *testing.T) {
	f := func(a, b float64) bool {
		sa, sb := clampSINR(a), clampSINR(b)
		if sa > sb {
			sa, sb = sb, sa
		}
		return CapacityMbps(cellular.TechNR, cellular.BandMid, sa) <= CapacityMbps(cellular.TechNR, cellular.BandMid, sb)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func clampSINR(v float64) float64 {
	if v != v || v > 60 {
		return 60
	}
	if v < -30 {
		return -30
	}
	return v
}

func TestCapacityFloor(t *testing.T) {
	if CapacityMbps(cellular.TechNR, cellular.BandLow, -15) != 0 {
		t.Error("deep outage must yield zero capacity")
	}
}

func TestInterruptionSemantics(t *testing.T) {
	// §5.2 footnote: 4G HOs interrupt both planes; 5G HOs only the NR leg.
	for _, ty := range []cellular.HOType{cellular.HOLTEH, cellular.HOMNBH} {
		i := InterruptionFor(ty)
		if !i.LTE || !i.NR {
			t.Errorf("%v must interrupt both planes", ty)
		}
	}
	for _, ty := range []cellular.HOType{cellular.HOSCGA, cellular.HOSCGR, cellular.HOSCGM, cellular.HOSCGC} {
		i := InterruptionFor(ty)
		if i.LTE || !i.NR {
			t.Errorf("%v must interrupt only the NR leg", ty)
		}
	}
	if i := InterruptionFor(cellular.HONone); i.LTE || i.NR {
		t.Error("no handover, no interruption")
	}
}

func TestEffectiveBearerModes(t *testing.T) {
	lte, nr := 50.0, 200.0
	// Dual mode sums both legs (with the split-bearer forwarding penalty).
	dual := Effective(ModeSplit, lte, nr, Interruption{}, true)
	if dual <= nr || dual > lte+nr {
		t.Errorf("dual mode throughput %v", dual)
	}
	// 5G-only mode carries only the NR leg.
	if got := Effective(ModeSCG, lte, nr, Interruption{}, true); got != nr {
		t.Errorf("SCG mode = %v", got)
	}
	// During a 5G-NR interruption, dual mode keeps the LTE leg alive.
	if got := Effective(ModeSplit, lte, nr, Interruption{NR: true}, true); got != lte {
		t.Errorf("dual during NR interruption = %v, want %v", got, lte)
	}
	if got := Effective(ModeSCG, lte, nr, Interruption{NR: true}, true); got != 0 {
		t.Errorf("SCG during NR interruption = %v, want 0", got)
	}
	// Without an NR leg, data rides LTE.
	if got := Effective(ModeSCG, lte, 0, Interruption{}, false); got != lte {
		t.Errorf("LTE fallback = %v", got)
	}
	if got := Effective(ModeSCG, lte, 0, Interruption{LTE: true}, false); got != 0 {
		t.Errorf("LTE fallback during anchor HO = %v", got)
	}
}

func TestRTTModelShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewRTTModel(rng)
	median := func(mode BearerMode, ho cellular.HOType) float64 {
		var vals []float64
		for i := 0; i < 4000; i++ {
			vals = append(vals, m.Sample(mode, ho))
		}
		// Median without pulling in the stats package (import cycle-free).
		lo, hi, mid := 0.0, 1000.0, 0.0
		for iter := 0; iter < 50; iter++ {
			mid = (lo + hi) / 2
			n := 0
			for _, v := range vals {
				if v <= mid {
					n++
				}
			}
			if n*2 < len(vals) {
				lo = mid
			} else {
				hi = mid
			}
		}
		return mid
	}
	scgBase := median(ModeSCG, cellular.HONone)
	dualBase := median(ModeSplit, cellular.HONone)
	if scgBase >= dualBase {
		t.Errorf("5G-only base RTT (%v) must be below dual (%v), §4.2", scgBase, dualBase)
	}
	// Dual absorbs 5G HOs (1-4%), 5G-only inflates 37-58%.
	dualHO := median(ModeSplit, cellular.HOSCGM)
	if rel := dualHO/dualBase - 1; rel < -0.02 || rel > 0.10 {
		t.Errorf("dual-mode HO inflation %.1f%%, want ≈1-4%%", rel*100)
	}
	scgHO := median(ModeSCG, cellular.HOSCGM)
	if rel := scgHO/scgBase - 1; rel < 0.25 || rel > 0.80 {
		t.Errorf("5G-only HO inflation %.1f%%, want ≈37-58%%", rel*100)
	}
}
