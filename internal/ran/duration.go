package ran

import (
	"math/rand"
	"time"

	"repro/internal/cellular"
)

// durSpec is a clamped-normal duration distribution in milliseconds.
type durSpec struct {
	mean, sigma, min, max float64
}

func (d durSpec) sample(rng *rand.Rand) time.Duration {
	v := d.mean + rng.NormFloat64()*d.sigma
	if v < d.min {
		v = d.min
	}
	if v > d.max {
		v = d.max
	}
	return time.Duration(v * float64(time.Millisecond))
}

// Stage duration specifications per HO type, calibrated to the paper's §5.2
// findings:
//
//   - LTE handovers average ~76 ms total, with T1 the smaller share.
//   - NSA handovers average ~167 ms total, with T1 ≈ 41% of the total and
//     T2 1.4–5.4× the LTE execution stage.
//   - SA handovers average ~110 ms with LTE-like median T1 but much higher
//     variance ("technical immaturity").
//   - mmWave execution runs 42–45% longer than low-band (beam management),
//     applied as a multiplier below.
//   - Non-co-located eNB/gNB adds cross-tower latency to NSA preparation
//     (≈13 ms measured end-to-end in Fig. 13).
var (
	t1Spec = map[cellular.HOType]durSpec{
		cellular.HOLTEH: {mean: 31, sigma: 8, min: 10, max: 70},
		cellular.HOMNBH: {mean: 68, sigma: 15, min: 25, max: 130},
		cellular.HOSCGA: {mean: 62, sigma: 14, min: 22, max: 120},
		cellular.HOSCGR: {mean: 52, sigma: 12, min: 20, max: 110},
		cellular.HOSCGM: {mean: 58, sigma: 13, min: 20, max: 115},
		cellular.HOSCGC: {mean: 88, sigma: 18, min: 35, max: 170},
		cellular.HOMCGH: {mean: 35, sigma: 30, min: 8, max: 200},
	}
	t2Spec = map[cellular.HOType]durSpec{
		cellular.HOLTEH: {mean: 45, sigma: 10, min: 18, max: 90},
		cellular.HOMNBH: {mean: 95, sigma: 18, min: 45, max: 170},
		cellular.HOSCGA: {mean: 85, sigma: 16, min: 40, max: 160},
		cellular.HOSCGR: {mean: 72, sigma: 14, min: 35, max: 140},
		cellular.HOSCGM: {mean: 88, sigma: 16, min: 40, max: 160},
		cellular.HOSCGC: {mean: 128, sigma: 24, min: 60, max: 240},
		cellular.HOMCGH: {mean: 75, sigma: 20, min: 30, max: 160},
	}
)

// mmWaveT2Factor lengthens mmWave execution stages (§5.2: +42–45%).
const mmWaveT2Factor = 1.43

// crossTowerT1ExtraMS is the added preparation latency when the eNB and gNB
// involved in an NSA HO are not co-located (§6.3: ≈13 ms end-to-end).
const crossTowerT1ExtraMS = 13

// DurationParams identifies the conditions of one handover for duration
// sampling.
type DurationParams struct {
	// Type is the handover procedure being executed (§5.2's per-type
	// duration profiles).
	Type cellular.HOType
	// Band is the target cell's band; mmWave lengthens execution by
	// mmWaveT2Factor (beam management, §5.2).
	Band      cellular.Band
	CoLocated bool // eNB/gNB co-located (only consulted for NSA 5G types)
}

// SampleDurations draws the preparation (T1) and execution (T2) stage
// durations for a handover.
func SampleDurations(p DurationParams, rng *rand.Rand) (t1, t2 time.Duration) {
	s1, ok := t1Spec[p.Type]
	if !ok {
		s1 = t1Spec[cellular.HOLTEH]
	}
	s2, ok := t2Spec[p.Type]
	if !ok {
		s2 = t2Spec[cellular.HOLTEH]
	}
	t1 = s1.sample(rng)
	t2 = s2.sample(rng)
	if p.Type.Is5G() && !p.CoLocated && p.Type != cellular.HOMCGH {
		t1 += time.Duration(crossTowerT1ExtraMS*(0.8+0.4*rng.Float64())) * time.Millisecond
	}
	if p.Band == cellular.BandMMWave && p.Type.Is5G() {
		t2 = time.Duration(float64(t2) * mmWaveT2Factor)
	}
	return t1, t2
}

// SignalingFor returns the handover-related signalling message counts per
// layer for one procedure (§5.1). NSA procedures carry extra RRC traffic for
// eNB↔gNB coordination; mmWave inflates PHY-layer counts by the beam
// management factor the paper reports (>5× low-band).
func SignalingFor(t cellular.HOType, band cellular.Band, rng *rand.Rand) cellular.SignalingCount {
	jitter := func(n int) int {
		if n <= 1 {
			return n
		}
		return n + rng.Intn(3) - 1
	}
	var c cellular.SignalingCount
	switch t {
	case cellular.HOLTEH:
		c = cellular.SignalingCount{RRC: 3, MAC: 2, PHY: 10}
	case cellular.HOMCGH:
		// Single-RAT handover: no dual-connectivity coordination and a
		// single measurement context keep SA signalling lean.
		c = cellular.SignalingCount{RRC: 3, MAC: 2, PHY: 4}
	case cellular.HOMNBH:
		c = cellular.SignalingCount{RRC: 5, MAC: 2, PHY: 12}
	case cellular.HOSCGA, cellular.HOSCGR:
		c = cellular.SignalingCount{RRC: 4, MAC: 2, PHY: 12}
	case cellular.HOSCGM:
		c = cellular.SignalingCount{RRC: 4, MAC: 2, PHY: 14}
	case cellular.HOSCGC:
		c = cellular.SignalingCount{RRC: 6, MAC: 4, PHY: 16}
	default:
		c = cellular.SignalingCount{}
	}
	if band == cellular.BandMMWave && t.Is5G() {
		c.PHY *= 6 // beam search/track/select procedures
		c.MAC += 2
	}
	return cellular.SignalingCount{RRC: jitter(c.RRC), MAC: jitter(c.MAC), PHY: jitter(c.PHY)}
}
