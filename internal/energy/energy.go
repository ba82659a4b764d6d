// Package energy models the UE power cost of handovers (§5.3): per-HO radio
// power, the energy window spanning preparation, execution and the
// post-HO signalling tail, and the positive coupling between signalling
// message count and drained energy the paper reports.
//
// Calibration targets (paper §5.3 / Fig. 10):
//   - NSA HOs consume 1.2-2.3× the power of LTE HOs.
//   - A single mmWave HO draws ~35% less power than a low-band HO ("54%
//     more energy efficient") but its longer beam-management tail makes it
//     cost more energy overall.
//   - One hour at 130 km/h: ≈553 low-band NSA HOs ≈ 34.7 mAh; ≈998 mmWave
//     HOs ≈ 81.7 mAh; LTE ≈ 3.4 mAh.
package energy

import (
	"time"

	"repro/internal/cellular"
)

// NominalBatteryVoltage converts joules to mAh for a typical smartphone
// battery.
const NominalBatteryVoltage = 3.85

// JoulesToMAh converts energy in joules to battery capacity in mAh at the
// nominal voltage.
func JoulesToMAh(j float64) float64 { return j / (NominalBatteryVoltage * 3.6) }

// perMessageJ is the incremental energy of one HO-related signalling
// message; it realises the signalling↔energy correlation of §5.3.
const perMessageJ = 0.002

// HOPowerW returns the mean radio power (W) drawn during the handover
// window for a given technology/band, above the idle baseline.
func HOPowerW(t cellular.HOType, band cellular.Band) float64 {
	switch {
	case t == cellular.HOLTEH && band != cellular.BandMMWave:
		return 0.9
	case t == cellular.HOMCGH:
		return 1.2
	case band == cellular.BandMMWave:
		// mmWave per-HO power is ~0.65× low-band (the paper's "54% more
		// energy efficient" single HO), thanks to the improved PRACH.
		return 1.1
	default:
		return 1.7
	}
}

// tailDuration is the post-execution signalling/measurement tail included
// in the HO energy window. mmWave's beam management stretches it.
func tailDuration(t cellular.HOType, band cellular.Band) time.Duration {
	switch {
	case t == cellular.HOLTEH:
		return 100 * time.Millisecond
	case band == cellular.BandMMWave && t.Is5G():
		return 700 * time.Millisecond
	default:
		return 350 * time.Millisecond
	}
}

// HOEnergyJ returns the total energy (joules) of one handover: window power
// times the T1+T2+tail window, plus the per-message signalling cost.
func HOEnergyJ(ho cellular.HandoverEvent) float64 {
	window := ho.T1 + ho.T2 + tailDuration(ho.Type, ho.Band)
	p := HOPowerW(ho.Type, ho.Band)
	return p*window.Seconds() + perMessageJ*float64(ho.Signaling.Total())
}

// Drain summarises the handover energy cost of a drive.
type Drain struct {
	Handovers int
	TotalJ    float64
	TotalMAh  float64
	// PerHOAvgW is the mean window power across HOs.
	PerHOAvgW float64
	// PerKmMAh is energy per unit distance (0 when distance unknown).
	PerKmMAh float64
}

// Summarize computes the total HO energy drain for a set of handovers over
// the given distance (km; pass 0 if unknown).
func Summarize(hos []cellular.HandoverEvent, distanceKM float64) Drain {
	d := Drain{Handovers: len(hos)}
	var powerSum float64
	for _, ho := range hos {
		d.TotalJ += HOEnergyJ(ho)
		powerSum += HOPowerW(ho.Type, ho.Band)
	}
	d.TotalMAh = JoulesToMAh(d.TotalJ)
	if len(hos) > 0 {
		d.PerHOAvgW = powerSum / float64(len(hos))
	}
	if distanceKM > 0 {
		d.PerKmMAh = d.TotalMAh / distanceKM
	}
	return d
}

// DataEnergy reports how much bulk data (GB) a given battery budget (mAh)
// would move, using the per-byte slopes the paper borrows from Narayanan
// et al. (Table 8 of [54]) to contextualise HO energy: NSA low-band
// download ≈ 4.3 GB per 34.7 mAh; mmWave ≈ 75.4 GB per 81.7 mAh.
func DataEnergy(band cellular.Band, mah float64) (downloadGB, uploadGB float64) {
	switch band {
	case cellular.BandMMWave:
		return mah * (75.4 / 81.7), mah * (14.5 / 81.7)
	default:
		return mah * (4.3 / 34.7), mah * (2.0 / 34.7)
	}
}
