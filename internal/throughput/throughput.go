// Package throughput models the data plane: SINR-driven link capacity per
// technology and band, the handover interruption semantics of NSA 5G
// (§4.2, §5.2), bearer modes (dual vs 5G-only), and an RTT model for the
// TCP experiments of Fig. 7.
package throughput

import (
	"math"
	"math/rand"

	"repro/internal/cellular"
	"repro/internal/radio"
)

// Channel bandwidth (MHz) per technology/band, representative of the
// carriers' deployments: mmWave aggregates several 100 MHz carriers, NR mid
// uses 60-100 MHz, NR low 10-20 MHz, LTE 15-20 MHz.
func channelMHz(tech cellular.Tech, band cellular.Band) float64 {
	if tech == cellular.TechLTE {
		switch band {
		case cellular.BandLow:
			return 10
		default:
			return 20
		}
	}
	switch band {
	case cellular.BandLow:
		return 20
	case cellular.BandMid:
		return 90
	case cellular.BandMMWave:
		return 400
	default:
		return 20
	}
}

// maxSpectralEff caps the Shannon curve at a practical MIMO-aggregate
// spectral efficiency (bps/Hz).
func maxSpectralEff(tech cellular.Tech, band cellular.Band) float64 {
	if tech == cellular.TechLTE {
		return 5.5
	}
	if band == cellular.BandMMWave {
		return 7.0
	}
	return 7.8
}

// CapacityMbps maps SINR (dB) to achievable downlink throughput (Mbps) for
// one cell, using a capped Shannon bound with a 75% implementation
// efficiency. At the paper's operating points this yields ≈2-3 Gbps mmWave,
// ≈900 Mbps mid-band, ≈250 Mbps low-band NR, and ≈100-150 Mbps LTE peaks.
func CapacityMbps(tech cellular.Tech, band cellular.Band, sinrDB float64) float64 {
	if sinrDB < -10 {
		return 0
	}
	lin := radio.DBToLinear(sinrDB)
	eff := math.Log2(1 + lin)
	if m := maxSpectralEff(tech, band); eff > m {
		eff = m
	}
	const implEff = 0.75
	return channelMHz(tech, band) * eff * implEff
}

// BearerMode selects how NSA splits user traffic between the LTE and NR
// radio legs (§4.2).
type BearerMode int

// NSA bearer modes.
const (
	// ModeSCG sends all user data on the 5G leg ("5G-only mode", SCG
	// bearer). The LTE leg carries control only.
	ModeSCG BearerMode = iota
	// ModeSplit splits traffic across both legs ("dual mode", MCG split
	// bearer). The 4G leg keeps flowing during 5G-NR handovers.
	ModeSplit
	// ModeSplitDirect is the paper's §4.2 proposal: a split bearer whose 5G
	// data takes the direct core→gNB path instead of detouring through the
	// eNB — 5G-only-mode latency and throughput with dual-mode resilience
	// to 5G-NR interruptions. Implemented here as the future-work
	// extension.
	ModeSplitDirect
)

// String names the bearer mode as the paper does.
func (m BearerMode) String() string {
	switch m {
	case ModeSplit:
		return "dual"
	case ModeSplitDirect:
		return "dual-direct"
	default:
		return "5G-only"
	}
}

// Interruption describes which radio legs are halted during a handover's
// execution stage (§5.2 footnote: "5G HOs do not affect the 4G/LTE data
// plane, however, 4G HOs interrupt data activity on 5G radio as well").
type Interruption struct {
	LTE bool
	NR  bool
}

// InterruptionFor returns the data-plane interruption of a handover type.
func InterruptionFor(t cellular.HOType) Interruption {
	switch t {
	case cellular.HOLTEH, cellular.HOMNBH:
		return Interruption{LTE: true, NR: true}
	case cellular.HOSCGA, cellular.HOSCGR, cellular.HOSCGM, cellular.HOSCGC:
		return Interruption{LTE: false, NR: true}
	case cellular.HOMCGH:
		return Interruption{NR: true}
	default:
		return Interruption{}
	}
}

// Effective returns the throughput delivered to the application given the
// per-leg capacities, the bearer mode, and any active interruption.
// In dual mode the split bearer keeps the LTE leg alive through 5G
// interruptions; in 5G-only mode an NR interruption stalls the flow.
func Effective(mode BearerMode, lteMbps, nrMbps float64, intr Interruption, nrAttached bool) float64 {
	switch {
	case !nrAttached:
		if intr.LTE {
			return 0
		}
		return lteMbps
	case mode == ModeSplit, mode == ModeSplitDirect:
		total := 0.0
		if !intr.LTE {
			total += lteMbps
		}
		if !intr.NR {
			nr := nrMbps
			if mode == ModeSplit {
				// Split-bearer forwarding via the eNB shaves a little off
				// the NR leg (§4.2: dual mode is slower without HOs); the
				// direct variant avoids the detour.
				nr *= 0.92
			}
			total += nr
		}
		return total
	default: // ModeSCG
		if intr.NR {
			return 0
		}
		return nrMbps
	}
}

// RTTModel produces round-trip-time samples for the Fig. 7 TCP experiment.
// Base RTTs reflect the paper's observation that 5G-only mode has lower RTT
// without handovers (data goes core→gNB directly) while dual mode routes 5G
// data via the eNB.
type RTTModel struct {
	rng *rand.Rand
}

// NewRTTModel creates an RTT model using rng.
func NewRTTModel(rng *rand.Rand) *RTTModel { return &RTTModel{rng: rng} }

// Base RTT medians (ms).
const (
	rttSCGBase   = 30.0
	rttSplitBase = 42.0
)

// Sample returns one RTT observation (ms) under the given bearer mode and
// handover condition. hoType is HONone outside handover windows.
func (m *RTTModel) Sample(mode BearerMode, hoType cellular.HOType) float64 {
	base := rttSCGBase
	if mode == ModeSplit {
		// Dual mode routes 5G data core→eNB→gNB.
		base = rttSplitBase
	}
	// ModeSplitDirect keeps the direct core→gNB path: 5G-only base RTT.
	// Log-normal-ish jitter around the median.
	v := base * math.Exp(m.rng.NormFloat64()*0.12)
	if hoType == cellular.HONone {
		return v
	}
	intr := InterruptionFor(hoType)
	split := mode == ModeSplit || mode == ModeSplitDirect
	switch {
	case split && !intr.LTE:
		// Dual modes absorb 5G-NR interruptions: only a 1-4% median shift.
		v *= 1.02 + 0.02*m.rng.Float64()
	case split && intr.LTE:
		// Anchor HOs stall both legs.
		v *= 1.5 + 0.6*m.rng.Float64()
	default:
		// 5G-only mode: HO inflates RTT by 37-58% in the median, with a
		// heavy tail from retransmissions queued behind the interruption.
		v *= 1.30 + 0.15*m.rng.Float64() + math.Abs(m.rng.NormFloat64())*0.12
	}
	return v
}
