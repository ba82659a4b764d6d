package policygen

import (
	"fmt"
	"time"
)

// AdaptiveSpec is the policy-as-data description of a carrier's
// prediction-driven adaptive handover controls (docs/ARCHITECTURE.md §The
// closed loop; the paper's §7 "predictive preparation" and "skip-ahead"
// extension hooks).
// Like the event tables, it is pure data: internal/ran compiles it into a
// live ran.AdaptiveConfig, and a nil spec means the carrier runs its
// mobility management statically. All three controls are independently
// switchable so ablations can isolate each mechanism.
type AdaptiveSpec struct {
	// EarlyPrep starts handover preparation when a confident prediction of
	// the handover stands before the triggering report fires, crediting the
	// already-elapsed warning time against the preparation stage (T1) and —
	// because the target comes pre-configured, as in conditional handover —
	// part of the execution stage (T2).
	EarlyPrep bool
	// SkipAhead jumps directly to the predicted final cell of a handover
	// chain: SCG target selection picks the strongest adequate cell rather
	// than the first adequate one, eliminating the follow-up intra-band hop
	// the §6.2 "independent release/add legs" behaviour otherwise causes.
	SkipAhead bool
	// AdaptTTT tightens or relaxes the UE's TTT/hysteresis per-UE from
	// recent prediction reliability and observed ping-pong, within the
	// 3GPP-enumerated value sets.
	AdaptTTT bool

	// MinConfidence gates all three controls: a forecast only arms when
	// similarity × pattern reliability reaches this bar.
	MinConfidence float64
	// PrepCapS caps the preparation credit (seconds of standing forecast
	// that count against T1); ExecCredit is the fraction of T2 a fully
	// prepared target saves (0..0.8).
	PrepCapS   float64
	ExecCredit float64

	// RelaxTTTScale / RelaxHysteresisDB are applied per relax step when
	// ping-pong is observed (TTT multiplied, hysteresis added);
	// TightenTTTScale / TightenHysteresisDB when predictions are reliably
	// confirmed and the drive is ping-pong-free.
	RelaxTTTScale       float64
	RelaxHysteresisDB   float64
	TightenTTTScale     float64
	TightenHysteresisDB float64

	// PingPongWindowS is the critical time (seconds) within which an A→B,
	// B→A pair counts as a ping-pong; CalmAfterS how long without one before
	// a relax step is unwound; ReconfMinGapS the minimum spacing between
	// measurement reconfigurations (each reset costs TTT state).
	PingPongWindowS float64
	CalmAfterS      float64
	ReconfMinGapS   float64
}

// DefaultAdaptiveSpec returns the reference adaptive policy: all three
// controls on, with the parameters the holoop gate runs under. Tightening
// is neutral (scale 1, delta 0) by default: ablations showed shrinking TTT
// on reliable forecasts buys little throughput but reliably *adds*
// ping-pongs, defeating the loop's primary goal — opt into it per
// portfolio instead.
func DefaultAdaptiveSpec() AdaptiveSpec {
	return AdaptiveSpec{
		EarlyPrep:           true,
		SkipAhead:           true,
		AdaptTTT:            true,
		MinConfidence:       0.4,
		PrepCapS:            2.0,
		ExecCredit:          0.4,
		RelaxTTTScale:       3.0,
		RelaxHysteresisDB:   2.0,
		TightenTTTScale:     1.0,
		TightenHysteresisDB: 0.0,
		PingPongWindowS:     5.0,
		CalmAfterS:          30.0,
		ReconfMinGapS:       2.0,
	}
}

// Enabled reports whether any control is switched on.
func (s *AdaptiveSpec) Enabled() bool {
	return s != nil && (s.EarlyPrep || s.SkipAhead || s.AdaptTTT)
}

// Validate checks the spec for plausibility: confidences and credits are
// fractions, relax scales relax (≥1), tighten scales tighten (0<x≤1), and
// the timing knobs are non-negative.
func (s *AdaptiveSpec) Validate() error {
	if s == nil {
		return nil
	}
	if s.MinConfidence < 0 || s.MinConfidence > 1 {
		return fmt.Errorf("adaptive: min confidence %.2f outside [0, 1]", s.MinConfidence)
	}
	if s.PrepCapS < 0 {
		return fmt.Errorf("adaptive: negative prep cap")
	}
	if s.ExecCredit < 0 || s.ExecCredit > 0.8 {
		return fmt.Errorf("adaptive: exec credit %.2f outside [0, 0.8]", s.ExecCredit)
	}
	if s.RelaxTTTScale < 1 {
		return fmt.Errorf("adaptive: relax TTT scale %.2f < 1", s.RelaxTTTScale)
	}
	if s.RelaxHysteresisDB < 0 || s.RelaxHysteresisDB > MaxHysteresisDB {
		return fmt.Errorf("adaptive: relax hysteresis %.1f dB outside [0, %.0f]", s.RelaxHysteresisDB, MaxHysteresisDB)
	}
	if s.TightenTTTScale <= 0 || s.TightenTTTScale > 1 {
		return fmt.Errorf("adaptive: tighten TTT scale %.2f outside (0, 1]", s.TightenTTTScale)
	}
	if s.TightenHysteresisDB < 0 || s.TightenHysteresisDB > MaxHysteresisDB {
		return fmt.Errorf("adaptive: tighten hysteresis %.1f dB outside [0, %.0f]", s.TightenHysteresisDB, MaxHysteresisDB)
	}
	if s.PingPongWindowS < 0 || s.CalmAfterS < 0 || s.ReconfMinGapS < 0 {
		return fmt.Errorf("adaptive: negative timing parameter")
	}
	return nil
}

// QuantizeTTT snaps a duration to the nearest 3GPP-enumerated
// time-to-trigger (ties toward the smaller value; out-of-range values clamp
// to the enumeration's ends).
func QuantizeTTT(d time.Duration) time.Duration {
	best := tttSet[0]
	bestDiff := time.Duration(1<<63 - 1)
	for _, v := range tttSet {
		diff := v - d
		if diff < 0 {
			diff = -diff
		}
		if diff < bestDiff {
			bestDiff = diff
			best = v
		}
	}
	return best
}

// ScaleTTT scales a TTT and snaps the result back into the 3GPP
// enumeration, guaranteeing the move is effective: scaling up always lands
// strictly above the input (until the enumeration's top), scaling down
// strictly below it (until 0). A scale of 1 returns the input unchanged.
func ScaleTTT(d time.Duration, scale float64) time.Duration {
	if scale == 1 {
		return d
	}
	q := QuantizeTTT(time.Duration(float64(d) * scale))
	if scale > 1 && q <= d {
		return nextTTTAbove(d)
	}
	if scale < 1 && q >= d {
		return nextTTTBelow(d)
	}
	return q
}

// nextTTTAbove returns the smallest enumerated TTT strictly above d (d
// itself when d is already the top).
func nextTTTAbove(d time.Duration) time.Duration {
	for _, v := range tttSet {
		if v > d {
			return v
		}
	}
	return tttSet[len(tttSet)-1]
}

// nextTTTBelow returns the largest enumerated TTT strictly below d (0 when
// none is).
func nextTTTBelow(d time.Duration) time.Duration {
	out := tttSet[0]
	for _, v := range tttSet {
		if v < d {
			out = v
		}
	}
	return out
}
