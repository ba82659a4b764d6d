// Package policygen turns carrier handover policy into data: a Portfolio
// bundles everything that makes one operator's mobility management unique —
// the measurement-event tables pushed to UEs (thresholds, TTT, hysteresis,
// report cadence), the MR sequence its decision logic keys on, the
// architectures it offers, and its deployment strategy (band portfolio,
// co-location fraction). internal/ran constructs its rule engine and event
// configurations from a Portfolio instead of hard-coded tables, so the
// three named carriers of the paper and hundreds of generated synthetic
// ones run through the same machinery.
//
// The Generator samples randomized-but-plausible portfolios from the
// parameter spreads reported for operational networks ("Handover
// Configurations in Operational 5G Networks: Diversity, Evolution, and
// Impact on Performance", PAPERS.md): every threshold, TTT and hysteresis
// lands inside 3GPP-enumerated value sets, and every sampled portfolio is
// self-consistent (A5 thresholds ordered, an inter-RAT event present
// whenever NSA is offered). Sampling is a pure function of (seed, index),
// so a sweep fanned across any number of workers reproduces byte-identical
// portfolios.
//
// A Scenario adds the time axis: a base portfolio plus Drift rewrites that
// replace the active policy at configured sim times mid-drive, modelling a
// carrier reconfiguring its network while an online learner is running —
// the re-convergence stress behind `vivisect sweep -drift`.
package policygen

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cellular"
	"repro/internal/topology"
)

// Portfolio is one carrier's complete mobility-management configuration,
// expressed as data. internal/ran builds its policy rule table and event
// configurations from it; the sweep runner builds the deployment too.
type Portfolio struct {
	// Name labels the carrier, e.g. "OpX" or "Gen0042".
	Name string
	// Archs lists the 5G architectures offered (ArchNSA and/or ArchSA;
	// ArchLTE is always available).
	Archs []cellular.Arch
	// LTESequence is the MR-key suffix the carrier's LTE-anchor mobility
	// logic fires on (oldest first), e.g. ["A2","A5"]. It is the
	// per-carrier fingerprint the decision learner has to discover (§7.1).
	LTESequence []string
	// LTEEvents are the LTE-side measurement configurations pushed to UEs
	// (always configured; NSA adds NREvents on top).
	LTEEvents []cellular.EventConfig
	// NREvents are the NR-side configurations added under NSA dual
	// connectivity: the inter-RAT B1 discovery event plus the NR A2/A3
	// events the SCG management rules consume.
	NREvents []cellular.EventConfig
	// SAEvents are the standalone-mode configurations (used when the UE
	// operates under ArchSA; typically more conservative, §5.1).
	SAEvents []cellular.EventConfig
	// Deployment is the carrier's radio deployment strategy: band
	// portfolio, tower spacing, sectoring and eNB/gNB co-location
	// fraction. The sweep runner generates topologies from it; the named
	// fallback path (ran.PolicyFor on an unknown carrier) never reads it.
	Deployment topology.CarrierProfile
}

// Has reports whether the portfolio offers the given architecture.
func (p *Portfolio) Has(a cellular.Arch) bool {
	if a == cellular.ArchLTE {
		return true
	}
	for _, x := range p.Archs {
		if x == a {
			return true
		}
	}
	return false
}

// SequenceString renders the LTE decision sequence as "A2,A5" for reports.
func (p *Portfolio) SequenceString() string { return strings.Join(p.LTESequence, ",") }

// tttSet is the 3GPP TimeToTrigger enumeration (TS 36.331 / 38.331
// ReportConfig), in milliseconds. Generated and validated portfolios only
// use these values.
var tttSet = []time.Duration{
	0,
	40 * time.Millisecond,
	64 * time.Millisecond,
	80 * time.Millisecond,
	100 * time.Millisecond,
	128 * time.Millisecond,
	160 * time.Millisecond,
	256 * time.Millisecond,
	320 * time.Millisecond,
	480 * time.Millisecond,
	512 * time.Millisecond,
	640 * time.Millisecond,
	1024 * time.Millisecond,
	1280 * time.Millisecond,
	2560 * time.Millisecond,
	5120 * time.Millisecond,
}

// ValidTTT reports whether d is a 3GPP-enumerated time-to-trigger.
func ValidTTT(d time.Duration) bool {
	for _, v := range tttSet {
		if d == v {
			return true
		}
	}
	return false
}

// Plausibility bounds for event parameters, anchored to the spreads the
// diversity study reports across commercial configurations.
const (
	// MinThresholdDBm / MaxThresholdDBm bound RSRP-valued thresholds
	// (A1/A2/A4/A5/B1).
	MinThresholdDBm = -130.0
	MaxThresholdDBm = -60.0
	// MaxHysteresisDB is the top of the 3GPP hysteresis range (0–15 dB in
	// 0.5 dB steps; operational configs stay well below).
	MaxHysteresisDB = 15.0
	// MaxOffsetDB bounds A3 offsets (3GPP a3-Offset spans −15..+15 dB;
	// operational values are small positive numbers).
	MaxOffsetDB = 15.0
)

// validateEvent checks one event configuration for 3GPP plausibility and
// self-consistency.
func validateEvent(c cellular.EventConfig) error {
	if !ValidTTT(c.TTT) {
		return fmt.Errorf("event %s/%s: TTT %v is not a 3GPP-enumerated value", c.Tech, c.Type, c.TTT)
	}
	if c.Hysteresis < 0 || c.Hysteresis > MaxHysteresisDB {
		return fmt.Errorf("event %s/%s: hysteresis %.1f dB outside [0, %.0f]", c.Tech, c.Type, c.Hysteresis, MaxHysteresisDB)
	}
	if c.ReportInterval < 0 {
		return fmt.Errorf("event %s/%s: negative report interval", c.Tech, c.Type)
	}
	if c.ReportAmount < 0 {
		return fmt.Errorf("event %s/%s: negative report amount", c.Tech, c.Type)
	}
	checkThreshold := func(name string, v float64) error {
		if v < MinThresholdDBm || v > MaxThresholdDBm {
			return fmt.Errorf("event %s/%s: %s %.1f dBm outside [%.0f, %.0f]", c.Tech, c.Type, name, v, MinThresholdDBm, MaxThresholdDBm)
		}
		return nil
	}
	switch c.Type {
	case cellular.EventA1, cellular.EventA2, cellular.EventA4, cellular.EventB1:
		if err := checkThreshold("threshold", c.Threshold1); err != nil {
			return err
		}
	case cellular.EventA5:
		if err := checkThreshold("threshold1", c.Threshold1); err != nil {
			return err
		}
		if err := checkThreshold("threshold2", c.Threshold2); err != nil {
			return err
		}
		// A5 fires when serving < Φ1 and neighbour > Φ2; a portfolio with
		// Φ1 > Φ2 would hand over to neighbours weaker than the serving
		// floor it just declared unusable.
		if c.Threshold1 > c.Threshold2 {
			return fmt.Errorf("event %s/%s: A5 threshold1 %.1f > threshold2 %.1f", c.Tech, c.Type, c.Threshold1, c.Threshold2)
		}
	case cellular.EventA3:
		if c.Offset < -MaxOffsetDB || c.Offset > MaxOffsetDB {
			return fmt.Errorf("event %s/%s: A3 offset %.1f dB outside [−%.0f, %.0f]", c.Tech, c.Type, c.Offset, MaxOffsetDB, MaxOffsetDB)
		}
	}
	return nil
}

// Validate checks the portfolio for self-consistency: every event
// configuration is 3GPP-plausible, the decision sequence only references
// configured LTE events, and NSA portfolios carry at least one inter-RAT
// (B1) discovery event so a 5G leg is attachable at all.
func (p *Portfolio) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("policygen: portfolio has no name")
	}
	if len(p.LTESequence) == 0 {
		return fmt.Errorf("policygen: %s: empty LTE decision sequence", p.Name)
	}
	if len(p.LTEEvents) == 0 {
		return fmt.Errorf("policygen: %s: no LTE event configurations", p.Name)
	}
	configured := map[string]bool{}
	for _, c := range p.LTEEvents {
		if c.Tech != cellular.TechLTE {
			return fmt.Errorf("policygen: %s: non-LTE event %s in LTEEvents", p.Name, c.Type)
		}
		if err := validateEvent(c); err != nil {
			return fmt.Errorf("policygen: %s: %w", p.Name, err)
		}
		configured[c.Type.String()] = true
	}
	for _, k := range p.LTESequence {
		if !configured[k] {
			return fmt.Errorf("policygen: %s: decision sequence references unconfigured event %q", p.Name, k)
		}
	}
	if p.Has(cellular.ArchNSA) {
		interRAT := false
		for _, c := range p.NREvents {
			if c.Tech != cellular.TechNR {
				return fmt.Errorf("policygen: %s: non-NR event %s in NREvents", p.Name, c.Type)
			}
			if err := validateEvent(c); err != nil {
				return fmt.Errorf("policygen: %s: %w", p.Name, err)
			}
			if c.Type == cellular.EventB1 || c.Type == cellular.EventA4 {
				interRAT = true
			}
		}
		if !interRAT {
			return fmt.Errorf("policygen: %s: NSA portfolio has no inter-RAT (B1/A4) event", p.Name)
		}
	}
	if p.Has(cellular.ArchSA) {
		if len(p.SAEvents) == 0 {
			return fmt.Errorf("policygen: %s: SA offered but no SA event configurations", p.Name)
		}
		for _, c := range p.SAEvents {
			if c.Tech != cellular.TechNR {
				return fmt.Errorf("policygen: %s: non-NR event %s in SAEvents", p.Name, c.Type)
			}
			if err := validateEvent(c); err != nil {
				return fmt.Errorf("policygen: %s: %w", p.Name, err)
			}
		}
	}
	return nil
}

// Drift is one mid-run policy rewrite: at sim time At the carrier replaces
// its active measurement configuration and decision logic with Portfolio's.
// The deployment (towers, bands) is unchanged — reconfiguration is a
// parameter push, not a construction project — so only the policy fields
// of the drifted portfolio are consulted.
type Drift struct {
	// At is the sim time the rewrite takes effect.
	At time.Duration
	// Portfolio is the policy active from At on.
	Portfolio Portfolio
}

// Scenario pairs a base portfolio with the drift rewrites applied during a
// drive. sim.Config.Scenario runs a drive under it; a nil Scenario keeps
// the named-carrier behaviour.
type Scenario struct {
	// Base is the policy active from the start of the drive.
	Base Portfolio
	// Drifts are applied in order; each must have a later At than the
	// previous one.
	Drifts []Drift
}

// Validate checks the base, every drift portfolio, and drift ordering.
func (s *Scenario) Validate() error {
	if err := s.Base.Validate(); err != nil {
		return err
	}
	last := time.Duration(-1)
	for i := range s.Drifts {
		d := &s.Drifts[i]
		if d.At <= last {
			return fmt.Errorf("policygen: drift %d at %v is not after the previous rewrite", i, d.At)
		}
		last = d.At
		if err := d.Portfolio.Validate(); err != nil {
			return fmt.Errorf("policygen: drift %d: %w", i, err)
		}
	}
	return nil
}
