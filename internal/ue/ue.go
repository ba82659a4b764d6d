// Package ue implements the device side of mobility management: the
// measurement engine that evaluates configured 3GPP events (Table 4)
// against serving/neighbour signal strength with hysteresis and
// time-to-trigger, and emits measurement reports (step 2–3 of Fig. 1).
package ue

import (
	"fmt"
	"time"

	"repro/internal/cellular"
)

// Meas is one technology layer's instantaneous measurement input to the
// engine: the serving cell of that layer and the best neighbour.
type Meas struct {
	Valid        bool
	ServingPCI   cellular.PCI
	ServingRSRP  float64
	ServingRRS   cellular.RRS
	NeighborPCI  cellular.PCI
	NeighborRSRP float64
	// NeighborValid reports whether any neighbour was observed.
	NeighborValid bool
}

// Input is the full per-tick measurement context.
type Input struct {
	Time time.Duration
	// LTE is the LTE-layer measurement (anchor in NSA, serving in LTE-only).
	LTE Meas
	// NR is the NR-layer measurement of the *attached* NR cell (invalid when
	// no 5G leg is attached).
	NR Meas
	// NRCandidate is the best detectable NR cell regardless of attachment,
	// used by inter-RAT events (B1) to discover 5G coverage.
	NRCandidate Meas
}

// eventState tracks TTT progress for one configured event.
type eventState struct {
	cfg     cellular.EventConfig
	heldFor time.Duration
	// reports is the number of reports emitted for the current entry;
	// sinceReport tracks the periodic re-reporting interval.
	reports     int
	sinceReport time.Duration
}

// MeasurementEngine evaluates event configurations over time. It is not
// safe for concurrent use; the simulator owns one engine per UE.
type MeasurementEngine struct {
	states []eventState
}

// NewMeasurementEngine creates an engine for the given configurations.
func NewMeasurementEngine(configs []cellular.EventConfig) (*MeasurementEngine, error) {
	if len(configs) == 0 {
		return nil, fmt.Errorf("ue: measurement engine needs at least one event config")
	}
	states := make([]eventState, len(configs))
	for i, c := range configs {
		states[i] = eventState{cfg: c}
	}
	return &MeasurementEngine{states: states}, nil
}

// Reconfigure replaces the event configurations (step 1 of Fig. 1, issued by
// a new serving cell after handover). TTT state is reset.
func (e *MeasurementEngine) Reconfigure(configs []cellular.EventConfig) {
	states := make([]eventState, len(configs))
	for i, c := range configs {
		states[i] = eventState{cfg: c}
	}
	e.states = states
}

// measFor selects the measurement context an event config evaluates
// against.
func measFor(cfg *cellular.EventConfig, in *Input) (serving, neighbor float64, servingPCI, neighborPCI cellular.PCI, rrs cellular.RRS, ok bool) {
	switch {
	case cfg.Type == cellular.EventB1:
		// Inter-RAT: serving is the LTE anchor, neighbour is the best NR
		// candidate (attached or not).
		if !in.LTE.Valid || !in.NRCandidate.Valid {
			return 0, 0, 0, 0, cellular.RRS{}, false
		}
		return in.LTE.ServingRSRP, in.NRCandidate.ServingRSRP, in.LTE.ServingPCI, in.NRCandidate.ServingPCI, in.LTE.ServingRRS, true
	case cfg.Tech == cellular.TechNR:
		m := &in.NR
		if !m.Valid {
			return 0, 0, 0, 0, cellular.RRS{}, false
		}
		n := m.NeighborRSRP
		np := m.NeighborPCI
		if !m.NeighborValid {
			n = -200
			np = 0
		}
		return m.ServingRSRP, n, m.ServingPCI, np, m.ServingRRS, true
	default:
		m := &in.LTE
		if !m.Valid {
			return 0, 0, 0, 0, cellular.RRS{}, false
		}
		n := m.NeighborRSRP
		np := m.NeighborPCI
		if !m.NeighborValid {
			n = -200
			np = 0
		}
		return m.ServingRSRP, n, m.ServingPCI, np, m.ServingRRS, true
	}
}

// Tick advances the engine by dt with the given measurements and returns any
// measurement reports raised this tick. An event reports when its entering
// condition has held for TTT, then re-reports every ReportInterval (up to
// ReportAmount times) while the condition persists — 3GPP event-triggered
// periodic reporting. State resets when the condition clears.
func (e *MeasurementEngine) Tick(in Input, dt time.Duration) []cellular.MeasurementReport {
	var out []cellular.MeasurementReport
	for i := range e.states {
		st := &e.states[i]
		serving, neighbor, spci, npci, rrs, ok := measFor(&st.cfg, &in)
		if !ok {
			st.heldFor = 0
			st.reports = 0
			st.sinceReport = 0
			continue
		}
		if !st.cfg.Entering(serving, neighbor) {
			st.heldFor = 0
			st.reports = 0
			st.sinceReport = 0
			continue
		}
		st.heldFor += dt
		if st.heldFor < st.cfg.TTT {
			continue
		}
		fire := false
		switch {
		case st.reports == 0:
			fire = true
		case st.cfg.ReportInterval > 0 && (st.cfg.ReportAmount == 0 || st.reports < st.cfg.ReportAmount):
			st.sinceReport += dt
			if st.sinceReport >= st.cfg.ReportInterval {
				fire = true
			}
		}
		if !fire {
			continue
		}
		st.reports++
		st.sinceReport = 0
		out = append(out, cellular.MeasurementReport{
			Time:         in.Time,
			Event:        st.cfg.Type,
			Tech:         st.cfg.Tech,
			ServingPCI:   spci,
			NeighborPCI:  npci,
			ServingRSRP:  serving,
			NeighborRSRP: neighbor,
			Serving:      rrs,
		})
	}
	return out
}
