// Package sim is the drive-test simulator: it advances a UE along a route
// at the paper's 20 Hz logging rate, computes per-cell signal strength
// through the propagation model, runs the UE measurement engine and the
// serving cell's decision engine, executes handovers with their T1/T2
// stages, and emits the cross-layer trace.Log every analysis consumes.
//
// The simulator realises the NSA coupling the paper dissects: an LTE anchor
// handover (MNBH) forcibly releases the 5G leg (SCGR) because NSA cannot
// keep an SCG across anchors (§6.1), and inter-gNB moves become SCG Change
// procedures rather than direct handovers (§6.2).
package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/cellular"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/policygen"
	"repro/internal/ran"
	"repro/internal/throughput"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Config describes one simulated drive.
type Config struct {
	// Carrier is the operator profile whose deployment and policies the
	// drive runs under (§3's OpX/OpY).
	Carrier topology.CarrierProfile
	// Arch selects LTE, NSA or SA operation (§2.1).
	Arch cellular.Arch
	// RouteKind / RouteLengthM choose the synthetic route (metres;
	// perimeter for loops), and Laps > 1 repeats a loop (the paper's
	// walking-loop collection runs).
	RouteKind    geo.RouteKind
	RouteLengthM float64
	Laps         int
	// SpeedMPS is the travel speed.
	SpeedMPS float64
	// BearerMode selects NSA traffic splitting; ignored for LTE/SA.
	BearerMode throughput.BearerMode
	// Seed drives all randomness; equal seeds give identical drives.
	Seed int64
	// Tracer, when set, receives one structured obs.EvHOTrigger event per
	// scheduled handover (type, source/target cell, MR ordinal, sim time)
	// — the same event stream the serving daemon exposes at /events, so
	// paper-figure debugging can replay a drive's mobility decisions
	// without diffing whole trace logs. Nil disables tracing; the tracer
	// never influences the simulation (trace.Log output is byte-identical
	// with or without it).
	Tracer *obs.Tracer
	// Scenario, when set, runs the drive under a policy-as-data scenario:
	// the base portfolio's event tables and decision logic replace the
	// named-carrier lookup, and each Drift rewrites the active policy at
	// its sim time mid-run (the carrier reconfigures while the drive — and
	// any attached learner — is underway). The deployment still comes from
	// Carrier; drift changes policy, not towers. Nil keeps the historical
	// named-carrier path bit-identical.
	Scenario *policygen.Scenario
	// TopoOpts tunes deployment generation.
	TopoOpts topology.Options
	// SampleEveryN stores every Nth 20 Hz sample (default 1 = all). The
	// simulation itself always runs at full rate.
	SampleEveryN int
	// Adaptive, when set with at least one control enabled, closes the
	// prediction loop: the drive embeds an online Prognos instance fed the
	// same report/handover/sample stream core.Replay would deliver, and its
	// per-tick forecasts steer the live policy through a
	// ran.AdaptiveController (early-prep, skip-ahead, TTT/hysteresis
	// adaptation — see docs/ARCHITECTURE.md §Closed loop). Nil or all-off
	// keeps the drive bit-identical to the static policy, which the golden
	// trace tests pin.
	Adaptive *ran.AdaptiveConfig
}

func (c Config) withDefaults() Config {
	if c.RouteLengthM == 0 {
		c.RouteLengthM = 20000
	}
	if c.SpeedMPS == 0 {
		c.SpeedMPS = 29 // ≈105 km/h
	}
	if c.Laps < 1 {
		c.Laps = 1
	}
	if c.SampleEveryN < 1 {
		c.SampleEveryN = 1
	}
	return c
}

// maxRangeM bounds the cell search radius per band.
func maxRangeM(band cellular.Band) float64 {
	switch band {
	case cellular.BandLow:
		return 9000
	case cellular.BandMid:
		return 5000
	case cellular.BandMMWave:
		return 800
	default:
		return 6000
	}
}

// Run simulates one drive and returns its trace: RunClosedLoop without the
// closed-loop by-product.
func Run(cfg Config) (*trace.Log, error) {
	log, _, err := RunClosedLoop(cfg)
	return log, err
}

// RunOn simulates a drive over a pre-built deployment (several drives can
// share one city's topology, like the paper's repeated loops).
func RunOn(cfg Config, dep *topology.Deployment, seed int64) (*trace.Log, error) {
	cfg = cfg.withDefaults()
	if !cfg.Carrier.Has(cfg.Arch) {
		return nil, fmt.Errorf("sim: carrier %s does not offer %s", cfg.Carrier.Name, cfg.Arch)
	}
	rng := rand.New(rand.NewSource(seed))
	s := newState(cfg, dep.Route, dep, rng)
	s.run()
	return s.log, nil
}

// ClosedLoop is the by-product of an adaptive drive: the in-loop prediction
// series (the forecasts the controller actually acted on, on the same 20 Hz
// grid core.Replay produces) and the controller's action counters. Both are
// nil/zero when Config.Adaptive was not enabled.
type ClosedLoop struct {
	Ticks []core.TickPrediction
	Stats ran.AdaptiveStats
}

// RunClosedLoop simulates one drive and returns its trace and the
// closed-loop by-product. The by-product only exposes what the embedded
// predictor and controller did along the way; Run returns the same trace.
func RunClosedLoop(cfg Config) (*trace.Log, *ClosedLoop, error) {
	cfg = cfg.withDefaults()
	if !cfg.Carrier.Has(cfg.Arch) {
		return nil, nil, fmt.Errorf("sim: carrier %s does not offer %s", cfg.Carrier.Name, cfg.Arch)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	route := geo.Generate(cfg.RouteKind, rng, cfg.RouteLengthM)
	dep := topology.Generate(cfg.Carrier, route, rng, cfg.TopoOpts)
	s := newState(cfg, route, dep, rng)
	s.run()
	cl := &ClosedLoop{}
	if s.actrl != nil {
		cl.Ticks = s.loopTicks
		cl.Stats = s.actrl.Stats()
	}
	return s.log, cl, nil
}
