// Package repro is the public API of the 5G mobility-management
// reproduction (Hassan et al., "Vivisecting Mobility Management in 5G
// Cellular Networks", SIGCOMM 2022): a cross-layer drive-test simulator
// that regenerates the paper's measurement findings, and Prognos, the
// paper's online handover-prediction system.
//
// Quick start:
//
//	log, err := repro.Drive(repro.DriveConfig{
//		Carrier:   repro.OpX(),
//		Arch:      repro.ArchNSA,
//		RouteKind: repro.RouteCityLoop,
//		Seed:      42,
//	})
//	prog, err := repro.NewPrognos(repro.PrognosConfig{
//		EventConfigs:       repro.EventConfigs("OpX", repro.ArchNSA),
//		Arch:               repro.ArchNSA,
//		UseReportPredictor: true,
//	})
//	ticks := repro.Replay(prog, log)
//
// The experiment harness behind the cmd/vivisect binary is exposed through
// Experiments and RunExperiment. Everything is deterministic for a given
// seed and depends only on the standard library.
package repro

import (
	"time"

	"repro/internal/cellular"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/experiments"
	"repro/internal/geo"
	"repro/internal/ran"
	"repro/internal/sim"
	"repro/internal/throughput"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Duration aliases time.Duration for the API surface.
type Duration = time.Duration

// Domain model re-exports.
type (
	// Arch is a deployment architecture (LTE, NSA, SA).
	Arch = cellular.Arch
	// Band is a radio frequency band class.
	Band = cellular.Band
	// HOType is a handover procedure type (Table 2 taxonomy).
	HOType = cellular.HOType
	// EventConfig is a 3GPP measurement-event configuration (Table 4).
	EventConfig = cellular.EventConfig
	// MeasurementReport is a UE→network measurement report.
	MeasurementReport = cellular.MeasurementReport
	// HandoverEvent is one executed handover with its T1/T2 decomposition.
	HandoverEvent = cellular.HandoverEvent
)

// Architecture, band and handover-type constants.
const (
	ArchLTE = cellular.ArchLTE
	ArchNSA = cellular.ArchNSA
	ArchSA  = cellular.ArchSA

	BandLow    = cellular.BandLow
	BandMid    = cellular.BandMid
	BandMMWave = cellular.BandMMWave

	HONone = cellular.HONone
	HOSCGA = cellular.HOSCGA
	HOSCGR = cellular.HOSCGR
	HOSCGM = cellular.HOSCGM
	HOSCGC = cellular.HOSCGC
	HOMNBH = cellular.HOMNBH
	HOMCGH = cellular.HOMCGH
	HOLTEH = cellular.HOLTEH
)

// Simulation re-exports.
type (
	// DriveConfig configures one simulated drive test. Its Tracer,
	// Scenario and Adaptive fields are hooks for code inside this module:
	// their types live in internal packages, so callers outside the module
	// leave them nil.
	DriveConfig = sim.Config
	// CarrierProfile describes an operator's deployment strategy.
	CarrierProfile = topology.CarrierProfile
	// TopologyOptions tunes deployment generation.
	TopologyOptions = topology.Options
	// Log is a cross-layer drive capture.
	Log = trace.Log
	// Sample is one 20 Hz cross-layer log record.
	Sample = trace.Sample
	// RouteKind selects the synthetic route generator.
	RouteKind = geo.RouteKind
	// BearerMode selects the NSA traffic split (dual vs 5G-only).
	BearerMode = throughput.BearerMode
)

// Route and bearer-mode constants.
const (
	RouteFreeway  = geo.RouteFreeway
	RouteCityLoop = geo.RouteCityLoop

	ModeSCG   = throughput.ModeSCG
	ModeSplit = throughput.ModeSplit
)

// OpX returns the OpX carrier profile (NSA; low-band + mmWave 5G).
func OpX() CarrierProfile { return topology.OpX() }

// OpY returns the OpY carrier profile (NSA + SA; low-band + mid-band 5G).
func OpY() CarrierProfile { return topology.OpY() }

// OpZ returns the OpZ carrier profile (NSA; low-band + mmWave 5G).
func OpZ() CarrierProfile { return topology.OpZ() }

// Carriers returns all three operator profiles.
func Carriers() []CarrierProfile { return topology.Carriers() }

// Drive runs one simulated drive test and returns its cross-layer log.
func Drive(cfg DriveConfig) (*Log, error) { return sim.Run(cfg) }

// EventConfigs returns the measurement configurations the given carrier
// pushes to UEs under an architecture — the RRC-sniffed input Prognos
// needs.
func EventConfigs(carrier string, arch Arch) []EventConfig {
	return ran.EventConfigsFor(carrier, arch)
}

// Prognos re-exports.
type (
	// Prognos is the handover-prediction system (§7).
	Prognos = core.Prognos
	// PrognosConfig tunes a Prognos instance.
	PrognosConfig = core.Config
	// Prediction is Prognos' per-window output.
	Prediction = core.Prediction
	// Pattern is one learned handover-decision pattern.
	Pattern = core.Pattern
	// Predictor is the interface shared by Prognos and the baselines.
	Predictor = core.Predictor
	// TickPrediction is one per-sample prediction during a replay.
	TickPrediction = core.TickPrediction
	// EventOutcome holds event-level evaluation results.
	EventOutcome = core.EventOutcome
	// ScoreTable maps handover types to ho_score values.
	ScoreTable = core.ScoreTable
)

// NewPrognos creates a Prognos instance.
func NewPrognos(cfg PrognosConfig) (*Prognos, error) { return core.New(cfg) }

// Replay feeds a drive log through a predictor in time order, recording
// the prediction at every sample (trace-driven emulation, §7.3).
func Replay(p Predictor, log *Log) []TickPrediction { return core.Replay(p, log) }

// Evaluate performs the event-level F1/precision/recall evaluation with
// the given prediction window.
func Evaluate(ticks []TickPrediction, handovers []HandoverEvent, window Duration) EventOutcome {
	return core.EvaluateEvents(ticks, handovers, window)
}

// DefaultScores returns the Fig. 16-derived ho_score table.
func DefaultScores() ScoreTable { return core.DefaultScores() }

// Link emulation re-exports (for application studies).
type (
	// BandwidthTrace is a recorded downlink capacity series.
	BandwidthTrace = emu.BandwidthTrace
	// Link is the Mahimahi-style trace-driven downlink.
	Link = emu.Link
)

// NewBandwidthTrace wraps a capacity series for replay.
func NewBandwidthTrace(mbps []float64, interval Duration) (*BandwidthTrace, error) {
	return emu.NewBandwidthTrace(mbps, interval)
}

// NewLink creates an emulated link over a bandwidth trace.
func NewLink(tr *BandwidthTrace, rtt Duration) *Link { return emu.NewLink(tr, rtt) }

// Experiment harness re-exports.
type (
	// Experiment names one runnable paper table/figure regeneration.
	Experiment = experiments.Spec
	// ExperimentOptions tunes experiment scale and seeding.
	ExperimentOptions = experiments.Options
	// ResultTable is a rendered experiment result.
	ResultTable = experiments.Table
)

// Experiments returns every table/figure regeneration in paper order.
func Experiments() []Experiment { return experiments.All() }

// RunExperiment runs one experiment by id (e.g. "fig8", "table3").
func RunExperiment(id string, opts ExperimentOptions) (ResultTable, error) {
	spec, err := experiments.ByID(id)
	if err != nil {
		return ResultTable{}, err
	}
	return spec.Run(opts)
}
