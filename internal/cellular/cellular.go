// Package cellular defines the domain model shared by the whole repository:
// radio access technologies, frequency bands, cells and towers, the 4G/5G
// handover taxonomy of the paper's Table 2, the 3GPP measurement events of
// Table 4, and the RRS (RSRP/RSRQ/SINR) signal-quality triple.
//
// The package is purely declarative — behaviour (propagation, HO execution)
// lives in internal/radio and internal/ran — so that every other layer can
// share these types without import cycles.
package cellular

import (
	"fmt"
	"time"
)

// Tech identifies the radio access technology of a cell or a measurement.
type Tech int

// Radio access technologies.
const (
	// TechLTE is 4G/LTE (eNB cells).
	TechLTE Tech = iota
	// TechNR is 5G New Radio (gNB cells).
	TechNR
)

// String returns the conventional name of the technology.
func (t Tech) String() string {
	switch t {
	case TechLTE:
		return "LTE"
	case TechNR:
		return "NR"
	default:
		return fmt.Sprintf("Tech(%d)", int(t))
	}
}

// Arch identifies the 5G deployment architecture a UE is attached through.
type Arch int

// Deployment architectures considered in the paper.
const (
	// ArchLTE is plain 4G/LTE service (no 5G leg).
	ArchLTE Arch = iota
	// ArchNSA is 5G non-standalone: 4G control plane (NSA-4C) with a 5G-NR
	// data-plane leg (EN-DC).
	ArchNSA
	// ArchSA is 5G standalone: 5G control and data plane.
	ArchSA
)

// String returns the architecture name used throughout the paper.
func (a Arch) String() string {
	switch a {
	case ArchLTE:
		return "LTE"
	case ArchNSA:
		return "NSA"
	case ArchSA:
		return "SA"
	default:
		return fmt.Sprintf("Arch(%d)", int(a))
	}
}

// ParseArch is the inverse of Arch.String, for command-line flags.
func ParseArch(s string) (Arch, error) {
	switch s {
	case "LTE":
		return ArchLTE, nil
	case "NSA":
		return ArchNSA, nil
	case "SA":
		return ArchSA, nil
	default:
		return 0, fmt.Errorf("cellular: unknown architecture %q (want LTE, NSA or SA)", s)
	}
}

// Band is a coarse radio frequency band class. The paper's findings are
// organised around these three 5G-NR classes plus the 4G low/mid bands.
type Band int

// Frequency band classes.
const (
	// BandLow is sub-1 GHz (e.g. n71 at 600-700 MHz).
	BandLow Band = iota
	// BandMid is 1-6 GHz (e.g. n41 at 2.5 GHz, LTE AWS/PCS).
	BandMid
	// BandMMWave is 24 GHz+ (e.g. n260/n261 at 28-39 GHz).
	BandMMWave
)

// String returns the band class name.
func (b Band) String() string {
	switch b {
	case BandLow:
		return "Low-Band"
	case BandMid:
		return "Mid-Band"
	case BandMMWave:
		return "mmWave"
	default:
		return fmt.Sprintf("Band(%d)", int(b))
	}
}

// CenterFrequencyHz returns a representative carrier frequency for the band
// class, used by the propagation model.
func (b Band) CenterFrequencyHz() float64 {
	switch b {
	case BandLow:
		return 700e6
	case BandMid:
		return 2.5e9
	case BandMMWave:
		return 28e9
	default:
		return 2.0e9
	}
}

// HOType enumerates the mobility procedures of the paper's Table 2.
type HOType int

// Handover procedure types (Table 2). HONone is the absence of a handover
// and is used as the negative class by the prediction stack.
const (
	// HONone indicates no handover (prediction negative class).
	HONone HOType = iota
	// HOSCGA is SCG Addition: 4G→5G, adds NR cells to the LTE connection.
	HOSCGA
	// HOSCGR is SCG Release: 5G→4G, removes the NR leg.
	HOSCGR
	// HOSCGM is SCG Modification: 5G→5G within the same gNB.
	HOSCGM
	// HOSCGC is SCG Change: 5G→4G→5G, the inter-gNB procedure NSA uses in
	// place of a direct gNB→gNB handover.
	HOSCGC
	// HOMNBH is a master-eNB handover: the LTE anchor changes while the gNB
	// stays the same (5G→5G from the data plane's perspective).
	HOMNBH
	// HOMCGH is an SA master-cell-group handover: NR cell to NR cell.
	HOMCGH
	// HOLTEH is a plain LTE handover (4G→4G), in either LTE-only or NSA
	// service.
	HOLTEH
)

// String returns the paper's acronym for the handover type.
func (h HOType) String() string {
	switch h {
	case HONone:
		return "NONE"
	case HOSCGA:
		return "SCGA"
	case HOSCGR:
		return "SCGR"
	case HOSCGM:
		return "SCGM"
	case HOSCGC:
		return "SCGC"
	case HOMNBH:
		return "MNBH"
	case HOMCGH:
		return "MCGH"
	case HOLTEH:
		return "LTEH"
	default:
		return fmt.Sprintf("HOType(%d)", int(h))
	}
}

// Is5G reports whether the procedure is categorised as a 5G HO in Table 2
// (i.e. it is carried on NR signalling rather than the LTE anchor).
func (h HOType) Is5G() bool {
	switch h {
	case HOSCGA, HOSCGR, HOSCGM, HOSCGC, HOMCGH:
		return true
	default:
		return false
	}
}

// IsVertical reports whether the procedure changes the access technology of
// the data path (4G→5G or 5G→4G), following Fig. 16's horizontal/vertical
// split.
func (h HOType) IsVertical() bool { return h == HOSCGA || h == HOSCGR }

// AllHOTypes lists every real handover type (excluding HONone) in a stable
// order, for iteration in reports and tests.
func AllHOTypes() []HOType {
	return []HOType{HOSCGA, HOSCGR, HOSCGM, HOSCGC, HOMNBH, HOMCGH, HOLTEH}
}

// RRS bundles the three radio signal quality indicators the paper
// abbreviates as RRS.
type RRS struct {
	RSRP float64 // reference signal received power, dBm
	RSRQ float64 // reference signal received quality, dB
	SINR float64 // signal to interference & noise ratio, dB
}

// PCI is a physical cell identifier. The 3GPP ranges differ between LTE
// (0-503) and NR (0-1007); the topology generator respects them.
type PCI int

// Cell is a single antenna/sector managed by a tower.
type Cell struct {
	PCI     PCI     // physical cell ID
	Tech    Tech    // LTE or NR
	Band    Band    // frequency band class
	TowerID int     // physical tower hosting the cell
	X, Y    float64 // tower position, metres (duplicated for convenience)
	TxPower float64 // transmit power, dBm
	// Index is the cell's dense position within its deployment
	// (topology.Generate assigns 0..N-1 in generation order). Hot paths use
	// it to address per-cell state as slice slots instead of hashing
	// GlobalID strings.
	Index int

	// gid caches the GlobalID string (see CacheGlobalID).
	gid string
}

// GlobalID returns a string key unique across technologies, since LTE and NR
// PCI spaces overlap. The string is formatted once and cached when the cell
// was built by topology.Generate; hand-built cells fall back to formatting
// on demand.
func (c *Cell) GlobalID() string {
	if c.gid != "" {
		return c.gid
	}
	return formatGlobalID(c.Tech, c.PCI)
}

// CacheGlobalID precomputes the GlobalID string so later calls are
// allocation-free reads. It must be called before the cell is shared across
// goroutines (topology.Generate does this for every cell it creates).
func (c *Cell) CacheGlobalID() { c.gid = formatGlobalID(c.Tech, c.PCI) }

func formatGlobalID(t Tech, p PCI) string { return fmt.Sprintf("%s-%d", t, p) }

// EventType enumerates the LTE/NR measurement events of Table 4. NR events
// are distinguished from their LTE counterparts by the Tech field of the
// EventConfig / MeasurementReport, mirroring the paper's "NR-A3" notation.
type EventType int

// Measurement event types (Table 4).
const (
	// EventA1: serving cell becomes better than a threshold.
	EventA1 EventType = iota
	// EventA2: serving cell becomes worse than a threshold.
	EventA2
	// EventA3: neighbour becomes offset better than serving (A6 is the
	// secondary-cell variant and shares the trigger shape).
	EventA3
	// EventA4: neighbour becomes better than a threshold (B1 is the
	// inter-RAT variant and shares the trigger shape).
	EventA4
	// EventA5: serving worse than threshold 1 and neighbour better than
	// threshold 2.
	EventA5
	// EventB1: inter-RAT neighbour becomes better than a threshold.
	EventB1
	// EventPeriodic: periodic reporting of cell conditions.
	EventPeriodic
)

// String returns the 3GPP event name.
func (e EventType) String() string {
	switch e {
	case EventA1:
		return "A1"
	case EventA2:
		return "A2"
	case EventA3:
		return "A3"
	case EventA4:
		return "A4"
	case EventA5:
		return "A5"
	case EventB1:
		return "B1"
	case EventPeriodic:
		return "P"
	default:
		return fmt.Sprintf("EventType(%d)", int(e))
	}
}

// EventConfig is the measurement configuration a serving cell pushes to the
// UE for one event (step 1 of Fig. 1): thresholds, offset, hysteresis and
// time-to-trigger.
type EventConfig struct {
	Type       EventType
	Tech       Tech          // technology of the *measured* cells
	Threshold1 float64       // Φ (dBm RSRP) — A1/A2/A4/B1 threshold, A5 Φ1
	Threshold2 float64       // A5 Φ2 (neighbour threshold)
	Offset     float64       // Δ (dB) — A3 offset
	Hysteresis float64       // dB, applied to entering condition
	TTT        time.Duration // time-to-trigger
	// ReportInterval enables 3GPP periodic re-reporting while the entering
	// condition stays satisfied (0 = report once on entry).
	ReportInterval time.Duration
	// ReportAmount caps the number of reports per entry (0 = unlimited).
	ReportAmount int
}

// Entering reports whether the event's entering condition holds for the
// given serving and neighbour RSRP measurements (Table 4). For A1/A2 the
// neighbour value is ignored; for A4/B1 the serving value is ignored.
func (c EventConfig) Entering(servingRSRP, neighborRSRP float64) bool {
	h := c.Hysteresis
	switch c.Type {
	case EventA1:
		return servingRSRP-h > c.Threshold1
	case EventA2:
		return servingRSRP+h < c.Threshold1
	case EventA3:
		return neighborRSRP-h > servingRSRP+c.Offset
	case EventA4, EventB1:
		return neighborRSRP-h > c.Threshold1
	case EventA5:
		return servingRSRP+h < c.Threshold1 && neighborRSRP-h > c.Threshold2
	case EventPeriodic:
		return true
	default:
		return false
	}
}

// MeasurementReport is the UE→network report raised when an event's trigger
// condition has held for TTT (step 3 of Fig. 1).
type MeasurementReport struct {
	Time         time.Duration // simulation time of the report
	Event        EventType
	Tech         Tech // technology of the measured cells
	ServingPCI   PCI
	NeighborPCI  PCI // best neighbour (0 if n/a)
	ServingRSRP  float64
	NeighborRSRP float64
	Serving      RRS
}

// Key returns the compact event label used by the decision learner, e.g.
// "A2", "NR-B1". It matches the paper's pattern notation (§7.1).
func (m MeasurementReport) Key() string {
	if m.Tech == TechNR {
		return "NR-" + m.Event.String()
	}
	return m.Event.String()
}

// HandoverEvent records one executed handover procedure with its
// decomposition into preparation (T1) and execution (T2) stages (§5.2).
type HandoverEvent struct {
	Time       time.Duration // time the HO command was issued (start of T2)
	Type       HOType
	Arch       Arch // architecture at HO time
	Band       Band // band of the (5G) data plane involved, or LTE band
	SourcePCI  PCI
	TargetPCI  PCI
	SourceCell string // GlobalID of source cell
	TargetCell string // GlobalID of target cell
	T1         time.Duration
	T2         time.Duration
	CoLocated  bool    // eNB/gNB on same tower (NSA only)
	DistanceM  float64 // odometer reading at HO time
	Signaling  SignalingCount
}

// Duration returns the total handover duration T1+T2.
func (h HandoverEvent) Duration() time.Duration { return h.T1 + h.T2 }

// SignalingCount tallies HO-related signalling messages per layer (§5.1's
// overhead comparison): RRC (measurement reports, reconfiguration,
// reconfiguration-complete), MAC (RACH), and PHY (SSB/beam measurements).
type SignalingCount struct {
	RRC int
	MAC int
	PHY int
}

// Total returns the total message count across layers.
func (s SignalingCount) Total() int { return s.RRC + s.MAC + s.PHY }

// Add returns the element-wise sum of two counts.
func (s SignalingCount) Add(o SignalingCount) SignalingCount {
	return SignalingCount{RRC: s.RRC + o.RRC, MAC: s.MAC + o.MAC, PHY: s.PHY + o.PHY}
}
