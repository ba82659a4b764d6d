// Package trace defines the cross-layer log records emitted by the drive
// simulator and consumed by every analysis: 20 Hz radio samples (the
// 5G Tracker / XCAL analogue), measurement reports, handover events, and
// throughput samples. It also writes a log as JSONL for external tools.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/cellular"
)

// SampleHz is the logging rate used throughout the reproduction, matching
// the paper's 20 Hz dataset.
const SampleHz = 20

// SamplePeriod is the interval between consecutive radio samples.
const SamplePeriod = time.Second / SampleHz

// CellObs is one observed cell in a radio sample.
type CellObs struct {
	PCI   cellular.PCI  `json:"pci"`
	Tech  cellular.Tech `json:"tech"`
	Band  cellular.Band `json:"band"`
	RSRP  float64       `json:"rsrp"`
	RSRQ  float64       `json:"rsrq"`
	SINR  float64       `json:"sinr"`
	Valid bool          `json:"valid"`
}

// Sample is one 20 Hz cross-layer log record.
type Sample struct {
	Time      time.Duration `json:"t"`
	X         float64       `json:"x"`
	Y         float64       `json:"y"`
	OdometerM float64       `json:"odo"`
	SpeedMPS  float64       `json:"speed"`
	Arch      cellular.Arch `json:"arch"`
	// ServingLTE is the LTE anchor observation (always valid in LTE/NSA
	// service; invalid in SA).
	ServingLTE CellObs `json:"lte"`
	// ServingNR is the NR leg observation (valid when a 5G leg is attached).
	ServingNR CellObs `json:"nr"`
	// NeighborLTE/NeighborNR are the strongest neighbour observations.
	NeighborLTE CellObs `json:"nlte"`
	NeighborNR  CellObs `json:"nnr"`
	// InHO reports whether a handover execution (T2) overlapped this
	// sample; HOType gives its type.
	InHO   bool            `json:"inho,omitempty"`
	HOType cellular.HOType `json:"hotype,omitempty"`
	// TputMbps is the instantaneous achievable downlink throughput
	// (0 during data-plane interruption).
	TputMbps float64 `json:"tput"`
}

// Log is a complete simulated drive: the full cross-layer capture for one
// UE on one carrier.
type Log struct {
	Carrier   string                       `json:"carrier"`
	Arch      cellular.Arch                `json:"arch"`
	RouteKind string                       `json:"route"`
	Samples   []Sample                     `json:"-"`
	Reports   []cellular.MeasurementReport `json:"-"`
	Handovers []cellular.HandoverEvent     `json:"-"`
}

// Duration returns the span of the log.
func (l *Log) Duration() time.Duration {
	if len(l.Samples) == 0 {
		return 0
	}
	return l.Samples[len(l.Samples)-1].Time
}

// DistanceKM returns the total distance travelled.
func (l *Log) DistanceKM() float64 {
	if len(l.Samples) == 0 {
		return 0
	}
	return l.Samples[len(l.Samples)-1].OdometerM / 1000
}

// HandoversOfType filters the HO events by type.
func (l *Log) HandoversOfType(types ...cellular.HOType) []cellular.HandoverEvent {
	want := make(map[cellular.HOType]bool, len(types))
	for _, t := range types {
		want[t] = true
	}
	var out []cellular.HandoverEvent
	for _, h := range l.Handovers {
		if want[h.Type] {
			out = append(out, h)
		}
	}
	return out
}

// UniquePCIs returns the number of distinct cells observed for a technology.
func (l *Log) UniquePCIs(tech cellular.Tech) int {
	seen := make(map[cellular.PCI]bool)
	for _, s := range l.Samples {
		obs := s.ServingLTE
		if tech == cellular.TechNR {
			obs = s.ServingNR
		}
		if obs.Valid {
			seen[obs.PCI] = true
		}
	}
	return len(seen)
}

// record is the JSONL envelope: exactly one of the payload fields is set.
type record struct {
	Kind   string                      `json:"kind"`
	Meta   *logMeta                    `json:"meta,omitempty"`
	Sample *Sample                     `json:"sample,omitempty"`
	Report *cellular.MeasurementReport `json:"report,omitempty"`
	HO     *cellular.HandoverEvent     `json:"ho,omitempty"`
}

type logMeta struct {
	Carrier   string        `json:"carrier"`
	Arch      cellular.Arch `json:"arch"`
	RouteKind string        `json:"route"`
}

// Write serialises the log as JSONL: a meta line followed by time-ordered
// sample/report/ho lines.
func (l *Log) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(record{Kind: "meta", Meta: &logMeta{Carrier: l.Carrier, Arch: l.Arch, RouteKind: l.RouteKind}}); err != nil {
		return fmt.Errorf("trace: write meta: %w", err)
	}
	for i := range l.Samples {
		if err := enc.Encode(record{Kind: "sample", Sample: &l.Samples[i]}); err != nil {
			return fmt.Errorf("trace: write sample %d: %w", i, err)
		}
	}
	for i := range l.Reports {
		if err := enc.Encode(record{Kind: "report", Report: &l.Reports[i]}); err != nil {
			return fmt.Errorf("trace: write report %d: %w", i, err)
		}
	}
	for i := range l.Handovers {
		if err := enc.Encode(record{Kind: "ho", HO: &l.Handovers[i]}); err != nil {
			return fmt.Errorf("trace: write ho %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// Window extracts the samples within [from, to).
func (l *Log) Window(from, to time.Duration) []Sample {
	var out []Sample
	for _, s := range l.Samples {
		if s.Time >= from && s.Time < to {
			out = append(out, s)
		}
	}
	return out
}
