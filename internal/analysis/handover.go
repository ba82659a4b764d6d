package analysis

import (
	"time"

	"repro/internal/cellular"
	"repro/internal/throughput"
	"repro/internal/trace"
)

// This file quantifies mobility-management quality for the closed-loop
// evaluation (docs/ARCHITECTURE.md §The closed loop): ping-pongs, handover
// interruption time, and the per-UE QoE summary the adaptive-vs-static
// comparison reads.

// PingPongs counts ping-pong handovers: a cell-changing handover A→B
// followed by B→A within the critical window (the classic mobility-
// robustness-optimisation definition; the paper's §6 churn analysis is the
// motivation). Only events with both endpoints identified participate —
// SCG releases have no target and cannot ping-pong by themselves.
func PingPongs(handovers []cellular.HandoverEvent, window time.Duration) int {
	count := 0
	var lastSrc, lastDst string
	var lastAt time.Duration
	valid := false
	for _, ho := range handovers {
		if ho.SourceCell == "" || ho.TargetCell == "" || ho.SourceCell == ho.TargetCell {
			continue
		}
		if valid && ho.SourceCell == lastDst && ho.TargetCell == lastSrc && ho.Time-lastAt <= window {
			count++
		}
		lastSrc, lastDst, lastAt, valid = ho.SourceCell, ho.TargetCell, ho.Time, true
	}
	return count
}

// InterruptionStats summarises handover interruption time: the T2
// (execution-stage) duration of every handover that interrupts a data
// plane, per throughput.InterruptionFor — the §5.2/§6 cost the paper's
// duplex-style mitigations target.
type InterruptionStats struct {
	// Count is the number of interrupting handovers; TotalMS / MeanMS /
	// MaxMS their T2 durations in milliseconds.
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	MeanMS  float64 `json:"mean_ms"`
	MaxMS   float64 `json:"max_ms"`
}

// Interruption computes InterruptionStats over a drive's handovers.
func Interruption(handovers []cellular.HandoverEvent) InterruptionStats {
	var out InterruptionStats
	for _, ho := range handovers {
		intr := throughput.InterruptionFor(ho.Type)
		if !intr.LTE && !intr.NR {
			continue
		}
		ms := float64(ho.T2) / float64(time.Millisecond)
		out.Count++
		out.TotalMS += ms
		if ms > out.MaxMS {
			out.MaxMS = ms
		}
	}
	if out.Count > 0 {
		out.MeanMS = out.TotalMS / float64(out.Count)
	}
	return out
}

// DefaultStallMbps is the throughput floor below which a sample counts as
// a stall (streaming-abandonment territory).
const DefaultStallMbps = 1.0

// QoESummary collapses a drive's samples into drive-level numbers: the
// mean throughput and the fraction of samples at or below the stall
// floor. stallMbps ≤ 0 uses DefaultStallMbps.
func QoESummary(samples []trace.Sample, stallMbps float64) (meanMbps, stallFrac float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	if stallMbps <= 0 {
		stallMbps = DefaultStallMbps
	}
	var sum float64
	stalls := 0
	for _, s := range samples {
		sum += s.TputMbps
		if s.TputMbps <= stallMbps {
			stalls++
		}
	}
	return sum / float64(len(samples)), float64(stalls) / float64(len(samples))
}
