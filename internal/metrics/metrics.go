// Package metrics is the run-metrics layer for the experiment harness and
// the Prognos service: per-experiment counters collected while the paper's
// tables are regenerated (wall time, drives simulated, handover events
// processed, allocations), a machine-readable JSON run report
// (vivisect -report run.json), and the session/sample counters prognosd
// exposes over its stats endpoint. The package has no dependencies on the
// rest of the repository so every layer can record into it.
package metrics

import (
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// Experiment records how one experiment regeneration went. It is one row
// of the run report and of the summary table vivisect prints after a run.
type Experiment struct {
	// ID is the experiment id from the registry, e.g. "fig8".
	ID string `json:"id"`
	// Paper names the table/figure the experiment regenerates.
	Paper string `json:"paper"`
	// WallMS is the experiment's wall-clock time in milliseconds.
	WallMS float64 `json:"wall_ms"`
	// Rows counts the rendered table rows the experiment produced.
	Rows int `json:"rows"`
	// Drives counts the synthetic drives the experiment simulated.
	Drives int64 `json:"drives"`
	// HOEvents counts the handover events across those drives.
	HOEvents int64 `json:"ho_events"`
	// Allocs and AllocBytes are heap-allocation deltas measured around the
	// experiment (runtime.MemStats). The runtime only exposes process-wide
	// totals, so with more than one worker the numbers include concurrent
	// experiments; they are exact at -jobs 1.
	Allocs     uint64 `json:"allocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	// Err is the failure message, empty on success.
	Err string `json:"error,omitempty"`
	// Skipped marks experiments cancelled before they started (fail-fast).
	Skipped bool `json:"skipped,omitempty"`
}

// Report is the machine-readable run report vivisect emits with -report:
// the run configuration plus one Experiment entry per spec, in registry
// order.
type Report struct {
	// Seed and Scale are the experiments.Options the run used.
	Seed  int64   `json:"seed"`
	Scale float64 `json:"scale"`
	// Jobs is the worker-pool size the run used (1 = sequential).
	Jobs int `json:"jobs"`
	// GoMaxProcs records runtime.GOMAXPROCS(0) at run time.
	GoMaxProcs int `json:"gomaxprocs"`
	// WallMS is the whole run's wall-clock time in milliseconds.
	WallMS float64 `json:"wall_ms"`
	// Experiments holds the per-experiment metrics in registry order.
	Experiments []Experiment `json:"experiments"`
}

// WriteJSON writes v to path as indented JSON plus a newline: the file
// format of the run, sweep and holoop reports. Struct tags fix the key
// order, so equal reports write equal bytes.
func WriteJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("metrics: marshal report: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("metrics: write report: %w", err)
	}
	return nil
}

// Probe counts the simulator work attributable to one experiment. The
// runner hands every spec its own probe via Options.WithProbe, and the
// drive helpers credit each completed drive to it; counters are atomic so
// an experiment may itself fan drives out across goroutines later.
type Probe struct {
	drives   atomic.Int64
	hoEvents atomic.Int64
}

// ObserveDrive credits one completed drive carrying hoEvents handovers.
func (p *Probe) ObserveDrive(hoEvents int) {
	p.drives.Add(1)
	p.hoEvents.Add(int64(hoEvents))
}

// Drives returns the number of drives observed so far.
func (p *Probe) Drives() int64 { return p.drives.Load() }

// HOEvents returns the number of handover events observed so far.
func (p *Probe) HOEvents() int64 { return p.hoEvents.Load() }

// Counter names one stored server counter: an index into ServerStats and
// into Counters. The constants follow ServerSnapshot's int64 fields in
// order, less ReplicationLagUS, which a clock derives at snapshot time.
type Counter int

// The stored server counters.
const (
	Sessions Counter = iota
	Active
	Samples
	Reports
	Handovers
	Predictions
	Rejected
	SessionErrors
	Oversized
	Interrupted
	Resumed
	Parked
	ParkedExpired
	CheckpointSaves
	CheckpointRestores
	CheckpointBytes
	Redirected
	MigratedOut
	MigratedIn
	MigratedResumes
	MigrationBytesOut
	MigrationBytesIn
	MigrationPasses
	MigrationLastUS
	ReplicationPushes
	ReplicationBytesOut
	ReplicationBytesIn
	ReplicaSessions
	PeerSuspects
	Failovers
	numCounters
)

// CounterSpec declares one stored server counter: the ServerSnapshot
// field it lands in, the series the ops plane exposes it as, and how a
// cluster aggregate combines it.
type CounterSpec struct {
	// Field selects the counter's ServerSnapshot field.
	Field func(*ServerSnapshot) *int64
	// Name and Help are the Prometheus series name and HELP text.
	Name, Help string
	// Gauge marks a value that can go down; the rest are counters.
	Gauge bool
	// Max makes an aggregate keep the largest member's value instead of
	// the sum.
	Max bool
	// Div, when set, divides the stored value into the exposed unit (1e6
	// for microseconds exposed as seconds).
	Div float64
}

// counter and gauge build the rows of a plain counter and a plain gauge.
func counter(field func(*ServerSnapshot) *int64, name, help string) CounterSpec {
	return CounterSpec{Field: field, Name: name, Help: help}
}

func gauge(field func(*ServerSnapshot) *int64, name, help string) CounterSpec {
	return CounterSpec{Field: field, Name: name, Help: help, Gauge: true}
}

// Counters is the one list of stored server counters, indexed by Counter.
// ServerStats.Snapshot, Aggregate and the ops plane's exposition all loop
// over it, so a new counter is a constant, a row here and a ServerSnapshot
// field.
var Counters = [numCounters]CounterSpec{
	Sessions: counter(func(s *ServerSnapshot) *int64 { return &s.Sessions },
		"prognos_sessions_total", "Prediction sessions accepted since start."),
	Active: gauge(func(s *ServerSnapshot) *int64 { return &s.Active },
		"prognos_active_sessions", "Prediction sessions currently open."),
	Samples: counter(func(s *ServerSnapshot) *int64 { return &s.Samples },
		"prognos_samples_total", "Radio samples streamed in by clients."),
	Reports: counter(func(s *ServerSnapshot) *int64 { return &s.Reports },
		"prognos_reports_total", "Sniffed measurement reports streamed in."),
	Handovers: counter(func(s *ServerSnapshot) *int64 { return &s.Handovers },
		"prognos_handovers_total", "Sniffed handover commands streamed in."),
	Predictions: counter(func(s *ServerSnapshot) *int64 { return &s.Predictions },
		"prognos_predictions_total", "Prediction lines returned to clients."),
	Rejected: counter(func(s *ServerSnapshot) *int64 { return &s.Rejected },
		"prognos_rejected_sessions_total", "Sessions turned away at the MaxSessions limit."),
	SessionErrors: counter(func(s *ServerSnapshot) *int64 { return &s.SessionErrors },
		"prognos_session_errors_total", "Sessions that ended with a protocol or engine error."),
	Oversized: counter(func(s *ServerSnapshot) *int64 { return &s.Oversized },
		"prognos_oversized_records_total", "Input records dropped for exceeding the line limit."),
	Interrupted: counter(func(s *ServerSnapshot) *int64 { return &s.Interrupted },
		"prognos_interrupted_sessions_total", "Resumable sessions cut by a transport fault and parked."),
	Resumed: counter(func(s *ServerSnapshot) *int64 { return &s.Resumed },
		"prognos_resumed_sessions_total", "Reconnects that re-attached a parked warm instance."),
	Parked: gauge(func(s *ServerSnapshot) *int64 { return &s.Parked },
		"prognos_parked_sessions", "Warm instances currently parked awaiting resume."),
	ParkedExpired: counter(func(s *ServerSnapshot) *int64 { return &s.ParkedExpired },
		"prognos_expired_parked_sessions_total", "Parked sessions dropped at the end of their grace window."),
	CheckpointSaves: counter(func(s *ServerSnapshot) *int64 { return &s.CheckpointSaves },
		"prognos_checkpoint_saves_total", "Checkpoint write passes completed."),
	CheckpointRestores: counter(func(s *ServerSnapshot) *int64 { return &s.CheckpointRestores },
		"prognos_checkpoint_restores_total", "Snapshots restored from checkpoint files at startup."),
	CheckpointBytes: gauge(func(s *ServerSnapshot) *int64 { return &s.CheckpointBytes },
		"prognos_checkpoint_bytes", "Bytes published by the most recent checkpoint pass."),
	Redirected: counter(func(s *ServerSnapshot) *int64 { return &s.Redirected },
		"prognos_redirected_sessions_total", "Sessions answered with a redirect to their cluster ring owner."),
	MigratedOut: counter(func(s *ServerSnapshot) *int64 { return &s.MigratedOut },
		"prognos_migrated_out_sessions_total", "Warm session states shipped to peer cluster nodes."),
	MigratedIn: counter(func(s *ServerSnapshot) *int64 { return &s.MigratedIn },
		"prognos_migrated_in_sessions_total", "Warm session states installed from peer cluster nodes."),
	MigratedResumes: counter(func(s *ServerSnapshot) *int64 { return &s.MigratedResumes },
		"prognos_migrated_resumes_total", "Resumes served from state that arrived by cluster migration."),
	MigrationBytesOut: counter(func(s *ServerSnapshot) *int64 { return &s.MigrationBytesOut },
		"prognos_migration_bytes_out_total", "Migration payload bytes shipped to peer nodes."),
	MigrationBytesIn: counter(func(s *ServerSnapshot) *int64 { return &s.MigrationBytesIn },
		"prognos_migration_bytes_in_total", "Migration payload bytes received from peer nodes."),
	MigrationPasses: counter(func(s *ServerSnapshot) *int64 { return &s.MigrationPasses },
		"prognos_migration_passes_total", "Outbound cluster drain/rebalance passes completed."),
	MigrationLastUS: {Field: func(s *ServerSnapshot) *int64 { return &s.MigrationLastUS },
		Name: "prognos_migration_last_seconds", Help: "Duration of the most recent outbound migration pass.",
		Gauge: true, Max: true, Div: 1e6},
	ReplicationPushes: counter(func(s *ServerSnapshot) *int64 { return &s.ReplicationPushes },
		"prognos_replication_pushes_total", "Outbound async warm-state replication passes completed."),
	ReplicationBytesOut: counter(func(s *ServerSnapshot) *int64 { return &s.ReplicationBytesOut },
		"prognos_replication_bytes_total", "Replication payload bytes shipped to ring successors."),
	ReplicationBytesIn: counter(func(s *ServerSnapshot) *int64 { return &s.ReplicationBytesIn },
		"prognos_replication_bytes_in_total", "Replication payload bytes received from peer nodes."),
	ReplicaSessions: gauge(func(s *ServerSnapshot) *int64 { return &s.ReplicaSessions },
		"prognos_replica_sessions", "Peer session states held passively for crash failover."),
	PeerSuspects: gauge(func(s *ServerSnapshot) *int64 { return &s.PeerSuspects },
		"prognos_peer_suspect", "Ring peers the failure detector currently holds down."),
	Failovers: counter(func(s *ServerSnapshot) *int64 { return &s.Failovers },
		"prognos_failovers_total", "Sessions promoted from replicated state after a confirmed owner crash."),
}

// ServerStats holds the liveness counters of a Prognos service: one atomic
// per Counter, the clocks behind uptime and replication lag, and the
// serving-latency histogram. All methods are safe for concurrent sessions.
type ServerStats struct {
	start    time.Time
	counters [numCounters]atomic.Int64
	lastPush atomic.Int64 // unix µs of the last outbound replication push
	latency  Histogram
}

// NewServerStats returns a stats block with the uptime clock started.
func NewServerStats() *ServerStats {
	return &ServerStats{start: time.Now()}
}

// Add moves counter c by n; a negative n lowers a gauge.
func (s *ServerStats) Add(c Counter, n int64) { s.counters[c].Add(n) }

// Set stores v as counter c: for the gauges that hold the latest pass's
// figure, CheckpointBytes and MigrationLastUS.
func (s *ServerStats) Set(c Counter, v int64) { s.counters[c].Store(v) }

// ReplicationPushed records one outbound async replication pass shipping
// n payload bytes to ring successors; the push timestamp feeds the
// replication-lag gauge.
func (s *ServerStats) ReplicationPushed(n int64) {
	s.Add(ReplicationPushes, 1)
	s.Add(ReplicationBytesOut, n)
	s.lastPush.Store(time.Now().UnixMicro())
}

// ObserveLatency records one request's server-side serving latency.
func (s *ServerStats) ObserveLatency(d time.Duration) { s.latency.Observe(d) }

// Snapshot returns a consistent-enough copy of the counters for export.
func (s *ServerStats) Snapshot() ServerSnapshot {
	snap := ServerSnapshot{UptimeMS: float64(time.Since(s.start)) / float64(time.Millisecond)}
	for c := range s.counters {
		*Counters[c].Field(&snap) = s.counters[c].Load()
	}
	snap.ReplicationLagUS = s.replicationLag()
	snap.Latency = s.latency.Snapshot()
	return snap
}

// replicationLag is the age of the last outbound replication push in
// microseconds — the bounded-staleness gauge: a crash of this node loses
// at most the samples accumulated over this window. Zero until the first
// push (replication off, or not yet started).
func (s *ServerStats) replicationLag() int64 {
	last := s.lastPush.Load()
	if last <= 0 {
		return 0
	}
	if lag := time.Now().UnixMicro() - last; lag > 0 {
		return lag
	}
	return 0
}

// ServerSnapshot is the JSON shape of a ServerStats export: what prognosd
// returns for a {"stats":true} hello and prints at shutdown. Every int64
// field but ReplicationLagUS is one stored Counter, described by the HELP
// text of its row in Counters.
type ServerSnapshot struct {
	// UptimeMS is the service uptime in milliseconds.
	UptimeMS      float64 `json:"uptime_ms"`
	Sessions      int64   `json:"sessions"`
	Active        int64   `json:"active_sessions"`
	Samples       int64   `json:"samples"`
	Reports       int64   `json:"reports"`
	Handovers     int64   `json:"handovers"`
	Predictions   int64   `json:"predictions"`
	Rejected      int64   `json:"rejected_sessions"`
	SessionErrors int64   `json:"session_errors"`
	Oversized     int64   `json:"oversized_records"`

	Interrupted        int64 `json:"interrupted_sessions"`
	Resumed            int64 `json:"resumed_sessions"`
	Parked             int64 `json:"parked_sessions"`
	ParkedExpired      int64 `json:"expired_parked_sessions"`
	CheckpointSaves    int64 `json:"checkpoint_saves"`
	CheckpointRestores int64 `json:"checkpoint_restores"`
	CheckpointBytes    int64 `json:"checkpoint_bytes"`

	Redirected        int64 `json:"redirected_sessions"`
	MigratedOut       int64 `json:"migrated_out_sessions"`
	MigratedIn        int64 `json:"migrated_in_sessions"`
	MigratedResumes   int64 `json:"migrated_resumes"`
	MigrationBytesOut int64 `json:"migration_bytes_out"`
	MigrationBytesIn  int64 `json:"migration_bytes_in"`
	MigrationPasses   int64 `json:"migration_passes"`
	MigrationLastUS   int64 `json:"migration_last_us"`

	ReplicationPushes   int64 `json:"replication_pushes"`
	ReplicationBytesOut int64 `json:"replication_bytes_out"`
	ReplicationBytesIn  int64 `json:"replication_bytes_in"`
	// ReplicationLagUS is the age of the most recent outbound replication
	// push: the bounded-staleness window a crash of this node can lose.
	ReplicationLagUS int64 `json:"replication_lag_us"`
	// ReplicaSessions is never folded into Parked, so a token held both
	// locally and as a replica counts once in each.
	ReplicaSessions int64 `json:"replica_sessions"`
	PeerSuspects    int64 `json:"peer_suspects"`
	Failovers       int64 `json:"failovers"`
	// Latency is the server-side per-sample serving latency histogram
	// (OnSample through response flush), the source of the ops plane's
	// prognos_request_latency_seconds series.
	Latency LatencySnapshot `json:"latency"`
}

// Aggregate is the server-side snapshot of a set of cluster members, or
// of one node's server generations. A lone snapshot passes through whole,
// latency histogram included. Several sum their counters, except that
// uptime, replication lag (the stalest member bounds the cluster's
// staleness) and the counters marked Max keep the largest member's value;
// live gauges such as active and parked sessions sum. The histograms do
// not sum (sparse buckets), so the result has none.
func Aggregate(snaps []ServerSnapshot) ServerSnapshot {
	if len(snaps) == 1 {
		return snaps[0]
	}
	var a ServerSnapshot
	for i := range snaps {
		b := &snaps[i]
		a.UptimeMS = max(a.UptimeMS, b.UptimeMS)
		a.ReplicationLagUS = max(a.ReplicationLagUS, b.ReplicationLagUS)
		for _, spec := range Counters {
			sum, v := spec.Field(&a), *spec.Field(b)
			if spec.Max {
				*sum = max(*sum, v)
			} else {
				*sum += v
			}
		}
	}
	return a
}
