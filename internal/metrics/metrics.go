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

// Marshal renders the report as indented JSON.
func (r Report) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("metrics: marshal report: %w", err)
	}
	return append(b, '\n'), nil
}

// WriteFile writes the report as indented JSON to path.
func (r Report) WriteFile(path string) error {
	b, err := r.Marshal()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
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

// ServerStats aggregates the liveness counters of a Prognos service:
// sessions served, observations streamed, predictions returned. All
// methods are safe for concurrent sessions.
type ServerStats struct {
	start         time.Time
	sessions      atomic.Int64
	active        atomic.Int64
	samples       atomic.Int64
	reports       atomic.Int64
	handovers     atomic.Int64
	predictions   atomic.Int64
	rejected      atomic.Int64
	sessionErrors atomic.Int64
	oversized     atomic.Int64

	interrupted     atomic.Int64
	resumed         atomic.Int64
	parked          atomic.Int64
	parkedExpired   atomic.Int64
	checkpointSaves atomic.Int64
	checkpointLoads atomic.Int64
	checkpointBytes atomic.Int64

	redirected        atomic.Int64
	migratedOut       atomic.Int64
	migratedIn        atomic.Int64
	migratedResumes   atomic.Int64
	migrationBytesOut atomic.Int64
	migrationBytesIn  atomic.Int64
	migrationPasses   atomic.Int64
	migrationLastUS   atomic.Int64

	replicationPushes    atomic.Int64
	replicationBytesOut  atomic.Int64
	replicationBytesIn   atomic.Int64
	replicationLastPushU atomic.Int64 // unix µs of the last outbound push
	replicaSessions      atomic.Int64
	peerSuspects         atomic.Int64
	failovers            atomic.Int64

	latency Histogram
}

// NewServerStats returns a stats block with the uptime clock started.
func NewServerStats() *ServerStats {
	return &ServerStats{start: time.Now()}
}

// SessionOpened records a new prediction session.
func (s *ServerStats) SessionOpened() {
	s.sessions.Add(1)
	s.active.Add(1)
}

// SessionClosed records the end of a prediction session.
func (s *ServerStats) SessionClosed() { s.active.Add(-1) }

// AddSample records one streamed radio sample.
func (s *ServerStats) AddSample() { s.samples.Add(1) }

// AddReport records one sniffed measurement report.
func (s *ServerStats) AddReport() { s.reports.Add(1) }

// AddHandover records one sniffed handover command.
func (s *ServerStats) AddHandover() { s.handovers.Add(1) }

// AddPrediction records one prediction returned to a client.
func (s *ServerStats) AddPrediction() { s.predictions.Add(1) }

// SessionRejected records a session turned away at the concurrency limit.
func (s *ServerStats) SessionRejected() { s.rejected.Add(1) }

// SessionError records a session that ended with an error (bad hello,
// malformed record, deadline expiry, oversized input, ...).
func (s *ServerStats) SessionError() { s.sessionErrors.Add(1) }

// AddOversized records one input record that exceeded the line limit.
func (s *ServerStats) AddOversized() { s.oversized.Add(1) }

// SessionInterrupted records a resumable session cut by a transport fault
// and parked for reconnection (not counted as a session error).
func (s *ServerStats) SessionInterrupted() { s.interrupted.Add(1) }

// SessionResumed records a reconnecting client re-attached to its parked
// warm Prognos instance.
func (s *ServerStats) SessionResumed() { s.resumed.Add(1) }

// SessionParked / SessionUnparked move the parked-session gauge.
func (s *ServerStats) SessionParked() int64   { return s.parked.Add(1) }
func (s *ServerStats) SessionUnparked() int64 { return s.parked.Add(-1) }

// ParkedExpired records a parked session dropped at the end of its resume
// grace window (or evicted at the parked-table bound).
func (s *ServerStats) ParkedExpired() { s.parkedExpired.Add(1) }

// CheckpointSaved records one checkpoint write pass publishing n bytes of
// snapshot state; the byte gauge tracks the latest pass's total size.
func (s *ServerStats) CheckpointSaved(n int64) {
	s.checkpointSaves.Add(1)
	s.checkpointBytes.Store(n)
}

// CheckpointRestored records one (carrier, arch) snapshot restored from
// disk at startup.
func (s *ServerStats) CheckpointRestored() { s.checkpointLoads.Add(1) }

// SessionRedirected records a session turned away with a redirect to the
// cluster node that owns its token (not a session error: the client
// re-dials and is served there).
func (s *ServerStats) SessionRedirected() { s.redirected.Add(1) }

// SessionMigratedOut records one warm session state shipped to another
// node; SessionMigratedIn one installed from another node.
func (s *ServerStats) SessionMigratedOut() { s.migratedOut.Add(1) }
func (s *ServerStats) SessionMigratedIn()  { s.migratedIn.Add(1) }

// MigratedResume records a resumed session whose warm state arrived by
// migration rather than being parked locally — the warm-handoff success
// signal of a drain.
func (s *ServerStats) MigratedResume() { s.migratedResumes.Add(1) }

// MigrationShipped records the payload bytes of one outbound migration
// pass and its duration; MigrationReceived the inbound payload bytes.
func (s *ServerStats) MigrationShipped(bytes int64, d time.Duration) {
	s.migrationPasses.Add(1)
	s.migrationBytesOut.Add(bytes)
	s.migrationLastUS.Store(d.Microseconds())
}
func (s *ServerStats) MigrationReceived(bytes int64) { s.migrationBytesIn.Add(bytes) }

// ReplicationPushed records one outbound async replication pass shipping
// n payload bytes to ring successors; the push timestamp feeds the
// replication-lag gauge. ReplicationReceived records inbound replica
// payload bytes installed from a peer.
func (s *ServerStats) ReplicationPushed(bytes int64) {
	s.replicationPushes.Add(1)
	s.replicationBytesOut.Add(bytes)
	s.replicationLastPushU.Store(time.Now().UnixMicro())
}
func (s *ServerStats) ReplicationReceived(bytes int64) { s.replicationBytesIn.Add(bytes) }

// ReplicaStored / ReplicaDropped move the replica-session gauge: the
// number of peer session states held passively for crash failover. The
// gauge is deliberately separate from the parked-session gauge so a token
// that exists both locally and as a replica is never double-counted in
// prognos_parked_sessions.
func (s *ServerStats) ReplicaStored() int64  { return s.replicaSessions.Add(1) }
func (s *ServerStats) ReplicaDropped() int64 { return s.replicaSessions.Add(-1) }

// PeerSuspected / PeerRecovered move the suspect-peer gauge maintained by
// the failure detector.
func (s *ServerStats) PeerSuspected() int64 { return s.peerSuspects.Add(1) }
func (s *ServerStats) PeerRecovered() int64 { return s.peerSuspects.Add(-1) }

// Failover records one session promoted from replicated state after its
// ring owner was confirmed down.
func (s *ServerStats) Failover() { s.failovers.Add(1) }

// ObserveLatency records one request's server-side serving latency (for
// the prediction path: sample decode through response flush).
func (s *ServerStats) ObserveLatency(d time.Duration) { s.latency.Observe(d) }

// Snapshot returns a consistent-enough copy of the counters for export.
func (s *ServerStats) Snapshot() ServerSnapshot {
	return ServerSnapshot{
		UptimeMS:      float64(time.Since(s.start)) / float64(time.Millisecond),
		Sessions:      s.sessions.Load(),
		Active:        s.active.Load(),
		Samples:       s.samples.Load(),
		Reports:       s.reports.Load(),
		Handovers:     s.handovers.Load(),
		Predictions:   s.predictions.Load(),
		Rejected:      s.rejected.Load(),
		SessionErrors: s.sessionErrors.Load(),
		Oversized:     s.oversized.Load(),

		Interrupted:        s.interrupted.Load(),
		Resumed:            s.resumed.Load(),
		Parked:             s.parked.Load(),
		ParkedExpired:      s.parkedExpired.Load(),
		CheckpointSaves:    s.checkpointSaves.Load(),
		CheckpointRestores: s.checkpointLoads.Load(),
		CheckpointBytes:    s.checkpointBytes.Load(),

		Redirected:        s.redirected.Load(),
		MigratedOut:       s.migratedOut.Load(),
		MigratedIn:        s.migratedIn.Load(),
		MigratedResumes:   s.migratedResumes.Load(),
		MigrationBytesOut: s.migrationBytesOut.Load(),
		MigrationBytesIn:  s.migrationBytesIn.Load(),
		MigrationPasses:   s.migrationPasses.Load(),
		MigrationLastUS:   s.migrationLastUS.Load(),

		ReplicationPushes:   s.replicationPushes.Load(),
		ReplicationBytesOut: s.replicationBytesOut.Load(),
		ReplicationBytesIn:  s.replicationBytesIn.Load(),
		ReplicationLagUS:    s.replicationLag(),
		ReplicaSessions:     s.replicaSessions.Load(),
		PeerSuspects:        s.peerSuspects.Load(),
		Failovers:           s.failovers.Load(),

		Latency: s.latency.Snapshot(),
	}
}

// replicationLag is the age of the last outbound replication push in
// microseconds — the bounded-staleness gauge: a crash of this node loses
// at most the samples accumulated over this window. Zero until the first
// push (replication off, or not yet started).
func (s *ServerStats) replicationLag() int64 {
	last := s.replicationLastPushU.Load()
	if last <= 0 {
		return 0
	}
	if lag := time.Now().UnixMicro() - last; lag > 0 {
		return lag
	}
	return 0
}

// ServerSnapshot is the JSON shape of a ServerStats export: what prognosd
// returns for a {"stats":true} hello and prints at shutdown.
type ServerSnapshot struct {
	// UptimeMS is the service uptime in milliseconds.
	UptimeMS float64 `json:"uptime_ms"`
	// Sessions counts sessions accepted since start; Active counts the
	// sessions currently open.
	Sessions int64 `json:"sessions"`
	Active   int64 `json:"active_sessions"`
	// Samples, Reports and Handovers count the streamed observations by
	// record kind; Predictions counts prediction lines returned.
	Samples     int64 `json:"samples"`
	Reports     int64 `json:"reports"`
	Handovers   int64 `json:"handovers"`
	Predictions int64 `json:"predictions"`
	// Rejected counts sessions turned away at the MaxSessions limit,
	// SessionErrors counts sessions that ended with an error, and
	// Oversized counts input records dropped for exceeding the line limit.
	Rejected      int64 `json:"rejected_sessions"`
	SessionErrors int64 `json:"session_errors"`
	Oversized     int64 `json:"oversized_records"`
	// Interrupted counts resumable sessions cut by a transport fault and
	// parked; Resumed counts reconnects that re-attached a warm instance.
	// Parked is the current parked-session gauge and ParkedExpired counts
	// parked sessions dropped at the end of their grace window.
	Interrupted   int64 `json:"interrupted_sessions"`
	Resumed       int64 `json:"resumed_sessions"`
	Parked        int64 `json:"parked_sessions"`
	ParkedExpired int64 `json:"expired_parked_sessions"`
	// CheckpointSaves counts checkpoint write passes, CheckpointRestores
	// the snapshots restored at startup, and CheckpointBytes the total
	// size of the most recent write pass.
	CheckpointSaves    int64 `json:"checkpoint_saves"`
	CheckpointRestores int64 `json:"checkpoint_restores"`
	CheckpointBytes    int64 `json:"checkpoint_bytes"`
	// Cluster counters. Redirected counts sessions answered with a
	// redirect to their ring owner; MigratedOut/In count warm session
	// states shipped to / installed from peer nodes, MigratedResumes the
	// resumes served from migrated (rather than locally parked) state.
	// MigrationBytesOut/In total the migration payload bytes moved,
	// MigrationPasses the outbound drain/rebalance passes, and
	// MigrationLastUS the duration of the most recent pass.
	Redirected        int64 `json:"redirected_sessions"`
	MigratedOut       int64 `json:"migrated_out_sessions"`
	MigratedIn        int64 `json:"migrated_in_sessions"`
	MigratedResumes   int64 `json:"migrated_resumes"`
	MigrationBytesOut int64 `json:"migration_bytes_out"`
	MigrationBytesIn  int64 `json:"migration_bytes_in"`
	MigrationPasses   int64 `json:"migration_passes"`
	MigrationLastUS   int64 `json:"migration_last_us"`
	// Crash-fault tolerance counters. ReplicationPushes counts outbound
	// async replication passes and ReplicationBytesOut/In the replica
	// payload bytes moved; ReplicationLagUS is the age of the most recent
	// outbound push (the bounded-staleness window — what a crash of this
	// node can lose). ReplicaSessions gauges the peer session states held
	// passively for failover (never folded into Parked), PeerSuspects the
	// ring peers the failure detector currently believes down, and
	// Failovers counts sessions promoted from replicated state after a
	// confirmed owner crash.
	ReplicationPushes   int64 `json:"replication_pushes"`
	ReplicationBytesOut int64 `json:"replication_bytes_out"`
	ReplicationBytesIn  int64 `json:"replication_bytes_in"`
	ReplicationLagUS    int64 `json:"replication_lag_us"`
	ReplicaSessions     int64 `json:"replica_sessions"`
	PeerSuspects        int64 `json:"peer_suspects"`
	Failovers           int64 `json:"failovers"`
	// Latency is the server-side per-sample serving latency histogram
	// (decode through response flush), the source of the ops plane's
	// prognos_request_latency_seconds series.
	Latency LatencySnapshot `json:"latency"`
}
