// Cluster state transfer, server side: the one path that moves warm
// session state between nodes (docs/PROTOCOL.md §State-transfer frames).
// Drain migration and crash replication ship the same cluster.SessionState
// over the same frames; the hello fixes, per stream, the disposition the
// receiver applies. Serve (a "migrate" hello, a drain handoff) parks each
// session at once, replay buffer and resume cursor intact, so the UE's
// next reconnect resumes warm with exact replay. Hold (a "replicate"
// hello, replicate.go) keeps it as a passive replica until the failure
// detector confirms its origin down.

package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/ran"
	"repro/internal/wire"
)

// newPrognos builds the learner for the session st names. Every server-side
// Prognos comes from here — fresh sessions, drain installs and replica
// promotions alike — so a session keeps its configuration whichever node
// serves it.
func newPrognos(st cluster.SessionState) (*core.Prognos, error) {
	return core.New(core.Config{
		EventConfigs:       ran.EventConfigsFor(st.Carrier, st.Arch),
		Arch:               st.Arch,
		UseReportPredictor: !st.DisableReportPredictor,
	})
}

// serveTransfer runs the receiving side of one state-transfer stream:
// binary framing only, FrameMigrate in, FrameMigrateAck out, one ack per
// state in order. hold is the stream's disposition (see installState).
// Transfer streams hold no MaxSessions slot and touch no session counters
// — they are cluster control plane, not serving load — and transport
// faults mid-stream are interruptions, not session errors: the shipper may
// be a node dying mid-push, and a crash already under way must not inflate
// this node's error counters.
func (s *Server) serveTransfer(hello *wire.Hello, br *bufio.Reader, w *bufio.Writer, framing wire.Framing, hold bool) (codec, error) {
	if hold && s.opts.Cluster == nil {
		return nil, errors.New("server: replication stream on a non-clustered server")
	}
	if framing != wire.FramingBinary {
		return nil, errors.New("server: state-transfer streams require the binary framing")
	}
	cdc, err := ackBinary(br, w)
	if err != nil {
		return nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	fr, fw := cdc.fr, cdc.fw
	var seq int64
	for {
		typ, p, err := fr.ReadFrame()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return cdc, w.Flush()
			}
			if errors.Is(err, wire.ErrFrameTooLarge) {
				return cdc, err
			}
			return cdc, errInterrupted
		}
		if typ != wire.FrameMigrate {
			return cdc, fmt.Errorf("server: unexpected frame type 0x%02x in state-transfer stream", typ)
		}
		seq++
		if hold {
			s.stats.Add(metrics.ReplicationBytesIn, int64(len(p)))
		} else {
			s.stats.Add(metrics.MigrationBytesIn, int64(len(p)))
		}
		var st cluster.SessionState
		ok := json.Unmarshal(p, &st) == nil
		st.Origin = hello.Node
		ok = ok && s.installState(st, hold) == nil
		if err := fw.WriteMigrateAck(wire.MigrateAck{OK: ok, Seq: seq}); err != nil {
			return cdc, errInterrupted
		}
		// Coalesce ack flushes exactly like the serving path: hold them
		// while more shipped frames are already buffered.
		if fr.Buffered() == 0 {
			if err := w.Flush(); err != nil {
				return cdc, errInterrupted
			}
		}
	}
}

// installState folds one shipped state, its Origin naming the shipping
// node, into this node. Context states (no token) merge into the warm
// store under either disposition. Session states are parked for serving
// now, or — with hold — kept in the replica table with a fresh expiry,
// never in the parked table, so prognos_parked_sessions is never
// double-counted.
func (s *Server) installState(st cluster.SessionState, hold bool) error {
	if st.Version > cluster.SessionStateVersion {
		return fmt.Errorf("server: shipped state version %d is newer than %d", st.Version, cluster.SessionStateVersion)
	}
	if st.Carrier == "" {
		return errors.New("server: shipped state without carrier")
	}
	if st.Token == "" {
		// Context-level warm snapshot, like a restored checkpoint.
		s.pushWarm(st.Carrier, st.Arch, st.Snapshot)
		return nil
	}
	if s.opts.ResumeGrace <= 0 {
		// Without a resume grace window this node cannot hold parked
		// state; nacking lets the shipper account the session as rejected
		// instead of silently downgrading it to a cold resume.
		return errors.New("server: resume disabled, cannot hold shipped session")
	}
	if hold {
		// Latest push wins; only a token new to the table moves the gauge.
		if replaced, _ := s.replicas.put(st.Token, st, time.Now().Add(s.opts.ResumeGrace)); !replaced {
			s.stats.Add(metrics.ReplicaSessions, 1)
		}
		return nil
	}
	if err := s.parkState(st, false); err != nil {
		return err
	}
	s.stats.Add(metrics.MigratedIn, 1)
	s.opts.Tracer.Emit(obs.Event{
		Kind:    obs.EvMigrateIn,
		Session: st.Token,
		Carrier: st.Carrier,
		Arch:    st.Arch.String(),
		RespSeq: st.Seq,
		Detail:  "from " + st.Origin,
	})
	return nil
}

// parkState rebuilds a shipped session around a fresh Prognos instance and
// parks it with a fresh grace window: the one rebuild shared by drain
// install and replica promotion. Full states restore their learner
// exactly; partial states (live-session replication pushes) carry no
// learner snapshot, so the learner warm-starts from the separately
// shipped context snapshot instead, and the parked state ships as a full
// one. replica marks promoted state, whose cursor may trail the client's
// (see parkedSession).
func (s *Server) parkState(st cluster.SessionState, replica bool) error {
	prog, err := newPrognos(st)
	if err != nil {
		return err
	}
	if st.Partial {
		if snap, ok := s.warmSnapshot(st.Carrier, st.Arch); ok {
			prog.Bootstrap(snap.Learner.Patterns)
		}
	} else {
		prog.Restore(st.Snapshot)
	}
	buf := newReplayBuffer(replayBufCap)
	for _, r := range st.Responses {
		buf.push(r)
	}
	st.Version, st.Origin, st.Partial, st.Responses = 0, "", false, nil
	s.park(&parkedSession{st: st, prog: prog, buf: buf, migrated: true, replica: replica})
	return nil
}

// shipRound runs one outbound state-transfer round with the disposition
// hold picks (ShipReplicas, else Ship): each session state goes to its
// token's owner on rest — the ring without this node — and every warm
// context snapshot to every peer, so wherever a token without session
// state re-lands, the learned patterns are waiting. Peers the detector has
// confirmed down are skipped rather than letting a dead successor stall
// the round. Best-effort per target: total counts every state a peer
// acked, even on a stream that failed afterwards; targets counts the
// streams that completed; firstErr is the first per-target failure.
func (s *Server) shipRound(rest *cluster.Ring, sessions map[string]cluster.SessionState, hold bool, timeout time.Duration) (total cluster.ShipStats, targets int, firstErr error) {
	byTarget := make(map[string][]cluster.SessionState)
	for token, st := range sessions {
		target := rest.Owner(token)
		byTarget[target] = append(byTarget[target], st)
	}
	var contexts []cluster.SessionState
	for k, snap := range s.warm.all() {
		contexts = append(contexts, cluster.SessionState{Carrier: k.carrier, Arch: k.arch, Snapshot: snap})
	}
	ship := cluster.Ship
	if hold {
		ship = cluster.ShipReplicas
	}
	for _, target := range rest.Members() {
		states := append(byTarget[target], contexts...)
		if len(states) == 0 {
			continue
		}
		if s.detector != nil && s.detector.Down(target) {
			if firstErr == nil {
				firstErr = fmt.Errorf("server: skipped %s, confirmed down", target)
			}
			continue
		}
		st, err := ship(target, s.opts.NodeAddr, states, timeout)
		total.Sessions += st.Sessions
		total.Contexts += st.Contexts
		total.Rejected += st.Rejected
		total.Bytes += st.Bytes
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		targets++
	}
	return total, targets, firstErr
}

// DrainStats accounts one DrainToCluster pass.
type DrainStats struct {
	// Forced counts in-flight sessions force-closed into the parked table.
	Forced int
	// ShipStats sums the round over its targets: the states the peers
	// accepted and nacked, and the migration payload shipped.
	cluster.ShipStats
	// Targets is the number of peer nodes shipped to, Elapsed the whole
	// pass's wall time.
	Targets int
	Elapsed time.Duration
	// LocalFallback reports that no peer could be reached at all, so the
	// drain fell back to local persistence: everything that would have
	// shipped stays merged in the warm store and (if configured) the
	// final checkpoint. Not an error — the state survives locally and the
	// summary says so — whereas a partial ship failure still surfaces one.
	LocalFallback bool
}

// Summary renders the pass for operator logs, naming the fallback
// explicitly when every peer was unreachable.
func (ds DrainStats) Summary() string {
	if ds.LocalFallback {
		return fmt.Sprintf(
			"drain: no reachable peers; fell back to local persistence (forced %d sessions; learned state kept in the warm store and local checkpoint) in %v",
			ds.Forced, ds.Elapsed.Round(time.Millisecond))
	}
	return fmt.Sprintf(
		"drain: %d sessions + %d contexts to %d targets (%d rejected, %d bytes, forced %d) in %v",
		ds.Sessions, ds.Contexts, ds.Targets, ds.Rejected, ds.Bytes, ds.Forced,
		ds.Elapsed.Round(time.Millisecond))
}

// DrainToCluster drains this node into its cluster: it stops accepting,
// cuts in-flight sessions so they park (resumable sessions park on
// transport fault — the same zero-loss path a crash exercises, except
// deliberate), then runs one state-transfer round with the serve
// disposition over every parked session. Shipping is best-effort per
// target: states a peer could not take were still merged into this node's
// warm store and checkpoint (if configured), so the worst case is a cold
// resume, never a lost sample. The per-target timeout bounds each
// migration stream.
func (s *Server) DrainToCluster(timeout time.Duration) (DrainStats, error) {
	start := time.Now()
	var ds DrainStats
	if s.opts.Cluster == nil {
		return ds, errors.New("server: DrainToCluster on a server without a cluster ring")
	}
	rest, err := s.opts.Cluster.Without(s.opts.NodeAddr)
	if err != nil {
		return ds, fmt.Errorf("server: no drain successors: %w", err)
	}

	// Stop accepting and cut the in-flight sessions. Each resumable
	// session's serve goroutine parks its warm state on the way out, so
	// once they have unwound the parked table holds everything worth
	// shipping.
	s.stopAccept()
	ds.Forced = s.cutSessions()

	// Ship every parked session, expired or not: the target re-arms
	// expiry on install.
	sessions := make(map[string]cluster.SessionState)
	for token, p := range s.parked.drain() {
		s.stats.Add(metrics.Parked, -1)
		sessions[token] = p.state()
	}
	var firstErr error
	ds.ShipStats, ds.Targets, firstErr = s.shipRound(rest, sessions, false, timeout)
	s.stats.Add(metrics.MigratedOut, int64(ds.Sessions))
	ds.Elapsed = time.Since(start)
	s.stats.Add(metrics.MigrationPasses, 1)
	s.stats.Add(metrics.MigrationBytesOut, ds.Bytes)
	s.stats.Set(metrics.MigrationLastUS, ds.Elapsed.Microseconds())
	s.opts.Tracer.Emit(obs.Event{
		Kind:  obs.EvMigrateOut,
		Bytes: ds.Bytes,
		Detail: fmt.Sprintf("%d sessions, %d contexts to %d targets in %v",
			ds.Sessions, ds.Contexts, ds.Targets, ds.Elapsed.Round(time.Millisecond)),
	})
	if s.opts.CheckpointDir != "" {
		// The checkpoint is the fallback for anything a peer nacked.
		s.CheckpointNow()
	}
	if ds.Targets == 0 && firstErr != nil {
		// Every peer was unreachable (a partitioned or wholly-crashed
		// cluster): not a drain failure. Everything that would have
		// shipped was already merged into the warm store when it parked,
		// and the checkpoint above (when configured) persisted it — the
		// worst case on restart is a cold resume warmed by that state.
		// Surfacing an error here would make callers treat a survivable
		// shutdown as a failed one.
		ds.LocalFallback = true
		firstErr = nil
	}
	return ds, firstErr
}
