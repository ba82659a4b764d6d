// Crash-fault tolerance, server side. Where a drain moves warm state
// deliberately, this file moves it preemptively: every ReplicationInterval
// the node runs a state-transfer round with the hold disposition
// (transfer.go), pushing its live-session resume states, parked sessions
// and warm context snapshots to the ring successor that would inherit each
// token if this node vanished. The receiver holds session states passively
// in a replica table — never in the parked table, so
// prognos_parked_sessions is never double-counted — and promotes one only
// when the failure detector confirms its origin down. The contract is
// bounded staleness: a crash loses at most the samples accumulated since
// the last replication push, never a whole session's learner state
// (docs/ARCHITECTURE.md §Failure model).

package server

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// replicaLiveTail bounds the replay-buffer tail a live session deposits
// with each partial replication push. It only needs to cover responses
// that may be in flight to the client at the moment of a crash — the
// pipelining window plus transport buffering — not the full replayBufCap.
const replicaLiveTail = 64

// partialState is a live session's replication deposit: its identity id
// with the cursor seq and the replay tail, but no learner export. Called
// from the session's own goroutine, so reading the replay buffer needs no
// synchronization; the copy taken here is what crosses into the
// replication loop.
func partialState(id cluster.SessionState, seq int64, buf *replayBuffer) cluster.SessionState {
	id.Seq = seq
	id.Responses = buf.last(replicaLiveTail)
	id.Partial = true
	return id
}

// promoteReplica turns a held replica into parked state this node can
// serve (parkState): the failover moment. It reports whether a replica
// existed.
func (s *Server) promoteReplica(token string) bool {
	st, _, ok := s.replicas.take(token)
	if !ok {
		return false
	}
	s.stats.Add(metrics.ReplicaSessions, -1)
	if s.parkState(st, true) != nil {
		return false
	}
	s.stats.Add(metrics.Failovers, 1)
	s.opts.Tracer.Emit(obs.Event{
		Kind:    obs.EvFailover,
		Session: token,
		Carrier: st.Carrier,
		Arch:    st.Arch.String(),
		RespSeq: st.Seq,
		Detail:  "replica of " + st.Origin,
	})
	return true
}

// failoverTarget decides how to answer a tokened hello whose ring owner
// is another node and for which this node holds no parked state. Unless
// the detector has confirmed the owner down, the answer is the standing
// redirect to the owner. After confirmation, replicated state outranks
// the ring: promote this node's replica and serve, or — holding none —
// serve only if this node is the token's failover successor (the owner
// every surviving node agrees on with the dead member removed, so at most
// one node adopts an orphan token), redirecting there otherwise.
func (s *Server) failoverTarget(owner, token string) (serveHere bool, target string) {
	if s.detector == nil || !s.detector.Down(owner) {
		return false, owner
	}
	if s.promoteReplica(token) {
		return true, ""
	}
	rest, err := s.opts.Cluster.Without(owner)
	if err != nil {
		// The dead owner was the only other member; serving cold here
		// beats redirecting the client at a dead address.
		return true, ""
	}
	if succ := rest.Owner(token); succ != s.opts.NodeAddr {
		return false, succ
	}
	return true, ""
}

// startDetector wires the failure detector over the ring peers and routes
// its confirmed transitions into stats and the tracer.
func (s *Server) startDetector() {
	var peers []string
	for _, m := range s.opts.Cluster.Members() {
		if m != s.opts.NodeAddr {
			peers = append(peers, m)
		}
	}
	if len(peers) == 0 {
		return
	}
	s.detector = cluster.NewDetector(cluster.DetectorConfig{
		Peers:    peers,
		Interval: s.opts.HeartbeatInterval,
		OnChange: func(peer string, down bool) {
			if down {
				s.stats.Add(metrics.PeerSuspects, 1)
				s.opts.Tracer.Emit(obs.Event{Kind: obs.EvPeerDown, Detail: peer})
				return
			}
			s.stats.Add(metrics.PeerSuspects, -1)
			s.opts.Tracer.Emit(obs.Event{Kind: obs.EvPeerUp, Detail: peer})
		},
	})
	s.detector.Start()
}

// replicationLoop drives the async replication cadence: each tick bumps
// repGen — the signal live sessions key their outbox deposits off — and
// ships everything deposited since the previous tick. A pass therefore
// carries state at most one interval old, making the end-to-end staleness
// bound two intervals plus ship latency (docs/ARCHITECTURE.md §Failure
// model documents the resulting loss bound).
func (s *Server) replicationLoop() {
	t := time.NewTicker(s.opts.ReplicationInterval)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			s.repGen.Add(1)
			s.replicateOnce()
		}
	}
}

// replicateOnce ships one replication pass: a state-transfer round with
// the hold disposition over the drained live-session states plus every
// live parked session, as exported when it parked. Best-effort per target
// — a failed push costs one interval of staleness.
func (s *Server) replicateOnce() {
	rest, err := s.opts.Cluster.Without(s.opts.NodeAddr)
	if err != nil {
		return // single-member ring: nowhere to replicate
	}
	states := s.replOut.drain()
	for _, p := range s.parked.live(time.Now()) {
		states[p.st.Token] = p.state()
	}
	timeout := 4 * s.opts.ReplicationInterval
	if timeout < 2*time.Second {
		timeout = 2 * time.Second
	}
	total, targets, _ := s.shipRound(rest, states, true, timeout)
	if targets > 0 {
		s.stats.ReplicationPushed(total.Bytes)
	}
}
