// Crash-fault behaviour of the server: async replication to ring
// successors, detector-confirmed failover from replicated state, the
// fast-forward resume contract, and the drain fallback when every peer is
// already gone.

package server

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/cluster"
	"repro/internal/wire"
)

// TestDrainToClusterLocalFallback pins the all-peers-unreachable drain: a
// clustered node whose every peer is already gone must fall back to local
// persistence — no error, the fallback named in the summary — instead of
// failing a survivable shutdown.
func TestDrainToClusterLocalFallback(t *testing.T) {
	// The node listens first. Then a port for the "peer" is reserved and
	// closed again, so the ring names a member that is guaranteed
	// unreachable; the node's open listener keeps the kernel from handing
	// that same port back to the node, which would collapse the ring to
	// one member.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := deadLn.Addr().String()
	deadLn.Close()

	ring, err := cluster.New([]string{ln.Addr().String(), deadAddr}, cluster.NewRingPolicy())
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, Options{
		ResumeGrace: time.Minute,
		Cluster:     ring,
		NodeAddr:    ln.Addr().String(),
	})
	defer srv.Close()

	// A live session gives the drain something worth shipping.
	tok := tokenOwnedBy(t, ring, srv.opts.NodeAddr)
	c, err := Dial(srv.Addr(), wire.Hello{Carrier: "OpX", Arch: cellular.ArchLTE, SessionToken: tok})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.readAck(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SendSample(mkSample(0, -85)); err != nil {
		t.Fatal(err)
	}

	ds, err := srv.DrainToCluster(200 * time.Millisecond)
	if err != nil {
		t.Fatalf("drain with unreachable peers errored: %v (stats %+v)", err, ds)
	}
	if !ds.LocalFallback {
		t.Fatalf("LocalFallback not set: %+v", ds)
	}
	if ds.Targets != 0 || ds.Sessions != 0 {
		t.Fatalf("fallback drain still claims shipped state: %+v", ds)
	}
	if sum := ds.Summary(); !strings.Contains(sum, "local persistence") {
		t.Fatalf("summary %q does not name the fallback", sum)
	}
	// The forced session's warm state survived locally.
	if _, ok := srv.warmSnapshot("OpX", cellular.ArchLTE); !ok {
		t.Fatal("fallback drain lost the warm context state")
	}
}

// TestReplicaGaugeSeparateFromParked is the double-count guard: a token
// held as a replica moves between prognos_replica_sessions and
// prognos_parked_sessions on promotion, and each expiry path decrements
// only its own gauge.
func TestReplicaGaugeSeparateFromParked(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ring, err := cluster.New([]string{ln.Addr().String(), "127.0.0.1:1"}, cluster.NewRingPolicy())
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, Options{
		ResumeGrace: 80 * time.Millisecond,
		Cluster:     ring,
		NodeAddr:    ln.Addr().String(),
	})
	defer srv.Close()

	st := cluster.SessionState{
		Version: cluster.SessionStateVersion,
		Token:   "replica-tok",
		Carrier: "OpX",
		Arch:    cellular.ArchLTE,
		Seq:     3,
		Partial: true,
	}
	if err := srv.installState(st, true); err != nil {
		t.Fatal(err)
	}
	// Re-installing the same token refreshes, never re-counts.
	if err := srv.installState(st, true); err != nil {
		t.Fatal(err)
	}
	snap := srv.Stats()
	if snap.ReplicaSessions != 1 || snap.Parked != 0 {
		t.Fatalf("after install: replicas %d parked %d, want 1/0", snap.ReplicaSessions, snap.Parked)
	}

	// Promotion moves the state: replica gauge down, parked gauge up.
	if !srv.promoteReplica("replica-tok") {
		t.Fatal("promoteReplica found nothing")
	}
	snap = srv.Stats()
	if snap.ReplicaSessions != 0 || snap.Parked != 1 || snap.Failovers != 1 {
		t.Fatalf("after promote: replicas %d parked %d failovers %d, want 0/1/1",
			snap.ReplicaSessions, snap.Parked, snap.Failovers)
	}

	// Holding both at once (anti-entropy pushes the token back while its
	// promoted state is still parked) counts one each, not two anywhere.
	if err := srv.installState(st, true); err != nil {
		t.Fatal(err)
	}
	snap = srv.Stats()
	if snap.ReplicaSessions != 1 || snap.Parked != 1 {
		t.Fatalf("held both: replicas %d parked %d, want 1/1", snap.ReplicaSessions, snap.Parked)
	}

	// Expiry: the housekeeping sweep must return each gauge to zero via its
	// own path (parked_expired for the parked table, a plain drop for the
	// replica table).
	deadline := time.Now().Add(2 * time.Second)
	for {
		snap = srv.Stats()
		if (snap.ReplicaSessions == 0 && snap.Parked == 0) || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if snap.ReplicaSessions != 0 || snap.Parked != 0 {
		t.Fatalf("after expiry: replicas %d parked %d, want 0/0", snap.ReplicaSessions, snap.Parked)
	}
	if snap.ParkedExpired != 1 {
		t.Fatalf("parked_expired %d, want exactly 1 (the replica expiry must not count here)", snap.ParkedExpired)
	}
}

// TestReplicationFailoverResume is the crash contract end to end: a
// session streams against its owner, the owner's replication loop pushes
// its live state to the ring successor, the owner is hard-killed, and the
// client must resume warm on the successor — detector-confirmed promotion,
// cursor fast-forwarded past anything the last push missed, stream
// continuing with no acknowledged sample re-asked or lost.
func TestReplicationFailoverResume(t *testing.T) {
	rig := newClusterRig(t, 2, Options{
		ResumeGrace:         time.Minute,
		ReplicationInterval: 20 * time.Millisecond,
		HeartbeatInterval:   10 * time.Millisecond,
	})
	owner := rig.addrs[0]
	tok := tokenOwnedBy(t, rig.ring, owner)
	successor := rig.ring.Candidates(tok)[1]

	c, err := Dial(owner, wire.Hello{Carrier: "OpX", Arch: cellular.ArchLTE, SessionToken: tok})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.readAck(); err != nil {
		t.Fatal(err)
	}
	// Stream across several replication intervals so the live session
	// deposits partial states and the loop ships them.
	const n = 12
	for i := 0; i < n; i++ {
		if _, err := c.SendSample(mkSample(time.Duration(i)*50*time.Millisecond, -85)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitFor(t, "successor to hold a replica", func() bool {
		return rig.byAddr(t, successor).replicas.size() > 0
	})

	// Crash the owner cold and wait for the successor to confirm it.
	rig.byAddr(t, owner).Kill()
	waitFor(t, "detector to confirm the owner down", func() bool {
		return rig.byAddr(t, successor).detector.Down(owner)
	})

	// The client read all n responses before the cut; the replica's cursor
	// may trail it by up to the staleness bound. The resume must be warm
	// with the cursor fast-forwarded to the client's, never behind it.
	c2, err := Dial(successor, wire.Hello{Carrier: "OpX", Arch: cellular.ArchLTE, SessionToken: tok, LastSeq: n})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	ack, err := c2.readAck()
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Resumed || ack.Seq != n {
		t.Fatalf("failover resume ack %+v, want resumed at seq %d", ack, n)
	}
	resp, err := c2.SendSample(mkSample(n*50*time.Millisecond, -85))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Seq != n+1 {
		t.Fatalf("post-failover seq %d, want %d", resp.Seq, n+1)
	}
	snap := rig.byAddr(t, successor).Stats()
	if snap.Failovers != 1 {
		t.Fatalf("successor failovers %d, want 1", snap.Failovers)
	}
	if snap.MigratedResumes != 1 || snap.Resumed != 1 {
		t.Fatalf("successor resume accounting %+v, want one warm resume", snap)
	}
	if snap.PeerSuspects != 1 {
		t.Fatalf("successor peer_suspect %d, want 1", snap.PeerSuspects)
	}
}

// TestInstallReplicaRejections pins the receiver-side verdicts: a
// newer-than-implemented version, a state without a carrier, and a
// tokened state on a node with resume disabled are all nacked, while a
// token-less state lands as a context snapshot only.
func TestInstallReplicaRejections(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ring, err := cluster.New([]string{ln.Addr().String(), "127.0.0.1:1"}, cluster.NewRingPolicy())
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, Options{Cluster: ring, NodeAddr: ln.Addr().String()}) // resume disabled
	defer srv.Close()

	if err := srv.installState(cluster.SessionState{
		Version: cluster.SessionStateVersion + 1, Carrier: "OpX",
	}, true); err == nil {
		t.Error("future-version state installed")
	}
	if err := srv.installState(cluster.SessionState{
		Version: cluster.SessionStateVersion,
	}, true); err == nil {
		t.Error("carrier-less state installed")
	}
	if err := srv.installState(cluster.SessionState{
		Version: cluster.SessionStateVersion, Carrier: "OpX", Token: "tok",
	}, true); err == nil {
		t.Error("tokened state installed with resume disabled")
	}
	// Token-less context snapshot: accepted into the warm store, no
	// replica entry.
	if err := srv.installState(cluster.SessionState{
		Version: cluster.SessionStateVersion, Carrier: "OpX", Arch: cellular.ArchLTE,
	}, true); err != nil {
		t.Errorf("context snapshot rejected: %v", err)
	}
	if n := srv.replicas.size(); n != 0 {
		t.Errorf("context snapshot left %d replica entries", n)
	}
	if _, ok := srv.warmSnapshot("OpX", cellular.ArchLTE); !ok {
		t.Error("context snapshot never reached the warm store")
	}
}

// TestFailoverTarget walks the ownership decision table for a tokened
// hello whose ring owner is somewhere else: redirect while the owner is
// alive (or no detector runs), adopt after confirmation — via replica
// when one is held, via successor ownership when not — and redirect to
// the agreed successor otherwise.
func TestFailoverTarget(t *testing.T) {
	rig := newClusterRig(t, 3, Options{
		ResumeGrace:         time.Minute,
		ReplicationInterval: 20 * time.Millisecond,
		HeartbeatInterval:   10 * time.Millisecond,
	})
	owner := rig.addrs[0]
	tok := tokenOwnedBy(t, rig.ring, owner)
	succ := rig.ring.Candidates(tok)[1]
	other := rig.ring.Candidates(tok)[2]
	succSrv, otherSrv := rig.byAddr(t, succ), rig.byAddr(t, other)

	// Alive owner: everyone redirects there, replica or not.
	if serve, target := succSrv.failoverTarget(owner, tok); serve || target != owner {
		t.Fatalf("alive owner: serve=%v target=%s, want redirect to %s", serve, target, owner)
	}

	// Kill the owner and let both survivors' detectors confirm it.
	rig.byAddr(t, owner).Kill()
	waitFor(t, "both survivors to confirm the owner down", func() bool {
		return succSrv.detector.Down(owner) && otherSrv.detector.Down(owner)
	})

	// Confirmed down, replica held: the holder serves.
	if err := succSrv.installState(cluster.SessionState{
		Version: cluster.SessionStateVersion, Carrier: "OpX", Arch: cellular.ArchLTE,
		Token: tok, Seq: 1, Partial: true, Origin: owner,
	}, true); err != nil {
		t.Fatal(err)
	}
	if serve, _ := succSrv.failoverTarget(owner, tok); !serve {
		t.Fatal("replica holder refused to serve a confirmed-down owner's token")
	}

	// Confirmed down, no replica: only the agreed successor adopts the
	// orphan; the third node redirects to it.
	if serve, target := otherSrv.failoverTarget(owner, tok); serve || target != succ {
		t.Fatalf("non-successor: serve=%v target=%s, want redirect to %s", serve, target, succ)
	}
	if serve, _ := succSrv.failoverTarget(owner, tok); !serve {
		t.Fatal("successor refused to adopt an orphan token")
	}
}

// TestReplicationStreamGuards pins the stream-level rejections: a
// replicate hello on a non-clustered server, and JSONL framing on a
// clustered one, both fail before any state lands.
func TestReplicationStreamGuards(t *testing.T) {
	srv, err := ListenWith("127.0.0.1:0", Options{ResumeGrace: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := cluster.ShipReplicas(srv.Addr(), "test-origin", []cluster.SessionState{{
		Carrier: "OpX", Arch: cellular.ArchLTE,
	}}, time.Second); err == nil {
		t.Fatal("replication stream accepted by a non-clustered server")
	}
}
