package fleet

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/chaos"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TestFleetClusterClosedLoop drives a 3-node in-process cluster in closed
// loop: every UE dials its token's ring owner directly, so the run needs
// no redirects, every node serves its share, and the per-node rows sum to
// the aggregate.
func TestFleetClusterClosedLoop(t *testing.T) {
	rep, err := Run(Config{
		UEs:      12,
		Duration: 600 * time.Millisecond,
		Mode:     ModeClosed,
		Seed:     3,
		Nodes:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FailedUEs != 0 {
		t.Fatalf("failed UEs %d, errors %v", rep.FailedUEs, rep.Errors)
	}
	if rep.LostSamples != 0 || rep.Samples != rep.Predictions {
		t.Fatalf("lost %d (samples %d, predictions %d)", rep.LostSamples, rep.Samples, rep.Predictions)
	}
	if rep.ClusterSize != 3 || len(rep.Addrs) != 3 || len(rep.PerNode) != 3 {
		t.Fatalf("cluster accounting: size %d, addrs %v, per-node %d", rep.ClusterSize, rep.Addrs, len(rep.PerNode))
	}
	var nodeSamples, nodeSessions int64
	for _, n := range rep.PerNode {
		nodeSamples += n.Samples
		nodeSessions += n.Sessions
		if n.SessionErrors != 0 {
			t.Errorf("node %s counted %d session errors", n.Addr, n.SessionErrors)
		}
	}
	if nodeSamples != rep.Samples {
		t.Errorf("per-node samples sum %d != fleet samples %d", nodeSamples, rep.Samples)
	}
	if nodeSessions != int64(rep.UEs) {
		t.Errorf("per-node sessions sum %d != %d UEs", nodeSessions, rep.UEs)
	}
	// Ring-routed UEs land on their owner first try: no redirects.
	if rep.Redirects != 0 {
		t.Errorf("direct-routed run followed %d redirects", rep.Redirects)
	}
	if rep.Server == nil || rep.Server.Samples != rep.Samples {
		t.Fatalf("aggregate snapshot mismatch: %+v", rep.Server)
	}
}

// TestFleetRollingRestartZeroLoss is the cluster acceptance check in
// miniature (make cluster runs the full-size version): an open-loop fleet
// over a 3-node rig, with every node drain-restarted once under load, must
// finish with zero lost samples — warm migration parks each cut session on
// its ring successor, and the resilient clients resume there.
func TestFleetRollingRestartZeroLoss(t *testing.T) {
	rep, err := Run(Config{
		UEs:      8,
		Duration: 2 * time.Second,
		Mode:     ModeOpen,
		Seed:     9,
		Nodes:    3,
		Faults:   RollingRestart,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FailedUEs != 0 {
		t.Fatalf("failed UEs %d, errors %v", rep.FailedUEs, rep.Errors)
	}
	if rep.LostSamples != 0 {
		t.Fatalf("lost %d samples through rolling restart (sent %d, predictions %d)",
			rep.LostSamples, rep.Samples, rep.Predictions)
	}
	if rep.RollingRestarts != 3 {
		t.Fatalf("rolling restarts %d, want 3", rep.RollingRestarts)
	}
	if rep.Server == nil {
		t.Fatal("cluster run lost the aggregate snapshot")
	}
	if rep.Server.SessionErrors != 0 {
		t.Fatalf("cluster counted %d session errors; drains must park, not error (errors %v)",
			rep.Server.SessionErrors, rep.Errors)
	}
	// Each restart cuts the sessions the node was serving; their warm
	// state must move and be resumed from, not rebuilt cold.
	if rep.Server.MigratedOut == 0 {
		t.Error("no sessions migrated — the drains never bit, test is vacuous")
	}
	if rep.Server.MigrationBytesOut == 0 {
		t.Error("migration moved zero bytes")
	}
	if rep.ResumedSessions == 0 {
		t.Error("restarts happened but no session ever resumed")
	}
	if rep.WarmResumeRatio < 0.9 {
		t.Errorf("warm resume ratio %.2f (resumed %d, cold %d), want >= 0.9",
			rep.WarmResumeRatio, rep.ResumedSessions, rep.ColdResumes)
	}
	var restarts int
	for _, n := range rep.PerNode {
		restarts += n.Restarts
	}
	if restarts != 3 {
		t.Errorf("per-node restart sum %d, want 3", restarts)
	}
}

// TestFleetNodeKillZeroLoss is the crash-contract smoke at test scale: a
// closed-loop fleet over an in-process 3-node cluster with node 0
// hard-killed mid-run (no drain) and revived later. Replication plus
// detector-confirmed failover must hold the run to zero lost samples and
// zero session errors; which sessions fail over depends on where the
// ring placed the tokens (the ports are ephemeral), so the failover
// count itself is asserted only through the per-node kill accounting.
func TestFleetNodeKillZeroLoss(t *testing.T) {
	rep, err := Run(Config{
		UEs:      8,
		Duration: 2 * time.Second,
		Mode:     ModeClosed,
		Seed:     11,
		Nodes:    3,
		Faults:   NodeKill,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FailedUEs != 0 {
		t.Fatalf("failed UEs %d, errors %v", rep.FailedUEs, rep.Errors)
	}
	if rep.LostSamples != 0 {
		t.Fatalf("lost %d samples through the node kill (sent %d, predictions %d)",
			rep.LostSamples, rep.Samples, rep.Predictions)
	}
	if rep.NodeKills != 1 {
		t.Fatalf("node kills %d, want 1", rep.NodeKills)
	}
	if rep.Server == nil {
		t.Fatal("crash run lost the aggregate snapshot")
	}
	if rep.Server.SessionErrors != 0 {
		t.Fatalf("cluster counted %d session errors through the kill (errors %v)",
			rep.Server.SessionErrors, rep.Errors)
	}
	// The kill config forces a replication interval, so the loop must
	// have shipped state whether or not any session needed it.
	if rep.Server.ReplicationPushes == 0 {
		t.Error("node-kill run recorded no replication pushes — the loop never ran")
	}
	if rep.Server.ReplicationBytesOut == 0 {
		t.Error("replication pushed zero bytes")
	}
	// Sessions that did fail over must have resumed warm.
	if rep.ResumedSessions > 0 && rep.WarmResumeRatio < 0.9 {
		t.Errorf("warm resume ratio %.2f (resumed %d, cold %d), want >= 0.9",
			rep.WarmResumeRatio, rep.ResumedSessions, rep.ColdResumes)
	}
	var kills int
	for _, n := range rep.PerNode {
		kills += n.Kills
	}
	if kills != 1 {
		t.Errorf("per-node kill sum %d, want 1", kills)
	}
}

// TestFleetClusterExternalAddrs exercises the Addrs path: the servers are
// "external" (a rig the fleet run does not own), the UEs route over their
// own ring built from the member list, and per-node stats come from each
// node's stats endpoint.
func TestFleetClusterExternalAddrs(t *testing.T) {
	rig, err := newRig(3, server.Options{ResumeGrace: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer rig.close()

	rep, err := Run(Config{
		UEs:      6,
		Duration: 400 * time.Millisecond,
		Mode:     ModeClosed,
		Seed:     17,
		Addrs:    rig.addrs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FailedUEs != 0 {
		t.Fatalf("failed UEs %d, errors %v", rep.FailedUEs, rep.Errors)
	}
	if rep.LostSamples != 0 {
		t.Fatalf("lost %d samples", rep.LostSamples)
	}
	if rep.ClusterSize != 3 || len(rep.PerNode) != 3 {
		t.Fatalf("external cluster accounting: size %d, per-node %d", rep.ClusterSize, len(rep.PerNode))
	}
	if rep.Server == nil || rep.Server.Samples != rep.Samples {
		t.Fatalf("fetched aggregate mismatch: %+v", rep.Server)
	}
}

// TestFleetExternalReportCarriesCrashCounters runs the Addrs path against
// a replicating rig: the aggregate fetched from the members' stats
// endpoints must carry their replication counters, not read zero.
func TestFleetExternalReportCarriesCrashCounters(t *testing.T) {
	rig, err := newRig(3, server.Options{
		ResumeGrace:         5 * time.Second,
		ReplicationInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rig.close()

	rep, err := Run(Config{
		UEs:      6,
		Duration: 400 * time.Millisecond,
		Mode:     ModeClosed,
		Seed:     17,
		Addrs:    rig.addrs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FailedUEs != 0 || rep.LostSamples != 0 {
		t.Fatalf("failed UEs %d, lost %d, errors %v", rep.FailedUEs, rep.LostSamples, rep.Errors)
	}
	if rep.Server == nil || len(rep.PerNode) != 3 {
		t.Fatalf("fetched aggregate missing or partial: %+v, per-node %d", rep.Server, len(rep.PerNode))
	}
	if rep.Server.ReplicationPushes == 0 || rep.Server.ReplicationBytesOut == 0 {
		t.Errorf("fetched aggregate lost its replication counters: pushes %d, bytes %d",
			rep.Server.ReplicationPushes, rep.Server.ReplicationBytesOut)
	}
}

// TestFleetClusterConfigErrors pins the three target and fault rules:
// Addrs and Nodes > 1 exclude each other, Chaos needs a single target,
// and a fault schedule needs an in-process cluster.
func TestFleetClusterConfigErrors(t *testing.T) {
	bad := []Config{
		{Nodes: 3, Addrs: []string{"127.0.0.1:1"}},
		{Nodes: 3, Addrs: []string{"a:1", "b:2"}},
		{Nodes: 2, Chaos: &chaos.Config{}},
		{Addrs: []string{"a:1", "b:2"}, Chaos: &chaos.Config{}},
		{Faults: RollingRestart},
		{Faults: RollingRestart, Addrs: []string{"a:1", "b:2"}},
		{Faults: NodeKill},
		{Faults: NodeKill, Addrs: []string{"127.0.0.1:1"}},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
}

// TestFaultSchedules pins both schedules' timing, so a change shows up
// without the multi-second smokes.
func TestFaultSchedules(t *testing.T) {
	const d = 5 * time.Second
	ms := time.Millisecond
	for _, tc := range []struct {
		f    Fault
		want []step
	}{
		{NoFaults, nil},
		{RollingRestart, []step{
			{1250 * ms, 0, opDrain}, {1250 * ms, 0, opStart},
			{2500 * ms, 1, opDrain}, {2500 * ms, 1, opStart},
			{3750 * ms, 2, opDrain}, {3750 * ms, 2, opStart},
		}},
		{NodeKill, []step{{2500 * ms, 0, opKill}, {3750 * ms, 0, opStart}}},
	} {
		if got := tc.f.schedule(3, d); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("schedule %d: got %v, want %v", tc.f, got, tc.want)
		}
	}
}

// TestNodeStartKeepsCounters drain-stops a node that has served samples
// and starts it again: starting retires the stopped generation into the
// node's lifetime counters without counting it twice, so stats() reads
// the same before and after.
func TestNodeStartKeepsCounters(t *testing.T) {
	rig, err := newRig(2, server.Options{ResumeGrace: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer rig.close()
	n := rig.nodes[0]

	c, err := server.Dial(n.addr, wire.Hello{Carrier: "OpX", Arch: cellular.ArchNSA})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		smp := trace.Sample{
			Time:       time.Duration(k) * trace.SamplePeriod,
			Arch:       cellular.ArchNSA,
			ServingLTE: trace.CellObs{PCI: 1, Valid: true, RSRP: -85},
		}
		if _, err := c.SendSample(smp); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()

	if err := n.drain(time.Second); err != nil {
		t.Fatal(err)
	}
	before := n.stats()
	if err := n.start(); err != nil {
		t.Fatal(err)
	}
	after := n.stats()
	if before.Samples != 5 {
		t.Fatalf("stopped node counts %d samples, want 5", before.Samples)
	}
	// Uptime is a gauge that keeps ticking and latency histograms do not
	// sum across generations; every counter must hold still.
	before.UptimeMS, after.UptimeMS = 0, 0
	before.Latency, after.Latency = metrics.LatencySnapshot{}, metrics.LatencySnapshot{}
	if !reflect.DeepEqual(before, after) {
		t.Errorf("start changed the node's counters:\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestRigReadableMidFault reads the rig the way the ops plane does while
// the test goroutine plays both schedules' ops against its nodes; under
// -race this pins that reads of a node's server go through the node
// mutex.
func TestRigReadableMidFault(t *testing.T) {
	rig, err := newRig(2, server.Options{ResumeGrace: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer rig.close()

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			snaps, _ := rig.report()
			aggregate(snaps)
			rig.ready()
		}
	}()
	steps := append(RollingRestart.schedule(2, 0), NodeKill.schedule(2, 0)...)
	for _, s := range steps {
		if err := rig.nodes[s.node].apply(s.op); err != nil {
			t.Errorf("node %d %s: %v", s.node, s.op, err)
		}
	}
	close(stop)
	<-done
	var restarts, kills int
	_, rows := rig.report()
	for _, r := range rows {
		restarts += r.Restarts
		kills += r.Kills
	}
	if restarts != 2 || kills != 1 {
		t.Errorf("restarts %d, kills %d; want 2 and 1", restarts, kills)
	}
}
