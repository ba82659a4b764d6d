// The in-process rig and its fault schedules. Config.Faults expands into
// a time-ordered list of (offset, node, op) steps over the rig's three
// primitives — drain, kill and start — that one goroutine plays under
// load, while the report asserts the zero-loss property end to end.

package fleet

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/server"
)

// Fault names the fault schedule a run plays against its in-process
// nodes under load (Config.Faults).
type Fault int

const (
	// NoFaults leaves every node serving for the whole run.
	NoFaults Fault = iota
	// RollingRestart drains every node once into the cluster (warm
	// migration) and starts it again, staggered evenly across the load
	// window. The acceptance bar is the same as chaos: zero lost samples.
	RollingRestart
	// NodeKill kills node 0 halfway through the load window and starts it
	// again, empty, a quarter window later. Survival rests entirely on the
	// async replication layer: the failure detector confirms the node
	// down, successors promote its sessions from their replica tables, and
	// anti-entropy re-warms the restarted node. Defaults
	// Server.ReplicationInterval to 100ms when unset.
	NodeKill
)

// op is the rig primitive a schedule step applies to a node.
type op string

const (
	opDrain op = "drain"
	opKill  op = "kill"
	opStart op = "start"
)

// step is one schedule entry: apply op to node at offset at from the
// start of the load phase.
type step struct {
	at   time.Duration
	node int
	op   op
}

// schedule expands f into its time-ordered steps for an n-node rig under
// a load window of d.
func (f Fault) schedule(n int, d time.Duration) []step {
	switch f {
	case RollingRestart:
		// Node i restarts at the (i+1)/(n+1) mark, so the first and last
		// restart both land well inside the load window.
		var s []step
		for i := 0; i < n; i++ {
			at := d * time.Duration(i+1) / time.Duration(n+1)
			s = append(s, step{at, i, opDrain}, step{at, i, opStart})
		}
		return s
	case NodeKill:
		// Dead for a quarter window: long enough for the failure detector
		// to confirm it and every affected UE to fail over, with load time
		// left for anti-entropy to re-warm the empty node.
		return []step{{d / 2, 0, opKill}, {d/2 + d/4, 0, opStart}}
	}
	return nil
}

// node is one member of the rig. A node outlives its server generations:
// start keeps the stopped generation's final counters in retired as it
// swaps in the next, so stats() spans the whole run. Only the schedule
// goroutine ever writes srv and retired; the mutex guards them against
// the ops plane reading mid-fault.
type node struct {
	addr     string
	opts     server.Options
	mu       sync.Mutex
	srv      *server.Server
	retired  []metrics.ServerSnapshot
	restarts atomic.Int32
	kills    atomic.Int32
}

// stats returns the node's counters across every generation so far,
// aggregated like the rig's members: a node on its first generation
// passes that server's snapshot through whole.
func (n *node) stats() metrics.ServerSnapshot {
	n.mu.Lock()
	defer n.mu.Unlock()
	return metrics.Aggregate(append([]metrics.ServerSnapshot{n.srv.Stats()}, n.retired...))
}

// apply runs one schedule op on the node.
func (n *node) apply(o op) error {
	switch o {
	case opDrain:
		return n.drain(2 * time.Second)
	case opKill:
		n.kill()
		return nil
	}
	return n.start()
}

// drain ships the node's warm state into the cluster and closes it. The
// drain is best-effort — anything a peer nacked was folded into the
// node's own checkpoint path — so the node closes even on a partial ship,
// and the error is reported for accounting.
func (n *node) drain(timeout time.Duration) error {
	n.restarts.Add(1)
	_, err := n.srv.DrainToCluster(timeout)
	n.srv.Close()
	return err
}

// kill crashes the node: no drain, no checkpoint, no goodbye — the
// listener closes and every live connection is torn down with an RST,
// exactly the failure the replication layer exists to survive. The dead
// server stays in place, its counters readable, until start retires it.
func (n *node) kill() {
	n.kills.Add(1)
	n.srv.Kill()
}

// start brings a stopped node back on its old address with a fresh,
// empty server — like a restarted process, it has no local state: a drain
// already moved it to the peers, a kill lost it, and whatever its
// sessions need lives in the peers' parked and replica tables. The
// stopped generation retires in the same critical section that swaps
// srv, so stats() never counts a generation twice.
func (n *node) start() error {
	// The old listener held the port until it closed; rebinding can still
	// race the kernel briefly, so retry across a short window.
	var ln net.Listener
	var err error
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err = net.Listen("tcp", n.addr)
		if err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("rebinding %s: %w", n.addr, err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.retired = append(n.retired, n.srv.Stats())
	n.srv = server.Serve(ln, n.opts)
	return nil
}

// rig is the in-process server set a run without Config.Addrs loads.
type rig struct {
	addrs []string
	nodes []*node
}

// newRig pre-binds n loopback listeners and only then starts the servers.
// With n > 1 every node carries the ring over the resulting addresses, so
// its ownership view is complete before it accepts its first session; a
// one-node rig is a plain server with no ring.
func newRig(n int, opts server.Options) (*rig, error) {
	r := &rig{}
	lns := make([]net.Listener, 0, n)
	closeAll := func() {
		for _, l := range lns {
			l.Close()
		}
	}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("fleet: node %d: %w", i, err)
		}
		lns = append(lns, ln)
		r.addrs = append(r.addrs, ln.Addr().String())
	}
	if n > 1 {
		ring, err := cluster.New(r.addrs, nil)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("fleet: cluster ring: %w", err)
		}
		opts.Cluster = ring
	}
	for i, ln := range lns {
		o := opts
		if o.Cluster != nil {
			o.NodeAddr = r.addrs[i]
		}
		r.nodes = append(r.nodes, &node{addr: r.addrs[i], opts: o, srv: server.Serve(ln, o)})
	}
	return r, nil
}

// close shuts every node down; the schedule has finished by then.
func (r *rig) close() {
	for _, n := range r.nodes {
		n.srv.Close()
	}
}

// settle waits, up to timeout, until no node has an active session. A UE
// returns as soon as it holds its last response, but the server observes
// that sample's latency only after the flush and closes the session after
// that, so counters read earlier can miss the observation. It names the
// nodes still busy at the deadline.
func (r *rig) settle(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		var busy []string
		for _, n := range r.nodes {
			if n.stats().Active > 0 {
				busy = append(busy, n.addr)
			}
		}
		if len(busy) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("sessions still active on %v after %v", busy, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// report reads every node's lifetime counters and its report row.
func (r *rig) report() (snaps []metrics.ServerSnapshot, rows []NodeReport) {
	for _, n := range r.nodes {
		snap := n.stats()
		snaps = append(snaps, snap)
		rows = append(rows, NodeReport{Addr: n.addr, Restarts: int(n.restarts.Load()),
			Kills: int(n.kills.Load()), ServerSnapshot: snap})
	}
	return snaps, rows
}

// ready is the ops plane's readiness: true while any node accepts
// sessions, so a lone node's readiness follows its own Draining().
func (r *rig) ready() bool {
	for _, n := range r.nodes {
		n.mu.Lock()
		draining := n.srv.Draining()
		n.mu.Unlock()
		if !draining {
			return true
		}
	}
	return false
}

// NodeReport is one cluster member's slice of a fleet report: its fault
// counts and its whole server snapshot, flattened into the row. The
// counters span every server generation of the node (a start retires the
// stopped one), so a restarted node keeps its history.
type NodeReport struct {
	Addr     string `json:"addr"`
	Restarts int    `json:"restarts,omitempty"`
	// Kills counts hard crashes the run inflicted on this node (no drain;
	// the node's live state died with it and failover took over).
	Kills int `json:"kills,omitempty"`
	metrics.ServerSnapshot
}
