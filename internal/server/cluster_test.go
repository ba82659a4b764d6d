// Cluster behaviour of the server: ownership redirects, warm migration on
// drain, sticky sessions after migration, and the resilient client's
// redirect-following and fallback rotation.

package server

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/cluster"
	"repro/internal/wire"
)

// clusterRig brings up n cluster-aware servers over pre-bound listeners so
// the ring can carry every node's real address before any node serves.
type clusterRig struct {
	ring  *cluster.Ring
	addrs []string
	srvs  []*Server
}

func newClusterRig(t *testing.T, n int, opts Options) *clusterRig {
	t.Helper()
	rig := &clusterRig{}
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		rig.addrs = append(rig.addrs, ln.Addr().String())
	}
	ring, err := cluster.New(rig.addrs, cluster.NewRingPolicy())
	if err != nil {
		t.Fatal(err)
	}
	rig.ring = ring
	for i, ln := range lns {
		o := opts
		o.Cluster = ring
		o.NodeAddr = rig.addrs[i]
		rig.srvs = append(rig.srvs, Serve(ln, o))
	}
	t.Cleanup(func() {
		for _, s := range rig.srvs {
			s.Close()
		}
	})
	return rig
}

// byAddr returns the server bound to addr.
func (r *clusterRig) byAddr(t *testing.T, addr string) *Server {
	t.Helper()
	for i, a := range r.addrs {
		if a == addr {
			return r.srvs[i]
		}
	}
	t.Fatalf("no server at %s", addr)
	return nil
}

// tokenOwnedBy finds a session token the ring places on owner, with the
// requested successor preference when wantSecond is set.
func tokenOwnedBy(t *testing.T, ring *cluster.Ring, owner string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		tok := fmt.Sprintf("cluster-ue-%d", i)
		if ring.Owner(tok) == owner {
			return tok
		}
	}
	t.Fatalf("no token owned by %s in 10000 tries", owner)
	return ""
}

// TestClusterRedirect pins the ownership check: a tokened session arriving
// at the wrong node is answered with a structured redirect naming the
// owner, counted as a redirect rather than a session error.
func TestClusterRedirect(t *testing.T) {
	rig := newClusterRig(t, 2, Options{ResumeGrace: time.Minute})
	owner := rig.addrs[0]
	wrong := rig.addrs[1]
	if owner == rig.ring.Owner(tokenOwnedBy(t, rig.ring, wrong)) {
		t.Fatal("token helper is broken")
	}
	tok := tokenOwnedBy(t, rig.ring, owner)

	c, err := Dial(wrong, wire.Hello{Carrier: "OpX", Arch: cellular.ArchLTE, SessionToken: tok})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.readAck()
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("expected ServerError, got %v", err)
	}
	if se.Redirect != owner {
		t.Fatalf("redirect %q, want %q", se.Redirect, owner)
	}
	wrongStats := rig.byAddr(t, wrong).Stats()
	if wrongStats.Redirected != 1 {
		t.Fatalf("redirected counter %d, want 1", wrongStats.Redirected)
	}
	if wrongStats.SessionErrors != 0 {
		t.Fatalf("redirect counted as session error (%d)", wrongStats.SessionErrors)
	}

	// The owner itself, and untokened sessions anywhere, serve normally.
	co, err := Dial(owner, wire.Hello{Carrier: "OpX", Arch: cellular.ArchLTE, SessionToken: tok})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if ack, err := co.readAck(); err != nil || ack.Resumed {
		t.Fatalf("owner hello: ack %+v err %v", ack, err)
	}
	if _, err := co.SendSample(mkSample(0, -85)); err != nil {
		t.Fatal(err)
	}
	cu, err := Dial(wrong, wire.Hello{Carrier: "OpX", Arch: cellular.ArchLTE})
	if err != nil {
		t.Fatal(err)
	}
	defer cu.Close()
	if _, err := cu.SendSample(mkSample(0, -85)); err != nil {
		t.Fatalf("untokened session on non-owner: %v", err)
	}
}

// TestDrainMigratesWarmState is the warm-handoff round trip: a session
// parked on a draining node must be shipped to the ring successor and
// resume there warm — resume cursor intact, missed responses replayed —
// and the successor must then hold the session even though the (static)
// ring still names the drained node as owner (sticky sessions).
func TestDrainMigratesWarmState(t *testing.T) {
	rig := newClusterRig(t, 2, Options{ResumeGrace: time.Minute})
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
	const n = 20
	const readBack = 15 // responses the client "received" before the cut
	for i := 0; i < n; i++ {
		if err := c.SendSampleAsync(mkSample(time.Duration(i)*50*time.Millisecond, -85)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < readBack; i++ {
		if _, err := c.ReadResponse(); err != nil {
			t.Fatal(err)
		}
	}
	// The cut parks the session at the samples served so far: wait until
	// the owner has served all n, or the parked cursor trails n.
	waitFor(t, "the owner to serve every sample", func() bool {
		return rig.byAddr(t, owner).Stats().Predictions == n
	})

	// Drain cuts the live session; it parks and ships to the successor.
	ds, err := rig.byAddr(t, owner).DrainToCluster(5 * time.Second)
	if err != nil {
		t.Fatalf("drain: %v (stats %+v)", err, ds)
	}
	if ds.Sessions != 1 {
		t.Fatalf("drain shipped %d sessions, want 1 (stats %+v)", ds.Sessions, ds)
	}
	if ds.Contexts == 0 || ds.Bytes == 0 {
		t.Fatalf("drain shipped no warm contexts or bytes: %+v", ds)
	}
	sStats := rig.byAddr(t, successor).Stats()
	if sStats.MigratedIn != 1 {
		t.Fatalf("successor migrated_in %d, want 1", sStats.MigratedIn)
	}
	if sStats.MigrationBytesIn == 0 {
		t.Fatal("successor counted no migration bytes")
	}

	// Resume on the successor: server-side seq must carry on from the
	// drained node, and the replay must cover exactly what we never read.
	c2, err := Dial(successor, wire.Hello{Carrier: "OpX", Arch: cellular.ArchLTE, SessionToken: tok, LastSeq: readBack})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	ack, err := c2.readAck()
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Resumed || ack.Seq != n {
		t.Fatalf("resume ack %+v, want resumed at seq %d", ack, n)
	}
	for want := int64(readBack + 1); want <= n; want++ {
		resp, err := c2.ReadResponse()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Seq != want {
			t.Fatalf("replayed seq %d, want %d", resp.Seq, want)
		}
	}
	// The stream continues live on the successor.
	resp, err := c2.SendSample(mkSample(time.Duration(n)*50*time.Millisecond, -85))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Seq != n+1 {
		t.Fatalf("post-resume seq %d, want %d", resp.Seq, n+1)
	}
	after := rig.byAddr(t, successor).Stats()
	if after.MigratedResumes != 1 {
		t.Fatalf("migrated_resumes %d, want 1", after.MigratedResumes)
	}
	if after.Resumed != 1 {
		t.Fatalf("resumed %d, want 1", after.Resumed)
	}
}

// TestResilientClientFollowsRedirect pins the client side of routing: a
// resilient client pointed at the wrong node must land on the owner via
// the redirect error, invisibly to the caller.
func TestResilientClientFollowsRedirect(t *testing.T) {
	rig := newClusterRig(t, 3, Options{ResumeGrace: time.Minute})
	owner := rig.addrs[0]
	tok := tokenOwnedBy(t, rig.ring, owner)
	var wrong string
	for _, a := range rig.addrs {
		if a != owner {
			wrong = a
			break
		}
	}

	rc, err := DialResilient(wrong, ResilientOptions{
		Hello: wire.Hello{Carrier: "OpX", Arch: cellular.ArchLTE, SessionToken: tok},
		Seed:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if got := rc.Addr(); got != owner {
		t.Fatalf("attached to %s, want owner %s", got, owner)
	}
	if _, err := rc.SendSample(mkSample(0, -85)); err != nil {
		t.Fatal(err)
	}
	st := rc.Stats()
	if st.Redirects != 1 {
		t.Fatalf("redirects %d, want 1", st.Redirects)
	}
}

// TestResilientClientSurvivesDrain is the zero-loss drain in miniature:
// a client streams against the owner, the owner drains into the cluster
// mid-stream, and the client — rotating through its ring-derived fallback
// list — must finish the stream on the successor with one response per
// sample and a warm (not cold) resume.
func TestResilientClientSurvivesDrain(t *testing.T) {
	rig := newClusterRig(t, 3, Options{ResumeGrace: time.Minute})
	owner := rig.addrs[0]
	tok := tokenOwnedBy(t, rig.ring, owner)
	cands := rig.ring.Candidates(tok)
	successor := cands[1]

	rc, err := DialResilient(cands[0], ResilientOptions{
		Hello:     wire.Hello{Carrier: "OpX", Arch: cellular.ArchLTE, SessionToken: tok},
		Fallbacks: cands[1:],
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	const n = 60
	drainAt := 25
	for i := 0; i < n; i++ {
		if i == drainAt {
			if _, err := rig.byAddr(t, owner).DrainToCluster(5 * time.Second); err != nil {
				t.Fatalf("drain: %v", err)
			}
		}
		if _, err := rc.SendSample(mkSample(time.Duration(i)*50*time.Millisecond, -85)); err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
	}
	st := rc.Stats()
	if st.Lost() != 0 {
		t.Fatalf("lost %d samples (stats %+v)", st.Lost(), st)
	}
	if st.Received != n {
		t.Fatalf("received %d responses, want %d", st.Received, n)
	}
	if st.Reconnects == 0 {
		t.Fatal("drain did not force a reconnect")
	}
	if st.Resumed == 0 || st.ColdResumes != 0 {
		t.Fatalf("want a warm resume, got %+v", st)
	}
	if got := rc.Addr(); got != successor {
		t.Fatalf("finished on %s, want successor %s", got, successor)
	}
	if ms := rig.byAddr(t, successor).Stats().MigratedResumes; ms != 1 {
		t.Fatalf("successor migrated_resumes %d, want 1", ms)
	}
}

// TestMigrationStreamRequiresBinary pins the §State-transfer frames gate: a
// JSONL migrate hello is rejected before any state moves.
func TestMigrationStreamRequiresBinary(t *testing.T) {
	srv, err := ListenWith("127.0.0.1:0", Options{ResumeGrace: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), wire.Hello{Migrate: true, Node: "test"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.ReadResponse()
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("JSONL migrate hello: got %v, want ServerError", err)
	}
}

// TestDrainToClusterRequiresRing pins the guard rails on a non-clustered
// server.
func TestDrainToClusterRequiresRing(t *testing.T) {
	srv, err := ListenWith("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.DrainToCluster(time.Second); err == nil {
		t.Fatal("DrainToCluster without a ring succeeded")
	}
}
