package server

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/wire"
)

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// bothFramings runs a subtest once per wire framing, so every resume and
// checkpoint invariant is pinned under JSONL and binary alike
// (docs/PROTOCOL.md requires identical semantics from both).
func bothFramings(t *testing.T, run func(t *testing.T, dial ClientOptions)) {
	t.Helper()
	for _, fr := range []wire.Framing{wire.FramingJSONL, wire.FramingBinary} {
		t.Run(string(fr), func(t *testing.T) {
			run(t, ClientOptions{Framing: fr})
		})
	}
}

// TestSessionResumeReplaysLostResponses is the warm-resume round trip: a
// tokened session is cut mid-stream, the reconnect re-attaches the parked
// Prognos instance, and the server replays exactly the responses the
// client reports missing — no gaps, no duplicates.
func TestSessionResumeReplaysLostResponses(t *testing.T) {
	bothFramings(t, testSessionResumeReplaysLostResponses)
}

func testSessionResumeReplaysLostResponses(t *testing.T, dial ClientOptions) {
	srv, err := ListenWith("127.0.0.1:0", Options{ResumeGrace: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	hello := wire.Hello{Carrier: "OpX", Arch: cellular.ArchLTE, SessionToken: "ue-resume-1"}
	c1, err := DialWith(srv.Addr(), hello, dial)
	if err != nil {
		t.Fatal(err)
	}
	ack, err := c1.readAck()
	if err != nil {
		t.Fatal(err)
	}
	if ack.Resumed || ack.Seq != 0 {
		t.Fatalf("fresh tokened session acked %+v", ack)
	}
	for i := 0; i < 5; i++ {
		resp, err := c1.SendSample(mkSample(time.Duration(i)*50*time.Millisecond, -95))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Seq != int64(i+1) {
			t.Fatalf("sample %d acked seq %d", i, resp.Seq)
		}
	}
	// Abrupt cut (RST, the way a crashed UE looks): the server must park
	// the warm instance, not error.
	c1.conn.(*net.TCPConn).SetLinger(0)
	c1.Close()
	waitFor(t, "session to park", func() bool { return srv.Stats().Parked == 1 })

	// Reconnect claiming we only read up to seq 3: the server owes 4, 5.
	hello.LastSeq = 3
	c2, err := DialWith(srv.Addr(), hello, dial)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	ack, err = c2.readAck()
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Resumed || ack.Seq != 5 {
		t.Fatalf("resume acked %+v, want resumed at seq 5", ack)
	}
	for _, want := range []int64{4, 5} {
		resp, err := c2.ReadResponse()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Seq != want {
			t.Fatalf("replayed seq %d, want %d", resp.Seq, want)
		}
	}
	// The stream continues where it left off.
	resp, err := c2.SendSample(mkSample(300*time.Millisecond, -95))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Seq != 6 {
		t.Fatalf("post-resume sample acked seq %d, want 6", resp.Seq)
	}
	if err := c2.CloseWrite(); err != nil {
		t.Fatal(err)
	}

	snap := srv.Stats()
	if snap.Interrupted != 1 || snap.Resumed != 1 {
		t.Errorf("interrupted=%d resumed=%d, want 1/1", snap.Interrupted, snap.Resumed)
	}
	if snap.SessionErrors != 0 {
		t.Errorf("a parked interruption was miscounted as %d session errors", snap.SessionErrors)
	}
}

// TestResumeGapColdStarts covers the other half of the replay invariant:
// when the client's cursor is beyond what the server ever answered (token
// reuse, buffer loss), the server must refuse the resume and cold-start
// rather than leave a hole in the response stream.
func TestResumeGapColdStarts(t *testing.T) {
	srv, err := ListenWith("127.0.0.1:0", Options{ResumeGrace: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	hello := wire.Hello{Carrier: "OpX", Arch: cellular.ArchLTE, SessionToken: "ue-gap"}
	c1, err := Dial(srv.Addr(), hello)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.readAck(); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.SendSample(mkSample(0, -95)); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	waitFor(t, "session to park", func() bool { return srv.Stats().Parked == 1 })

	hello.LastSeq = 40 // claims responses the server never sent
	c2, err := Dial(srv.Addr(), hello)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	ack, err := c2.readAck()
	if err != nil {
		t.Fatal(err)
	}
	if ack.Resumed || ack.Seq != 0 {
		t.Fatalf("gap resume acked %+v, want a cold start", ack)
	}
	resp, err := c2.SendSample(mkSample(0, -95))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Seq != 1 {
		t.Fatalf("cold session restarted at seq %d, want 1", resp.Seq)
	}
}

// TestSessionTimeoutResumeGraceInteraction pins the SessionTimeout ×
// ResumeGrace contract: an idle tokened session is parked (not errored) at
// the deadline, a parked session holds no MaxSessions slot, and the park
// expires at the end of the grace window without leaking anything.
func TestSessionTimeoutResumeGraceInteraction(t *testing.T) {
	srv, err := ListenWith("127.0.0.1:0", Options{
		MaxSessions:    1,
		SessionTimeout: 50 * time.Millisecond,
		ResumeGrace:    400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	hello := wire.Hello{Carrier: "OpX", Arch: cellular.ArchLTE, SessionToken: "ue-idle"}
	c1, err := Dial(srv.Addr(), hello)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := c1.readAck(); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.SendSample(mkSample(0, -95)); err != nil {
		t.Fatal(err)
	}
	// Idle past the deadline: the server must park, not error.
	waitFor(t, "idle session to park", func() bool { return srv.Stats().Parked == 1 })
	if snap := srv.Stats(); snap.SessionErrors != 0 || snap.Interrupted != 1 {
		t.Fatalf("idle tokened session accounted wrong: %+v", snap)
	}

	// The parked session must not hold the single MaxSessions slot.
	c2, err := Dial(srv.Addr(), wire.Hello{Carrier: "OpX", Arch: cellular.ArchLTE})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.SendSample(mkSample(0, -95)); err != nil {
		t.Fatalf("parked session leaked the only session slot: %v", err)
	}
	c2.CloseWrite()
	c2.Close()

	// The park must expire at the end of the grace window...
	waitFor(t, "park to expire", func() bool {
		s := srv.Stats()
		return s.Parked == 0 && s.ParkedExpired >= 1
	})
	// ...and a resume attempt after expiry gets a cold start.
	c3, err := Dial(srv.Addr(), wire.Hello{Carrier: "OpX", Arch: cellular.ArchLTE, SessionToken: "ue-idle", LastSeq: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	ack, err := c3.readAck()
	if err != nil {
		t.Fatal(err)
	}
	if ack.Resumed {
		t.Fatal("resumed a session that should have expired")
	}
	if err := c3.CloseWrite(); err != nil {
		t.Fatal(err)
	}
}

// tick waits until the clock reads later than it did on entry, so a time
// taken before the call is strictly earlier than any taken after it.
func tick() {
	for t0 := time.Now(); !time.Now().After(t0); {
	}
}

// parkedFor builds a parked OpX/NSA session with one served sample and a
// fresh learner, the shape a session leaves behind when it parks.
func parkedFor(t *testing.T, token string) *parkedSession {
	t.Helper()
	st := cluster.SessionState{Token: token, Carrier: "OpX", Arch: cellular.ArchNSA, Seq: 1}
	prog, err := newPrognos(st)
	if err != nil {
		t.Fatal(err)
	}
	return &parkedSession{st: st, prog: prog, buf: newReplayBuffer(replayBufCap)}
}

// TestParkedBoundEvictsSoonest parks one session past the table's bound:
// the park closest to expiry is evicted, the one just parked stays, the
// gauge holds at the bound and the eviction counts as one expiry.
func TestParkedBoundEvictsSoonest(t *testing.T) {
	srv, err := ListenWith("127.0.0.1:0", Options{ResumeGrace: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i <= maxParked; i++ {
		srv.park(parkedFor(t, fmt.Sprintf("ue-%d", i)))
		tick() // distinct expiries: ue-0 expires soonest
	}
	if st := srv.Stats(); st.Parked != maxParked || st.ParkedExpired != 1 {
		t.Fatalf("after %d parks: gauge %d, expired %d; want %d and 1",
			maxParked+1, st.Parked, st.ParkedExpired, maxParked)
	}
	now := time.Now()
	if srv.parked.has("ue-0", now) {
		t.Error("the park closest to expiry survived the bound")
	}
	if last := fmt.Sprintf("ue-%d", maxParked); !srv.parked.has(last, now) {
		t.Errorf("the park just made (%s) was evicted", last)
	}
}

// TestUnparkLazyExpiry pins the lazy half of expiry: an unpark that finds
// its entry past the grace window drops it, returns nothing and counts one
// expiry, exactly as the sweeper would.
func TestUnparkLazyExpiry(t *testing.T) {
	// ResumeGrace 0: the park expires the moment it is made, and no
	// sweeper runs to drop it first.
	srv := newServer(nil, Options{})
	srv.park(parkedFor(t, "ue-late"))
	tick()
	if p := srv.unpark("ue-late"); p != nil {
		t.Fatal("unpark returned an expired session")
	}
	if st := srv.Stats(); st.Parked != 0 || st.ParkedExpired != 1 {
		t.Fatalf("lazy expiry accounted gauge %d, expired %d; want 0 and 1", st.Parked, st.ParkedExpired)
	}
}

// TestSweepKeepsFresherWarmPush is the regression test for expiry rolling
// the warm store back: a park already pushed its learner to the warm
// store, so when the park expires, a fresher push made in the meantime
// must stay the context's warm state.
func TestSweepKeepsFresherWarmPush(t *testing.T) {
	srv, err := ListenWith("127.0.0.1:0", Options{ResumeGrace: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.park(parkedFor(t, "ue-parked"))
	srv.pushWarm("OpX", cellular.ArchNSA, core.Snapshot{Learner: core.LearnerState{Learned: 42}})
	srv.sweepParked(time.Now().Add(2 * time.Minute))
	if st := srv.Stats(); st.Parked != 0 || st.ParkedExpired != 1 {
		t.Fatalf("sweep accounted gauge %d, expired %d; want 0 and 1", st.Parked, st.ParkedExpired)
	}
	snap, ok := srv.warmSnapshot("OpX", cellular.ArchNSA)
	if !ok || snap.Learner.Learned != 42 {
		t.Fatalf("warm state after the sweep = (learned %d, %v), want the fresher push (42)", snap.Learner.Learned, ok)
	}
}

// TestParkedStateSurvivesResume pins that a parked session is read-only
// once parked: a replication round may still be shipping an entry the
// table handed out when a resume takes it, so the resumed session serves
// on into its own replay buffer. Under -race the concurrent reader also
// checks that the hand-off is race-free.
func TestParkedStateSurvivesResume(t *testing.T) {
	srv, err := ListenWith("127.0.0.1:0", Options{ResumeGrace: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hello := wire.Hello{Carrier: "OpX", Arch: cellular.ArchNSA, SessionToken: "ue-shipped"}
	c1, err := Dial(srv.Addr(), hello)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.readAck(); err != nil {
		t.Fatal(err)
	}
	const n = 8
	for i := 0; i < n; i++ {
		if _, err := c1.SendSample(mkSample(time.Duration(i)*50*time.Millisecond, -95)); err != nil {
			t.Fatal(err)
		}
	}
	c1.Close()
	waitFor(t, "session to park", func() bool { return srv.Stats().Parked == 1 })
	handed := srv.parked.live(time.Now())
	if len(handed) != 1 {
		t.Fatalf("live parked entries = %d, want 1", len(handed))
	}
	p := handed[0]
	want := p.state()
	if want.Seq != n || len(want.Responses) != n {
		t.Fatalf("parked state carries seq %d with %d responses, want %d and %d", want.Seq, len(want.Responses), n, n)
	}

	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if st := p.state(); st.Seq != want.Seq || len(st.Responses) != len(want.Responses) {
				t.Errorf("shipped state changed mid-resume: seq %d, %d responses", st.Seq, len(st.Responses))
				return
			}
		}
	}()
	hello.LastSeq = n
	c2, err := Dial(srv.Addr(), hello)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if ack, err := c2.readAck(); err != nil || !ack.Resumed {
		t.Fatalf("resume ack = (%+v, %v), want resumed", ack, err)
	}
	for i := n; i < 2*n; i++ {
		if _, err := c2.SendSample(mkSample(time.Duration(i)*50*time.Millisecond, -95)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done
	if got := p.state(); got.Seq != want.Seq || len(got.Responses) != len(want.Responses) {
		t.Fatalf("resumed session wrote into the parked entry: seq %d, %d responses; want %d and %d",
			got.Seq, len(got.Responses), want.Seq, len(want.Responses))
	}
}

// learnSession streams enough (sample, A2 report, LTE handover) phases
// through a session for the server-side learner to mine patterns.
func learnSession(t *testing.T, addr string, dial ClientOptions) {
	t.Helper()
	c, err := DialWith(addr, wire.Hello{Carrier: "OpX", Arch: cellular.ArchLTE}, dial)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 6; i++ {
		at := time.Duration(i) * 50 * time.Millisecond
		if _, err := c.SendSample(mkSample(at, -95)); err != nil {
			t.Fatal(err)
		}
		if err := c.SendReport(cellular.MeasurementReport{Time: at, Event: cellular.EventA2, Tech: cellular.TechLTE, ServingPCI: 1}); err != nil {
			t.Fatal(err)
		}
		if err := c.SendHandover(cellular.HandoverEvent{Time: at + 10*time.Millisecond, Type: cellular.HOLTEH}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadResponse(); err == nil {
		t.Fatal("expected EOF after drain")
	}
}

// TestCheckpointKillRestart is the crash-recovery acceptance check: a
// server learns, checkpoints, dies; a new server on the same directory
// restores the pattern database — the re-exported checkpoint is
// byte-identical — and fresh sessions predict warm immediately.
func TestCheckpointKillRestart(t *testing.T) {
	bothFramings(t, testCheckpointKillRestart)
}

func testCheckpointKillRestart(t *testing.T, dial ClientOptions) {
	dir := t.TempDir()
	opts := Options{CheckpointDir: dir, CheckpointInterval: time.Hour}

	srv1, err := ListenWith("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	learnSession(t, srv1.Addr(), dial)
	if n, err := srv1.CheckpointNow(); err != nil || n == 0 {
		t.Fatalf("checkpoint: n=%d err=%v", n, err)
	}
	path := filepath.Join(dir, "prognos-OpX-LTE.ckpt.json")
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	srv1.Close() // the kill

	srv2, err := ListenWith("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if snap := srv2.Stats(); snap.CheckpointRestores != 1 {
		t.Fatalf("restored %d checkpoints, want 1", snap.CheckpointRestores)
	}
	// Re-exporting the restored state must reproduce the file exactly.
	if _, err := srv2.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("restored checkpoint is not byte-identical (%d vs %d bytes)", len(before), len(after))
	}

	// A fresh session on the restarted server predicts warm: the learned
	// A2→LTEH pattern fires on the first trigger report.
	c, err := DialWith(srv2.Addr(), wire.Hello{Carrier: "OpX", Arch: cellular.ArchLTE}, dial)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.SendSample(mkSample(0, -95)); err != nil {
		t.Fatal(err)
	}
	if err := c.SendReport(cellular.MeasurementReport{Time: 0, Event: cellular.EventA2, Tech: cellular.TechLTE, ServingPCI: 1}); err != nil {
		t.Fatal(err)
	}
	resp, err := c.SendSample(mkSample(50*time.Millisecond, -95))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != cellular.HOLTEH {
		t.Errorf("restarted server predicted %s, want a warm LTEH", resp.TypeName)
	}
}

// TestRestoreSkipsUnknownArch pins that a checkpoint whose arch no session
// can name is skipped at restore, like an unreadable file: of one OpX/NSA
// file and one "6G" file, only the first is restored and held.
func TestRestoreSkipsUnknownArch(t *testing.T) {
	dir := t.TempDir()
	for _, arch := range []string{"NSA", "6G"} {
		f := core.CheckpointFile{Carrier: "OpX", Arch: arch, Snapshot: markedSnap(1)}
		if _, err := core.WriteCheckpoint(dir, f); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := ListenWith("127.0.0.1:0", Options{CheckpointDir: dir, CheckpointInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if n := srv.Stats().CheckpointRestores; n != 1 {
		t.Errorf("restored %d checkpoints, want 1", n)
	}
	if n := len(srv.warm.all()); n != 1 {
		t.Errorf("warm store holds %d contexts, want 1", n)
	}
	if _, ok := srv.warmSnapshot("OpX", cellular.ArchNSA); !ok {
		t.Error("the NSA checkpoint was not restored")
	}
}

// TestResilientClientThroughChaos drives a ResilientClient through a
// chaos proxy that keeps resetting connections: every sample must still
// earn exactly one response, with the recovery visible in the stats.
func TestResilientClientThroughChaos(t *testing.T) {
	bothFramings(t, testResilientClientThroughChaos)
}

func testResilientClientThroughChaos(t *testing.T, dial ClientOptions) {
	srv, err := ListenWith("127.0.0.1:0", Options{ResumeGrace: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy, err := chaos.NewProxy("127.0.0.1:0", srv.Addr(), chaos.Config{
		Seed:       99,
		ResetProb:  1,
		ResetBytes: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	rc, err := DialResilient(proxy.Addr(), ResilientOptions{
		Hello: wire.Hello{Carrier: "OpX", Arch: cellular.ArchLTE, SessionToken: "ue-chaos"},
		Dial:  dial,
		Retry: RetryPolicy{MaxAttempts: 20, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
		Seed:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	const n = 60
	for i := 0; i < n; i++ {
		if err := rc.SendSampleAsync(mkSample(time.Duration(i)*50*time.Millisecond, -95)); err != nil {
			t.Fatal(err)
		}
		if _, err := rc.ReadResponse(); err != nil {
			t.Fatal(err)
		}
	}
	st := rc.Stats()
	if st.Sent != n || st.Received != n || st.Lost() != 0 {
		t.Fatalf("accounting: %+v", st)
	}
	if st.Reconnects == 0 {
		t.Fatal("the chaos proxy never forced a reconnect — test is vacuous")
	}
	if st.Resumed == 0 {
		t.Error("no reconnect resumed warm state")
	}
}
