// The state-transfer path under both dispositions: the shared receive
// loop's fault rule and frame vocabulary, drain accounting when a target
// fails mid-stream, and a moved session's learner configuration.

package server

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/metrics"
	"repro/internal/ran"
	"repro/internal/sim"
	"repro/internal/throughput"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/wire"
)

// dispositions lists the two things a receiver can do with shipped
// session states, with the gauge that counts the states it installed.
var dispositions = []struct {
	name      string
	hold      bool
	installed func(metrics.ServerSnapshot) int64
}{
	{"serve", false, func(s metrics.ServerSnapshot) int64 { return s.Parked }},
	{"hold", true, func(s metrics.ServerSnapshot) int64 { return s.ReplicaSessions }},
}

// transferTarget starts a clustered node with resume enabled, so it
// accepts state-transfer streams under either disposition. Its only peer
// is unreachable; nothing here ships outward.
func transferTarget(t *testing.T) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ring, err := cluster.New([]string{ln.Addr().String(), "127.0.0.1:1"}, cluster.NewRingPolicy())
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, Options{ResumeGrace: time.Minute, Cluster: ring, NodeAddr: ln.Addr().String()})
	t.Cleanup(func() { srv.Close() })
	return srv
}

// transferStream is the shipping side of one raw state-transfer stream,
// for tests that misbehave in ways cluster.Ship never does.
type transferStream struct {
	conn net.Conn
	bw   *bufio.Writer
	fr   *wire.FrameReader
}

func dialTransfer(t *testing.T, addr string, hold bool) *transferStream {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
	hello, err := json.Marshal(wire.Hello{Migrate: !hold, Replicate: hold, Node: "test-peer", Framing: string(wire.FramingBinary)})
	if err != nil {
		t.Fatal(err)
	}
	bw.Write(append(hello, '\n'))
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	line, err := wire.ReadLine(br, maxLineBytes)
	if err != nil {
		t.Fatal(err)
	}
	var ack wire.FramingAck
	if err := json.Unmarshal(line, &ack); err != nil || !ack.FramingAck {
		t.Fatalf("transfer hello answered %q", line)
	}
	return &transferStream{conn: conn, bw: bw, fr: wire.NewFrameReader(br)}
}

// sendFrame writes one frame of the given type carrying st as JSON. The
// type is raw so tests can send frames no FrameWriter emits any more.
func (ts *transferStream) sendFrame(t *testing.T, typ byte, st cluster.SessionState) {
	t.Helper()
	payload, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	ts.bw.Write(hdr[:])
	ts.bw.Write(payload)
	if err := ts.bw.Flush(); err != nil {
		t.Fatal(err)
	}
}

// shippedSession is a full session state around a real learner snapshot.
func shippedSession(t *testing.T, token string) cluster.SessionState {
	t.Helper()
	st := cluster.SessionState{
		Version: cluster.SessionStateVersion,
		Token:   token,
		Carrier: "OpX",
		Arch:    cellular.ArchLTE,
		Seq:     1,
	}
	prog, err := newPrognos(st)
	if err != nil {
		t.Fatal(err)
	}
	st.Snapshot = prog.Snapshot()
	return st
}

// TestTransferStreamCutIsChurn pins the one fault rule of the shared
// receive loop: a shipper RST-closed mid-stream — a node dying mid-push,
// or mid-drain — is connection churn, not a session error, under either
// disposition, and every state acked before the cut stays installed.
func TestTransferStreamCutIsChurn(t *testing.T) {
	for _, d := range dispositions {
		t.Run(d.name, func(t *testing.T) {
			srv := transferTarget(t)
			ts := dialTransfer(t, srv.Addr(), d.hold)
			const n = 3
			for i := 0; i < n; i++ {
				ts.sendFrame(t, wire.FrameMigrate, shippedSession(t, fmt.Sprintf("cut-%d", i)))
			}
			for i := 1; i <= n; i++ {
				typ, p, err := ts.fr.ReadFrame()
				if err != nil {
					t.Fatal(err)
				}
				var ack wire.MigrateAck
				if typ != wire.FrameMigrateAck || wire.DecodeMigrateAck(p, &ack) != nil || !ack.OK || ack.Seq != int64(i) {
					t.Fatalf("ack %d: frame 0x%02x %+v", i, typ, ack)
				}
			}
			chaos.RSTClose(ts.conn)
			waitFor(t, "the cut stream to be accounted", func() bool {
				st := srv.Stats()
				return st.Interrupted+st.SessionErrors > 0
			})
			st := srv.Stats()
			if st.SessionErrors != 0 {
				t.Fatalf("cut %s stream counted %d session errors, want 0", d.name, st.SessionErrors)
			}
			if got := d.installed(st); got != n {
				t.Fatalf("%d states installed after the cut, want the %d acked", got, n)
			}
		})
	}
}

// TestTransferRefusesRetiredFrame pins the frame vocabulary: 0x05, which
// once carried replication pushes, is refused like any unknown type with
// a FrameError under either hello, and installs nothing.
func TestTransferRefusesRetiredFrame(t *testing.T) {
	for _, d := range dispositions {
		t.Run(d.name, func(t *testing.T) {
			srv := transferTarget(t)
			ts := dialTransfer(t, srv.Addr(), d.hold)
			ts.sendFrame(t, 0x05, shippedSession(t, "retired"))
			typ, p, err := ts.fr.ReadFrame()
			if err != nil {
				t.Fatal(err)
			}
			if typ != wire.FrameError {
				t.Fatalf("retired frame answered with 0x%02x %q, want FrameError", typ, p)
			}
			st := srv.Stats()
			if got := d.installed(st); got != 0 {
				t.Fatalf("retired frame installed %d states", got)
			}
			if st.MigrationBytesIn != 0 || st.ReplicationBytesIn != 0 {
				t.Fatalf("retired frame counted as received state: %+v", st)
			}
		})
	}
}

// TestDrainCountsAckedStatesOnce pins drain accounting when a target acks
// some states and then fails: the acked sessions count once, in the
// drain's stats and in prognos_migrated_out_sessions_total alike.
func TestDrainCountsAckedStatesOnce(t *testing.T) {
	// The stub peer acks the first frame it receives, then closes its
	// side of the stream.
	stub, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stubDone := make(chan struct{})
	defer func() {
		stub.Close()
		<-stubDone
	}()
	go func() {
		defer close(stubDone)
		conn, err := stub.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
		if _, err := wire.ReadLine(br, maxLineBytes); err != nil {
			return
		}
		json.NewEncoder(bw).Encode(wire.FramingAck{FramingAck: true, Framing: wire.FramingBinary, WireVersion: wire.ProtocolVersion})
		bw.Flush()
		if _, _, err := wire.NewFrameReader(br).ReadFrame(); err != nil {
			return
		}
		wire.NewFrameWriter(bw).WriteMigrateAck(wire.MigrateAck{OK: true, Seq: 1})
		bw.Flush()
		conn.(*net.TCPConn).CloseWrite()
		io.Copy(io.Discard, br) // until the shipper hangs up
	}()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ring, err := cluster.New([]string{ln.Addr().String(), stub.Addr().String()}, cluster.NewRingPolicy())
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, Options{ResumeGrace: time.Minute, Cluster: ring, NodeAddr: ln.Addr().String()})
	defer srv.Close()

	// One live session: the drain ships its state first, then the warm
	// context snapshot it left behind — the frame the stub never acks.
	c, err := Dial(srv.Addr(), wire.Hello{Carrier: "OpX", Arch: cellular.ArchLTE, SessionToken: tokenOwnedBy(t, ring, srv.opts.NodeAddr)})
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

	// The only target failed, so the drain reports a local fallback, not
	// an error; the accounting is what this test is about.
	ds, _ := srv.DrainToCluster(2 * time.Second)
	if ds.Sessions != 1 {
		t.Fatalf("drain stats count %d sessions, want the 1 acked (%+v)", ds.Sessions, ds)
	}
	if out := srv.Stats().MigratedOut; out != 1 {
		t.Fatalf("migrated_out_sessions %d, want 1 to match the drain stats", out)
	}
}

// splitLog cuts a drive log before sample m, so that replaying the two
// halves back to back feeds a predictor exactly what replaying the whole
// log does.
func splitLog(l *trace.Log, m int) (head, tail *trace.Log) {
	cut := l.Samples[m-1].Time
	head = &trace.Log{Samples: l.Samples[:m]}
	tail = &trace.Log{Samples: l.Samples[m:]}
	for _, r := range l.Reports {
		if r.Time <= cut {
			head.Reports = append(head.Reports, r)
		} else {
			tail.Reports = append(tail.Reports, r)
		}
	}
	for _, h := range l.Handovers {
		if h.Time <= cut {
			head.Handovers = append(head.Handovers, h)
		} else {
			tail.Handovers = append(tail.Handovers, h)
		}
	}
	return head, tail
}

// TestMovedSessionKeepsReportPredictor moves a session mid-drive — by
// drain and by full-state failover promotion — and requires the moved
// learner to predict exactly like a reference restored from the same
// snapshot under the session's own configuration: a session's pipeline
// must not change with the node serving it.
func TestMovedSessionKeepsReportPredictor(t *testing.T) {
	const carrier, arch = "OpX", cellular.ArchNSA
	log, err := sim.Run(sim.Config{
		Carrier:      topology.OpX(),
		Arch:         arch,
		RouteKind:    geo.RouteCityLoop,
		RouteLengthM: 600,
		Laps:         1,
		SpeedMPS:     1.4,
		BearerMode:   throughput.ModeSCG,
		Seed:         3,
		TopoOpts:     topology.Options{CityDensity: 0.7},
	})
	if err != nil {
		t.Fatal(err)
	}
	head, tail := splitLog(log, len(log.Samples)/2)
	learner := func(t *testing.T, disable bool, snap *core.Snapshot) *core.Prognos {
		t.Helper()
		p, err := core.New(core.Config{
			EventConfigs:       ran.EventConfigsFor(carrier, arch),
			Arch:               arch,
			UseReportPredictor: !disable,
		})
		if err != nil {
			t.Fatal(err)
		}
		if snap != nil {
			p.Restore(*snap)
		}
		return p
	}
	diverge := func(a, b []core.TickPrediction) int {
		for i := range a {
			if a[i].Type != b[i].Type || a[i].PatternKey != b[i].PatternKey {
				return i
			}
		}
		return -1
	}

	moves := []struct {
		name string
		move func(t *testing.T, from, to *Server, token string)
	}{
		{"drain", func(t *testing.T, from, _ *Server, _ string) {
			if ds, err := from.DrainToCluster(5 * time.Second); err != nil || ds.Sessions != 1 {
				t.Fatalf("drain: %+v, %v", ds, err)
			}
		}},
		{"failover", func(t *testing.T, from, to *Server, token string) {
			from.replicateOnce()
			if !to.promoteReplica(token) {
				t.Fatal("no replica to promote")
			}
		}},
	}
	for _, disable := range []bool{false, true} {
		for _, m := range moves {
			t.Run(fmt.Sprintf("%s/disable_report_predictor=%v", m.name, disable), func(t *testing.T) {
				rig := newClusterRig(t, 2, Options{ResumeGrace: time.Minute})
				owner := rig.addrs[0]
				token := tokenOwnedBy(t, rig.ring, owner)
				successor := rig.byAddr(t, rig.ring.Candidates(token)[1])

				// The session served the first half of the drive on its
				// owner, then parked there.
				prog := learner(t, disable, nil)
				core.Replay(prog, head)
				snap := prog.Snapshot()
				rig.byAddr(t, owner).park(&parkedSession{
					st: cluster.SessionState{
						Token:                  token,
						Carrier:                carrier,
						Arch:                   arch,
						DisableReportPredictor: disable,
						Seq:                    int64(len(head.Samples)),
					},
					prog: prog,
				})
				m.move(t, rig.byAddr(t, owner), successor, token)
				moved := successor.unpark(token)
				if moved == nil {
					t.Fatal("session did not arrive on the successor")
				}

				want := core.Replay(learner(t, disable, &snap), tail)
				if i := diverge(want, core.Replay(learner(t, !disable, &snap), tail)); i < 0 {
					t.Fatal("drive too quiet: both pipeline configurations predict alike")
				}
				if i := diverge(want, core.Replay(moved.prog, tail)); i >= 0 {
					t.Fatalf("moved session diverges from the reference at tick %d of %d", i, len(want))
				}
			})
		}
	}
}
