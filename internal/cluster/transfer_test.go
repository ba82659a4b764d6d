package cluster

import (
	"bufio"
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/wire"
)

// stubReceiver accepts one state-transfer stream on a loopback listener
// and hands its side to answer, after checking the hello carries the
// disposition the shipper was asked for. It returns the listener address.
func stubReceiver(t *testing.T, hold bool, answer func(br *bufio.Reader, bw *bufio.Writer)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
		line, err := wire.ReadLine(br, wire.MaxLineBytes)
		if err != nil {
			t.Errorf("stub: reading hello: %v", err)
			return
		}
		var h wire.Hello
		if err := json.Unmarshal(line, &h); err != nil {
			t.Errorf("stub: bad hello %q: %v", line, err)
			return
		}
		if h.Migrate == hold || h.Replicate != hold || h.Node != "origin-node" || h.Framing != string(wire.FramingBinary) {
			t.Errorf("stub: hello %+v does not request hold=%v over binary framing", h, hold)
		}
		answer(br, bw)
		bw.Flush()
	}()
	return ln.Addr().String()
}

// ackFraming writes the receiver's framing ack.
func ackFraming(bw *bufio.Writer) {
	json.NewEncoder(bw).Encode(wire.FramingAck{FramingAck: true, Framing: wire.FramingBinary, WireVersion: wire.ProtocolVersion})
	bw.Flush()
}

// readStates reads n shipped states, failing on any frame but
// FrameMigrate: both dispositions travel in the same frames.
func readStates(t *testing.T, br *bufio.Reader, n int) []SessionState {
	fr := wire.NewFrameReader(br)
	var out []SessionState
	for i := 0; i < n; i++ {
		typ, p, err := fr.ReadFrame()
		if err != nil {
			t.Errorf("stub: frame %d: %v", i+1, err)
			return out
		}
		var st SessionState
		if typ != wire.FrameMigrate || json.Unmarshal(p, &st) != nil {
			t.Errorf("stub: frame %d is 0x%02x %q, want a FrameMigrate session state", i+1, typ, p)
			return out
		}
		out = append(out, st)
	}
	return out
}

// TestShipDispositions runs the one shipping stream body under both of
// its dispositions — Ship (serve) and ShipReplicas (hold) differ only in
// the hello flag — against receivers that accept, nack, refuse, misorder
// and abort, and pins the accounting: every acked state counts, even when
// the stream fails afterwards.
func TestShipDispositions(t *testing.T) {
	states := []SessionState{
		{Token: "ue-1", Carrier: "OpX", Arch: cellular.ArchLTE, Seq: 4},
		{Token: "ue-2", Carrier: "OpX", Arch: cellular.ArchLTE, Seq: 9},
		{Carrier: "OpX", Arch: cellular.ArchLTE}, // context snapshot
	}
	ack := func(bw *bufio.Writer, ok bool, seq int64) {
		wire.NewFrameWriter(bw).WriteMigrateAck(wire.MigrateAck{OK: ok, Seq: seq})
	}
	cases := []struct {
		name    string
		answer  func(t *testing.T, br *bufio.Reader, bw *bufio.Writer)
		want    ShipStats
		wantErr string
	}{
		{
			name: "accounting",
			answer: func(t *testing.T, br *bufio.Reader, bw *bufio.Writer) {
				ackFraming(bw)
				for i, st := range readStates(t, br, len(states)) {
					if st.Version != SessionStateVersion || st.Origin != "origin-node" || st.Token != states[i].Token {
						t.Errorf("stub: state %d arrived as %+v", i+1, st)
					}
				}
				ack(bw, true, 1)
				ack(bw, false, 2)
				ack(bw, true, 3)
			},
			want: ShipStats{Sessions: 1, Rejected: 1, Contexts: 1},
		},
		{
			name: "refused_hello",
			answer: func(t *testing.T, br *bufio.Reader, bw *bufio.Writer) {
				bw.WriteString(`{"error":"not today"}` + "\n")
			},
			wantErr: "not today",
		},
		{
			name: "no_framing_ack",
			answer: func(t *testing.T, br *bufio.Reader, bw *bufio.Writer) {
				bw.WriteString("{}\n")
			},
			wantErr: "without framing ack",
		},
		{
			name: "ack_out_of_order",
			answer: func(t *testing.T, br *bufio.Reader, bw *bufio.Writer) {
				ackFraming(bw)
				readStates(t, br, len(states))
				ack(bw, true, 2)
			},
			wantErr: "out of order",
		},
		{
			name: "abort_after_one",
			answer: func(t *testing.T, br *bufio.Reader, bw *bufio.Writer) {
				ackFraming(bw)
				readStates(t, br, len(states))
				ack(bw, true, 1)
				wire.NewFrameWriter(bw).WriteError("disk full")
			},
			want:    ShipStats{Sessions: 1},
			wantErr: "disk full",
		},
	}
	for _, hold := range []bool{false, true} {
		ship := Ship
		name := "serve"
		if hold {
			ship, name = ShipReplicas, "hold"
		}
		for _, c := range cases {
			t.Run(name+"/"+c.name, func(t *testing.T) {
				addr := stubReceiver(t, hold, func(br *bufio.Reader, bw *bufio.Writer) { c.answer(t, br, bw) })
				got, err := ship(addr, "origin-node", states, 2*time.Second)
				if c.wantErr == "" && err != nil {
					t.Fatalf("ship: %v", err)
				}
				if c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)) {
					t.Fatalf("ship error %v, want one containing %q", err, c.wantErr)
				}
				if c.want.Sessions+c.want.Contexts+c.want.Rejected > 0 && got.Bytes == 0 {
					t.Fatal("acked states but no bytes accounted")
				}
				got.Bytes = 0
				if got != c.want {
					t.Fatalf("ship stats %+v, want %+v", got, c.want)
				}
			})
		}
	}
	if st, err := Ship("127.0.0.1:1", "origin-node", nil, time.Second); err != nil || st != (ShipStats{}) {
		t.Fatalf("empty ship dialled out: %+v, %v", st, err)
	}
}
