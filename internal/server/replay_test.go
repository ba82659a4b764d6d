package server

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/wire"
)

// shiftBuffer is the replay buffer as a plain slice that drops its oldest
// response past the cap: the oracle the ring is checked against.
type shiftBuffer struct {
	max  int
	resp []Response
}

func (o *shiftBuffer) push(r Response) {
	o.resp = append(o.resp, r)
	if len(o.resp) > o.max {
		o.resp = o.resp[1:]
	}
}

func (o *shiftBuffer) after(last, seq int64) ([]Response, bool) {
	switch n := seq - last; {
	case n < 0 || int64(len(o.resp)) < n:
		return nil, false
	default:
		return o.resp[int64(len(o.resp))-n:], true
	}
}

func (o *shiftBuffer) tail(n int) []Response {
	return o.resp[max(0, len(o.resp)-n):]
}

// span names a run of responses by its first and last seq.
func span(rs []Response) string {
	if len(rs) == 0 {
		return "none"
	}
	return fmt.Sprintf("seq %d..%d", rs[0].Seq, rs[len(rs)-1].Seq)
}

// ringResponse is the response answering sample seq, with every field
// distinct, so a reordered or stale slot shows.
func ringResponse(seq int64) Response {
	return Response{
		Time:       time.Duration(seq) * 50 * time.Millisecond,
		Type:       cellular.HOType(seq % 5),
		TypeName:   fmt.Sprint("t", seq),
		Score:      float64(seq) / 7,
		Similarity: float64(seq) / 11,
		LeadMS:     seq * 3,
		Seq:        seq,
	}
}

// TestReplayRingMatchesShiftOracle pushes up to three times past the cap
// and checks every reader of the ring against the shift-slice oracle:
// after for every cursor from one past the ring's reach to one ahead of
// the session, the replication tail, a parked session's state, and a
// clone that must not share storage with its original.
func TestReplayRingMatchesShiftOracle(t *testing.T) {
	const size = replayBufCap
	for _, pushes := range []int{0, 1, size - 1, size, size + 1, 3*size + 17} {
		ring, oracle := newReplayBuffer(size), &shiftBuffer{max: size}
		for i := 1; i <= pushes; i++ {
			ring.push(ringResponse(int64(i)))
			oracle.push(ringResponse(int64(i)))
		}
		seq := int64(pushes)
		for last := seq - size - 1; last <= seq+1; last++ {
			got, gotOK := ring.after(last, seq)
			want, wantOK := oracle.after(last, seq)
			if gotOK != wantOK || !slices.Equal(got, want) {
				t.Fatalf("%d pushes: after(%d, %d) = %s, %v; want %s, %v",
					pushes, last, seq, span(got), gotOK, span(want), wantOK)
			}
		}

		outbox := newReplicaOutbox()
		outbox.put(&Hello{SessionToken: "ue"}, seq, ring)
		if got, want := outbox.drain()["ue"].Responses, oracle.tail(replicaLiveTail); !slices.Equal(got, want) {
			t.Fatalf("%d pushes: replication tail holds %s, want %s", pushes, span(got), span(want))
		}
		p := &parkedSession{token: "ue", seq: seq, buf: ring}
		if got := p.state().Responses; !slices.Equal(got, oracle.resp) {
			t.Fatalf("%d pushes: parked state holds %s, want %s", pushes, span(got), span(oracle.resp))
		}

		before := slices.Clone(oracle.resp)
		c := ring.clone()
		for i := int64(1); i <= 3; i++ {
			c.push(ringResponse(seq + i))
			oracle.push(ringResponse(seq + i))
		}
		if got := ring.last(size); !slices.Equal(got, before) {
			t.Fatalf("%d pushes: pushing into a clone changed the original", pushes)
		}
		if got := c.last(size); !slices.Equal(got, oracle.resp) {
			t.Fatalf("%d pushes: the clone holds %s after three pushes, want %s", pushes, span(got), span(oracle.resp))
		}
	}
}

// TestResumeReplaysAcrossRingWrap serves 2,500 samples, more than twice
// the ring, cuts the session, and resumes it k responses behind. Up to
// replayBufCap behind, the server replays exactly the k missed responses
// in order and the stream continues at the next seq; one further behind,
// it cold-starts.
func TestResumeReplaysAcrossRingWrap(t *testing.T) {
	const served = 2500
	for _, k := range []int64{0, 1, replicaLiveTail, replayBufCap, replayBufCap + 1} {
		t.Run(fmt.Sprint("k=", k), func(t *testing.T) {
			srv, err := ListenWith("127.0.0.1:0", Options{ResumeGrace: 5 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			dial := ClientOptions{Framing: wire.FramingBinary, NoAutoFlush: true}
			hello := Hello{Carrier: "OpX", Arch: cellular.ArchLTE, SessionToken: "ue-wrap"}
			c1, err := DialWith(srv.Addr(), hello, dial)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c1.readAck(); err != nil {
				t.Fatal(err)
			}
			var got []Response
			for len(got) < served {
				n := min(64, served-len(got))
				for i := 0; i < n; i++ {
					at := len(got) + i
					if err := c1.SendSampleAsync(mkSample(time.Duration(at)*50*time.Millisecond, -90-float64(at%25))); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < n; i++ {
					r, err := c1.ReadResponse()
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, r)
				}
			}
			c1.Close()
			waitFor(t, "session to park", func() bool { return srv.Stats().Parked == 1 })

			hello.LastSeq = served - k
			c2, err := DialWith(srv.Addr(), hello, dial)
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			ack, err := c2.readAck()
			if err != nil {
				t.Fatal(err)
			}
			next := int64(served + 1)
			if k > replayBufCap {
				if ack.Resumed || ack.Seq != 0 {
					t.Fatalf("resume %d behind acked %+v, want a cold start", k, ack)
				}
				next = 1
			} else {
				if !ack.Resumed || ack.Seq != served {
					t.Fatalf("resume %d behind acked %+v, want resumed at seq %d", k, ack, served)
				}
				for _, want := range got[served-k:] {
					r, err := c2.ReadResponse()
					if err != nil {
						t.Fatal(err)
					}
					if r != want {
						t.Fatalf("replayed %+v, want %+v", r, want)
					}
				}
			}
			r, err := c2.SendSample(mkSample(served*50*time.Millisecond, -95))
			if err != nil {
				t.Fatal(err)
			}
			if r.Seq != next {
				t.Fatalf("first sample after the resume acked seq %d, want %d", r.Seq, next)
			}
		})
	}
}
