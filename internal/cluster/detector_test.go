package cluster

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeProbe is an injectable probe whose answer flips per peer under
// test control.
type fakeProbe struct {
	mu   sync.Mutex
	fail map[string]bool
}

func (p *fakeProbe) set(peer string, failing bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fail == nil {
		p.fail = make(map[string]bool)
	}
	p.fail[peer] = failing
}

func (p *fakeProbe) probe(addr string, _ time.Duration) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fail[addr] {
		return errors.New("probe refused")
	}
	return nil
}

// TestDetectorConfirmAndRecover walks one peer through the full
// lifecycle: healthy, confirmed down after confirmMisses consecutive misses,
// confirmed back up on the first answering probe — with OnChange fired
// exactly once per transition in each direction.
func TestDetectorConfirmAndRecover(t *testing.T) {
	probe := &fakeProbe{}
	var downs, ups atomic.Int64
	d := NewDetector(DetectorConfig{
		Peers:    []string{"peer-a", "peer-b"},
		Interval: 5 * time.Millisecond,
		Probe:    probe.probe,
		OnChange: func(peer string, down bool) {
			if peer != "peer-a" {
				t.Errorf("transition on healthy peer %s", peer)
			}
			if down {
				downs.Add(1)
			} else {
				ups.Add(1)
			}
		},
	})
	d.Start()
	defer d.Stop()

	wait := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Healthy peers never confirm down, however long we probe.
	time.Sleep(40 * time.Millisecond)
	if d.Down("peer-a") || d.Down("peer-b") {
		t.Fatal("healthy peers confirmed down")
	}

	probe.set("peer-a", true)
	wait("peer-a confirmed down", func() bool { return d.Down("peer-a") })
	if d.Down("peer-b") {
		t.Fatal("peer-b confirmed down alongside peer-a")
	}

	// Recovery: the first answering probe clears the confirmation.
	probe.set("peer-a", false)
	wait("peer-a confirmed back up", func() bool { return !d.Down("peer-a") })
	if d.Down("peer-b") {
		t.Fatal("peer-b confirmed down after peer-a recovered")
	}

	// Exactly one transition per direction — staying down across many
	// probe rounds must not re-fire OnChange.
	if downs.Load() != 1 || ups.Load() != 1 {
		t.Fatalf("transitions down=%d up=%d, want 1/1", downs.Load(), ups.Load())
	}
	d.Stop() // idempotent with the deferred Stop
}

// TestDetectorThreshold pins that a single missed probe — a blip one
// short of confirmMisses — never confirms a peer down.
func TestDetectorThreshold(t *testing.T) {
	probe := &fakeProbe{}
	var rounds atomic.Int64
	fired := make(chan string, 1)
	d := NewDetector(DetectorConfig{
		Peers:    []string{"peer-a"},
		Interval: 5 * time.Millisecond,
		Probe: func(addr string, timeout time.Duration) error {
			// Fail exactly the first probe: one short of confirmMisses (2).
			if rounds.Add(1) == 1 {
				return errors.New("blip")
			}
			return probe.probe(addr, timeout)
		},
		OnChange: func(peer string, down bool) {
			select {
			case fired <- peer:
			default:
			}
		},
	})
	d.Start()
	defer d.Stop()

	deadline := time.Now().Add(2 * time.Second)
	for rounds.Load() < 6 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if d.Down("peer-a") {
		t.Fatal("sub-threshold misses confirmed the peer down")
	}
	select {
	case p := <-fired:
		t.Fatalf("OnChange fired for %s on sub-threshold misses", p)
	default:
	}
}

// TestProbeStats exercises the default probe end to end against a fake
// stats endpoint: an answering node probes healthy, a node that accepts
// but never answers times out, and a dead port fails the dial.
func TestProbeStats(t *testing.T) {
	// A minimal stats responder: read the hello line, answer one line.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				br := bufio.NewReader(c)
				if _, err := br.ReadString('\n'); err != nil {
					return
				}
				c.Write([]byte("{\"sessions\":0}\n"))
			}(conn)
		}
	}()
	if err := ProbeStats(ln.Addr().String(), time.Second); err != nil {
		t.Fatalf("probe against an answering node failed: %v", err)
	}

	// Accepts but never answers: the probe must time out, not hang.
	mute, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	go func() {
		for {
			conn, err := mute.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	if err := ProbeStats(mute.Addr().String(), 30*time.Millisecond); err == nil {
		t.Fatal("probe against a mute node reported healthy")
	}

	// Dead port: reserve one and close it again.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	if err := ProbeStats(deadAddr, 100*time.Millisecond); err == nil {
		t.Fatal("probe against a dead port reported healthy")
	}
}
