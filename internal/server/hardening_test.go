package server

import (
	"errors"
	"net"
	"repro/internal/cellular"
	"strings"
	"sync"
	"testing"
	"time"
)

// stubListener scripts Accept results for accept-loop tests.
type stubListener struct {
	mu      sync.Mutex
	results []error // nil means "deliver a live conn"
	conns   chan net.Conn
	addr    net.Addr
	closed  chan struct{}
	once    sync.Once
}

func newStubListener(results []error) *stubListener {
	return &stubListener{
		results: results,
		conns:   make(chan net.Conn, len(results)),
		addr:    &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0},
		closed:  make(chan struct{}),
	}
}

func (l *stubListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	if len(l.results) == 0 {
		l.mu.Unlock()
		<-l.closed
		return nil, net.ErrClosed
	}
	res := l.results[0]
	l.results = l.results[1:]
	l.mu.Unlock()
	if res != nil {
		return nil, res
	}
	server, client := net.Pipe()
	l.conns <- client
	return server, nil
}

func (l *stubListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *stubListener) Addr() net.Addr { return l.addr }

// TestAcceptLoopBackoff is the regression test for the accept-loop
// busy-spin: a run of transient Accept errors must be paced by capped
// exponential backoff, and a successful accept must reset the schedule.
func TestAcceptLoopBackoff(t *testing.T) {
	transient := errors.New("accept: too many open files")
	// 10 errors (the cap is reached twice), a success, 2 more errors,
	// then the listener blocks.
	var script []error
	for i := 0; i < 10; i++ {
		script = append(script, transient)
	}
	script = append(script, nil, transient, transient)
	ln := newStubListener(script)
	srv := newServer(ln, Options{})
	var mu sync.Mutex
	var slept []time.Duration
	srv.sleep = func(d time.Duration) {
		mu.Lock()
		slept = append(slept, d)
		mu.Unlock()
	}
	go srv.acceptLoop()
	// The accepted conn: send nothing, just hold it until the loop has
	// consumed the whole script.
	conn := <-ln.conns
	defer conn.Close()

	ms := time.Millisecond
	want := []time.Duration{
		5 * ms, 10 * ms, 20 * ms, 40 * ms, 80 * ms, 160 * ms, 320 * ms, 640 * ms, // doubling...
		time.Second, time.Second, // ...capped
		5 * ms, 10 * ms, // reset after the success
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(slept)
		mu.Unlock()
		if n >= len(want) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("accept loop stalled: %d backoff sleeps recorded", n)
		}
		time.Sleep(time.Millisecond)
	}
	srv.Close()

	mu.Lock()
	defer mu.Unlock()
	for i, w := range want {
		if i >= len(slept) {
			t.Fatalf("only %d sleeps recorded, want %d", len(slept), len(want))
		}
		if slept[i] != w {
			t.Errorf("sleep[%d] = %v, want %v (full schedule %v)", i, slept[i], w, slept)
		}
	}
}

func TestServerOverLimitRejection(t *testing.T) {
	srv, err := ListenWith("127.0.0.1:0", Options{MaxSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// First session takes the only slot.
	c1, err := Dial(srv.Addr(), Hello{Carrier: "OpX", Arch: cellular.ArchNSA})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := c1.SendSample(mkSample(0, -85)); err != nil {
		t.Fatal(err)
	}

	// Second session must be politely rejected with a structured error.
	c2, err := Dial(srv.Addr(), Hello{Carrier: "OpX", Arch: cellular.ArchNSA})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	_, err = c2.SendSample(mkSample(0, -85))
	if err == nil || !strings.Contains(err.Error(), "session limit") {
		t.Fatalf("over-limit sample error = %v, want a session-limit rejection", err)
	}

	snap := srv.Stats()
	if snap.Rejected != 1 {
		t.Errorf("rejected_sessions = %d, want 1", snap.Rejected)
	}
	if snap.Sessions != 1 {
		t.Errorf("rejected session must not count as opened: sessions = %d", snap.Sessions)
	}

	// Stats sessions are exempt from the limit even while it is saturated.
	if _, err := FetchStats(srv.Addr()); err != nil {
		t.Errorf("stats session rejected at the limit: %v", err)
	}

	// Releasing the slot readmits new sessions.
	c1.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		c3, err := Dial(srv.Addr(), Hello{Carrier: "OpX", Arch: cellular.ArchNSA})
		if err != nil {
			t.Fatal(err)
		}
		_, err = c3.SendSample(mkSample(0, -85))
		c3.Close()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed after session close: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestServerOversizedRecord(t *testing.T) {
	srv, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(srv.Addr(), Hello{Carrier: "OpX", Arch: cellular.ArchNSA})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.SendSample(mkSample(0, -85)); err != nil {
		t.Fatal(err)
	}

	// A record longer than the 1 MiB line limit must produce a structured
	// error, not a silent teardown.
	huge := make([]byte, maxLineBytes+1024)
	for i := range huge {
		huge[i] = 'x'
	}
	huge[len(huge)-1] = '\n'
	if _, err := c.conn.Write(huge); err != nil {
		t.Fatal(err)
	}
	c.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	_, err = c.ReadResponse()
	if err == nil || !strings.Contains(err.Error(), "line limit") {
		t.Fatalf("oversized record error = %v, want a line-limit message", err)
	}

	snap := srv.Stats()
	if snap.Oversized != 1 {
		t.Errorf("oversized_records = %d, want 1", snap.Oversized)
	}
	if snap.SessionErrors != 1 {
		t.Errorf("session_errors = %d, want 1", snap.SessionErrors)
	}
}

func TestServerSessionDeadline(t *testing.T) {
	srv, err := ListenWith("127.0.0.1:0", Options{SessionTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(srv.Addr(), Hello{Carrier: "OpX", Arch: cellular.ArchNSA})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.SendSample(mkSample(0, -85)); err != nil {
		t.Fatal(err)
	}

	// Go quiet past the deadline: the server must expire the session and
	// account the error.
	c.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.ReadResponse(); err == nil {
		t.Fatal("expected the idle session to be expired")
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().SessionErrors == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("deadline expiry not accounted: %+v", srv.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if srv.Stats().Active != 0 {
		t.Errorf("expired session still counted active: %+v", srv.Stats())
	}
}

func TestServerDrainLetsInflightFinish(t *testing.T) {
	srv, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	c, err := Dial(srv.Addr(), Hello{Carrier: "OpX", Arch: cellular.ArchNSA})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.SendSample(mkSample(0, -85)); err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(5 * time.Second) }()

	// New sessions must be refused as soon as the drain starts...
	deadline := time.Now().Add(2 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", srv.Addr(), 200*time.Millisecond)
		if err != nil {
			break
		}
		conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting during drain")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// ...while the in-flight session keeps being served.
	if _, err := c.SendSample(mkSample(50*time.Millisecond, -85)); err != nil {
		t.Fatalf("in-flight session broken by drain: %v", err)
	}

	// Finishing the session completes the drain cleanly.
	if err := c.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain = %v, want clean completion", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain never completed after the last session ended")
	}
	if snap := srv.Stats(); snap.SessionErrors != 0 {
		t.Errorf("clean drain accounted session errors: %+v", snap)
	}
}

func TestServerDrainForceClosesAfterTimeout(t *testing.T) {
	srv, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	c, err := Dial(srv.Addr(), Hello{Carrier: "OpX", Arch: cellular.ArchNSA})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.SendSample(mkSample(0, -85)); err != nil {
		t.Fatal(err)
	}

	// The client never finishes; the drain must cut it after the deadline.
	err = srv.Drain(100 * time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "force-closed 1") {
		t.Fatalf("drain = %v, want a forced-close error naming 1 session", err)
	}
	c.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.ReadResponse(); err == nil {
		t.Error("session survived a forced drain")
	}
}

// TestServerManyConcurrentSessions exercises the serving path at a fleet-ish
// session count; `go test -race ./internal/server` holds it data-race clean.
func TestServerManyConcurrentSessions(t *testing.T) {
	srv, err := ListenWith("127.0.0.1:0", Options{MaxSessions: 64, SessionTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const sessions = 32
	samples := 40
	if testing.Short() {
		samples = 10
	}
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(srv.Addr(), Hello{Carrier: "OpY", Arch: cellular.ArchNSA})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for k := 0; k < samples; k++ {
				if _, err := c.SendSample(mkSample(time.Duration(k)*50*time.Millisecond, -90)); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	snap := srv.Stats()
	if snap.Sessions != sessions || snap.Rejected != 0 || snap.SessionErrors != 0 {
		t.Errorf("snapshot %+v, want %d clean sessions", snap, sessions)
	}
}
