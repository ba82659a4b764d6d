// Package chaos is deterministic, seed-driven fault injection for the
// Prognos serving path. It wraps net.Listener/net.Conn so the protocol
// stack above experiences realistic transport misbehaviour — added
// latency, read/write stalls, partial writes, abrupt RST-style closes,
// byte truncation, accept failures — while every run of the same seed and
// config draws the identical sequence of per-connection fault plans.
//
// Determinism contract: plans are drawn from one seeded RNG at accept
// time, in accept order, under a lock. The i-th accepted connection always
// receives the i-th plan, so History() of two runs with equal seed, config
// and connection count is equal element-for-element. Which client lands on
// which plan depends on dial/accept interleaving — the fault *sequence* is
// what replays, which is exactly what a failure investigation needs.
//
// Use Wrap to serve straight through faults (unit tests), or Proxy to
// interpose a chaos hop between real clients and a real server
// (`prognosload -chaos`).
package chaos

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Config sets the per-connection fault probabilities and magnitudes. All
// probabilities are in [0, 1]; the zero value injects nothing.
type Config struct {
	// Seed drives every random draw; equal seeds replay equal plans.
	Seed int64
	// LatencyProb is the chance a connection gets LatencyMin..LatencyMax
	// of one-time added latency before its first byte moves
	// (defaults 1ms..20ms).
	LatencyProb float64
	LatencyMin  time.Duration
	LatencyMax  time.Duration
	// StallProb is the chance a connection freezes once for StallFor
	// (default 50ms) after 1..StallBytes (default 4096) bytes moved.
	StallProb  float64
	StallFor   time.Duration
	StallBytes int64
	// PartialProb is the chance every write on the connection is chopped
	// into 1..16-byte pieces, each written separately.
	PartialProb float64
	// ResetProb is the chance the connection is abruptly RST-closed after
	// 1..ResetBytes (default 8192) bytes moved.
	ResetProb  float64
	ResetBytes int64
	// TruncateProb is the chance one write is cut mid-buffer after
	// 1..TruncateBytes (default 8192) bytes moved: the tail of that write
	// is dropped and the connection RST-closed.
	TruncateProb  float64
	TruncateBytes int64
	// AcceptFailProb is the chance an accepted connection is immediately
	// dropped and surfaced to the accept loop as a transient error.
	AcceptFailProb float64
}

func (c Config) withDefaults() Config {
	if c.LatencyMin <= 0 {
		c.LatencyMin = time.Millisecond
	}
	if c.LatencyMax < c.LatencyMin {
		c.LatencyMax = 20 * time.Millisecond
	}
	if c.StallFor <= 0 {
		c.StallFor = 50 * time.Millisecond
	}
	if c.StallBytes <= 0 {
		c.StallBytes = 4096
	}
	if c.ResetBytes <= 0 {
		c.ResetBytes = 8192
	}
	if c.TruncateBytes <= 0 {
		c.TruncateBytes = 8192
	}
	return c
}

// Plan is the fault assignment of one accepted connection: which faults
// fire and when. Plans are value types with no internal state, so History
// slices compare with ==.
type Plan struct {
	// Conn is the accept ordinal (0-based).
	Conn int `json:"conn"`
	// AcceptFail drops the connection at accept; no other fault applies.
	AcceptFail bool `json:"accept_fail,omitempty"`
	// Latency is one-time added delay before the first byte moves.
	Latency time.Duration `json:"latency,omitempty"`
	// Partial chops every write into small pieces.
	Partial bool `json:"partial,omitempty"`
	// StallAfter freezes the connection once for StallFor after that many
	// bytes moved (0 = never).
	StallAfter int64         `json:"stall_after,omitempty"`
	StallFor   time.Duration `json:"stall_for,omitempty"`
	// ResetAfter RST-closes the connection after that many bytes moved
	// (0 = never).
	ResetAfter int64 `json:"reset_after,omitempty"`
	// TruncateAfter cuts a write mid-buffer once that many bytes moved,
	// dropping the tail and RST-closing (0 = never).
	TruncateAfter int64 `json:"truncate_after,omitempty"`
	// seed drives the per-connection draws (partial piece sizes).
	seed int64
}

// Active reports whether the plan injects any fault at all.
func (p Plan) Active() bool {
	return p.AcceptFail || p.Latency > 0 || p.Partial || p.StallAfter > 0 || p.ResetAfter > 0 || p.TruncateAfter > 0
}

// String renders the plan compactly for logs.
func (p Plan) String() string {
	if p.AcceptFail {
		return fmt.Sprintf("conn %d: accept-fail", p.Conn)
	}
	s := fmt.Sprintf("conn %d:", p.Conn)
	if p.Latency > 0 {
		s += fmt.Sprintf(" latency=%v", p.Latency)
	}
	if p.Partial {
		s += " partial"
	}
	if p.StallAfter > 0 {
		s += fmt.Sprintf(" stall@%dB/%v", p.StallAfter, p.StallFor)
	}
	if p.ResetAfter > 0 {
		s += fmt.Sprintf(" reset@%dB", p.ResetAfter)
	}
	if p.TruncateAfter > 0 {
		s += fmt.Sprintf(" truncate@%dB", p.TruncateAfter)
	}
	if !p.Active() {
		s += " clean"
	}
	return s
}

// AcceptError is the transient error a chaos listener returns when a plan
// fails the accept; accept loops treat it like any transient failure
// (back off and keep accepting).
type AcceptError struct {
	// Conn is the accept ordinal the failure was assigned to.
	Conn int
}

func (e *AcceptError) Error() string {
	return fmt.Sprintf("chaos: accept failure injected (conn %d)", e.Conn)
}
func (e *AcceptError) Timeout() bool   { return false }
func (e *AcceptError) Temporary() bool { return true }

// Listener wraps a net.Listener with fault injection.
type Listener struct {
	inner net.Listener
	cfg   Config

	mu    sync.Mutex
	rng   *rand.Rand
	plans []Plan
}

// Wrap returns a chaos listener drawing per-connection plans from the
// config's seed.
func Wrap(ln net.Listener, cfg Config) *Listener {
	cfg = cfg.withDefaults()
	return &Listener{
		inner: ln,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
}

// nextPlan draws the next connection's plan. Every gate and magnitude is
// drawn unconditionally in a fixed order, so the draw count per connection
// is constant and the plan sequence depends only on (seed, config).
func (l *Listener) nextPlan() Plan {
	l.mu.Lock()
	defer l.mu.Unlock()
	p := Plan{Conn: len(l.plans), seed: l.rng.Int63()}
	acceptFail := l.rng.Float64() < l.cfg.AcceptFailProb
	latGate, latFrac := l.rng.Float64() < l.cfg.LatencyProb, l.rng.Float64()
	stallGate, stallAt := l.rng.Float64() < l.cfg.StallProb, 1+l.rng.Int63n(l.cfg.StallBytes)
	partial := l.rng.Float64() < l.cfg.PartialProb
	resetGate, resetAt := l.rng.Float64() < l.cfg.ResetProb, 1+l.rng.Int63n(l.cfg.ResetBytes)
	truncGate, truncAt := l.rng.Float64() < l.cfg.TruncateProb, 1+l.rng.Int63n(l.cfg.TruncateBytes)
	switch {
	case acceptFail:
		p.AcceptFail = true
	default:
		if latGate {
			p.Latency = l.cfg.LatencyMin + time.Duration(latFrac*float64(l.cfg.LatencyMax-l.cfg.LatencyMin))
		}
		if stallGate {
			p.StallAfter, p.StallFor = stallAt, l.cfg.StallFor
		}
		p.Partial = partial
		if resetGate {
			p.ResetAfter = resetAt
		} else if truncGate {
			p.TruncateAfter = truncAt
		}
	}
	l.plans = append(l.plans, p)
	return p
}

// Accept returns the next connection wrapped with its fault plan, or an
// *AcceptError when the plan injects an accept failure.
func (l *Listener) Accept() (net.Conn, error) {
	conn, err := l.inner.Accept()
	if err != nil {
		return nil, err
	}
	plan := l.nextPlan()
	if plan.AcceptFail {
		RSTClose(conn)
		return nil, &AcceptError{Conn: plan.Conn}
	}
	return newConn(conn, plan), nil
}

// Close closes the underlying listener.
func (l *Listener) Close() error { return l.inner.Close() }

// Addr returns the underlying listener's address.
func (l *Listener) Addr() net.Addr { return l.inner.Addr() }

// History returns the plans drawn so far, in accept order. Two runs with
// equal seed, config and connection count yield equal histories.
func (l *Listener) History() []Plan {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Plan(nil), l.plans...)
}

// RSTClose tears a connection down abruptly: SO_LINGER 0 makes the close
// send an RST instead of a FIN, the way a crashed peer or cleared NAT
// entry looks from the other side. The chaos proxy uses it for reset
// faults; the node-kill fault schedule (server.Kill, fleet NodeKill)
// uses it to make a whole node's teardown look like a crash.
func RSTClose(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Close()
}

// conn applies one Plan to a net.Conn.
type conn struct {
	net.Conn
	plan Plan

	forwarded atomic.Int64 // bytes moved, both directions
	cut       atomic.Bool  // reset/truncate fired; conn is dead

	latencyOnce sync.Once
	stallOnce   sync.Once

	wmu sync.Mutex // guards rng (partial piece sizes) under concurrent writes
	rng *rand.Rand
}

func newConn(inner net.Conn, plan Plan) *conn {
	return &conn{Conn: inner, plan: plan, rng: rand.New(rand.NewSource(plan.seed))}
}

// errCut is returned once a reset/truncate fault has killed the conn.
type errCut struct{ p Plan }

func (e *errCut) Error() string   { return "chaos: " + e.p.String() + " (connection cut)" }
func (e *errCut) Timeout() bool   { return false }
func (e *errCut) Temporary() bool { return false }

func (c *conn) firstByteLatency() {
	if c.plan.Latency > 0 {
		c.latencyOnce.Do(func() { time.Sleep(c.plan.Latency) })
	}
}

// account moves the byte counter and fires threshold faults (stall once,
// reset permanently). It reports whether the conn is still usable.
func (c *conn) account(n int) bool {
	if n <= 0 {
		return !c.cut.Load()
	}
	total := c.forwarded.Add(int64(n))
	if c.plan.StallAfter > 0 && total >= c.plan.StallAfter {
		c.stallOnce.Do(func() { time.Sleep(c.plan.StallFor) })
	}
	if c.plan.ResetAfter > 0 && total >= c.plan.ResetAfter && c.cut.CompareAndSwap(false, true) {
		RSTClose(c.Conn)
	}
	return !c.cut.Load()
}

func (c *conn) Read(p []byte) (int, error) {
	if c.cut.Load() {
		return 0, &errCut{p: c.plan}
	}
	c.firstByteLatency()
	n, err := c.Conn.Read(p)
	// Deliver what was read even when the reset fires on this very call;
	// the *next* operation observes the cut.
	c.account(n)
	return n, err
}

func (c *conn) Write(p []byte) (int, error) {
	if c.cut.Load() {
		return 0, &errCut{p: c.plan}
	}
	c.firstByteLatency()
	if c.plan.TruncateAfter > 0 {
		if total := c.forwarded.Load(); total+int64(len(p)) > c.plan.TruncateAfter {
			// Cut mid-buffer: forward the head, drop the tail, kill the
			// conn. The short count plus an error keeps the io.Writer
			// contract honest.
			keep := c.plan.TruncateAfter - total
			if keep < 0 {
				keep = 0
			}
			n := 0
			if keep > 0 {
				n, _ = c.writePieces(p[:keep])
			}
			if c.cut.CompareAndSwap(false, true) {
				RSTClose(c.Conn)
			}
			return n, &errCut{p: c.plan}
		}
	}
	n, err := c.writePieces(p)
	if !c.account(n) && err == nil {
		err = &errCut{p: c.plan}
		// The bytes were written before the cut, so the count stands.
	}
	return n, err
}

// writePieces forwards p, chopped into 1..16-byte pieces when the plan
// injects partial writes.
func (c *conn) writePieces(p []byte) (int, error) {
	if !c.plan.Partial {
		return c.Conn.Write(p)
	}
	written := 0
	for written < len(p) {
		c.wmu.Lock()
		size := 1 + c.rng.Intn(16)
		c.wmu.Unlock()
		if size > len(p)-written {
			size = len(p) - written
		}
		n, err := c.Conn.Write(p[written : written+size])
		written += n
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// CloseWrite propagates a half-close to the underlying connection, so
// clean end-of-stream still works through a chaos hop.
func (c *conn) CloseWrite() error {
	if cw, ok := c.Conn.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return fmt.Errorf("chaos: transport does not support half-close")
}
