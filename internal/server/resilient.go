package server

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"repro/internal/cellular"
	"repro/internal/trace"
	"repro/internal/wire"
)

// RetryPolicy bounds a resilient client's reconnect loop: capped
// exponential backoff with seeded jitter. The zero value gives the
// defaults (8 attempts, 50ms doubling to 2s).
type RetryPolicy struct {
	// MaxAttempts is how many connect attempts one recovery makes before
	// giving up (default 8).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; it doubles per
	// attempt up to MaxDelay (defaults 50ms and 2s). Each delay is
	// jittered uniformly over [delay/2, delay] from the client's seeded
	// RNG so a fleet's reconnects do not arrive as a thundering herd.
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 8
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay < p.BaseDelay {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// ResilientOptions configures DialResilient.
type ResilientOptions struct {
	// Hello is the session context; Hello.SessionToken must be set (it is
	// the resume identity) and unique per server.
	Hello wire.Hello
	// Dial tunes the underlying connects.
	Dial ClientOptions
	// Retry bounds each recovery.
	Retry RetryPolicy
	// Seed drives the backoff jitter (deterministic per client).
	Seed int64
	// Fallbacks are alternative server addresses tried when the primary
	// stops answering — for cluster clients, the token's ring candidates
	// after the owner, in preference order. A transport fault rotates to
	// the next address; a redirect error jumps straight to the named
	// owner. The client sticks with whatever address last worked.
	Fallbacks []string
}

// ResilientStats counts a resilient client's recovery activity.
type ResilientStats struct {
	// Reconnects counts successful re-establishments after a transport
	// fault; Resumed how many of those re-attached the server's warm
	// state, ColdResumes how many had to start a fresh server session.
	Reconnects  int64
	Resumed     int64
	ColdResumes int64
	// Redirects counts server redirects followed to the node owning the
	// session's token (cluster routing, not faults).
	Redirects int64
	// Sent counts samples handed to SendSampleAsync, Received the
	// prediction responses returned by ReadResponse. After a finished
	// stream the two are equal unless samples were genuinely lost.
	Sent     int64
	Received int64
}

// Lost is the number of samples that never earned a response.
func (s ResilientStats) Lost() int64 { return s.Sent - s.Received }

var errClientClosed = errors.New("server: resilient client closed")

// ResilientClient wraps Client with automatic recovery: dial timeouts,
// capped-exponential reconnect with jitter, and session resume over the
// token protocol, so a transport fault mid-stream costs latency but never
// samples. Structured server errors (*ServerError) are permanent — they
// are protocol verdicts, not faults — and fail fast without retry.
//
// Like Client, one goroutine may send while another reads; sends are
// serialized under an internal mutex so an inline reconnect can never
// interleave with another send.
type ResilientClient struct {
	opts ResilientOptions

	mu sync.Mutex
	// candidates is the address rotation: the primary, the configured
	// fallbacks, then any redirect targets learned along the way. cur
	// indexes the address currently (or most recently) attached.
	candidates []string
	cur        int
	c          *Client
	gen        int // bumped per adopted conn; dedupes concurrent recovery
	pending    []trace.Sample
	lastSeq    int64
	finishing  bool
	closed     bool
	rng        *rand.Rand
	st         ResilientStats
}

// DialResilient connects to a Prognos server with recovery enabled. The
// initial connect uses the same retry policy as reconnects.
func DialResilient(addr string, opts ResilientOptions) (*ResilientClient, error) {
	if opts.Hello.SessionToken == "" {
		return nil, errors.New("server: resilient client requires Hello.SessionToken")
	}
	opts.Retry = opts.Retry.withDefaults()
	rc := &ResilientClient{
		opts: opts,
		rng:  rand.New(rand.NewSource(opts.Seed)),
	}
	rc.candidates = append(rc.candidates, addr)
	for _, a := range opts.Fallbacks {
		rc.follow(a)
	}
	rc.cur = 0
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if err := rc.connectLocked(false); err != nil {
		return nil, err
	}
	return rc, nil
}

// follow moves the candidate cursor to target, learning it if new.
func (rc *ResilientClient) follow(target string) {
	for i, a := range rc.candidates {
		if a == target {
			rc.cur = i
			return
		}
	}
	rc.candidates = append(rc.candidates, target)
	rc.cur = len(rc.candidates) - 1
}

// maxRedirectsPerRecovery bounds redirect-following within one recovery so
// two nodes disagreeing about ownership can never trap a client in a loop.
// Each declined cold offer (warm probe, below) may legitimately bounce the
// client off one more non-owner, so the effective bound grows with the
// probe count; it stays finite because the probes themselves are bounded.
const maxRedirectsPerRecovery = 4

// maxWarmProbePasses is how many full passes over the candidate list a
// recovery may spend declining cold acks before accepting one as genuine.
const maxWarmProbePasses = 2

// connectLocked (re)establishes the session under rc.mu: dial, hello with
// the resume cursor, ack, then replay-side repair — resending every pending
// sample the server has not answered and re-half-closing when the stream
// was already finishing. reconnect selects whether recovery counters move.
// Transport faults rotate to the next candidate address with backoff;
// redirect errors jump straight to the named owner without consuming an
// attempt (the redirecting node answered — the cluster is healthy, the
// client was just knocking on the wrong door).
func (rc *ResilientClient) connectLocked(reconnect bool) error {
	var lastErr error
	delay := rc.opts.Retry.BaseDelay
	redirects := 0
	probes := 0
	if reconnect && len(rc.candidates) > 1 {
		// A mid-stream cut in cluster mode usually means the node drained
		// or crashed — either way its parked state ships to the next ring
		// candidate, while the node itself may come straight back with an
		// empty parked table (a rolling restart rebinds in milliseconds).
		// Start recovery one candidate over: if the state actually stayed
		// put, that node redirects us straight home, so the resume is warm
		// either way and no spurious cold session is opened on the owner.
		rc.cur = (rc.cur + 1) % len(rc.candidates)
	}
	for attempt := 0; attempt < rc.opts.Retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			jittered := delay/2 + time.Duration(rc.rng.Int63n(int64(delay/2)+1))
			time.Sleep(jittered)
			if delay *= 2; delay > rc.opts.Retry.MaxDelay {
				delay = rc.opts.Retry.MaxDelay
			}
		}
		hello := rc.opts.Hello
		hello.LastSeq = rc.lastSeq
		c, err := DialWith(rc.candidates[rc.cur], hello, rc.opts.Dial)
		var ack wire.ResumeAck
		if err == nil {
			ack, err = c.readAck()
			if err != nil {
				c.Close()
			}
		}
		if err != nil {
			var se *ServerError
			if errors.As(err, &se) {
				if se.Redirect != "" && redirects < maxRedirectsPerRecovery+probes {
					redirects++
					rc.st.Redirects++
					rc.follow(se.Redirect)
					attempt-- // routing, not a fault: no attempt, no backoff
					continue
				}
				return err // protocol verdict: retrying earns the same answer
			}
			lastErr = err
			rc.cur = (rc.cur + 1) % len(rc.candidates)
			continue
		}
		if reconnect && !ack.Resumed && rc.lastSeq > 0 &&
			len(rc.candidates) > 1 && probes < maxWarmProbePasses*len(rc.candidates) {
			// A cold ack right after a mid-stream cut in cluster mode is
			// usually the race, not the truth: the drained node's warm state
			// is still in flight to its ring successor while this client has
			// already dialled on. Declining is free — the server parks only
			// on transport faults, so a clean close ends the fresh session
			// without leaving a stub — so close, give the migration one
			// backoff step to land, and knock on the next door. Only after
			// maxWarmProbePasses full passes over the candidates is a cold
			// answer accepted as genuine (grace expired, state lost).
			probes++
			c.Close()
			rc.cur = (rc.cur + 1) % len(rc.candidates)
			jittered := delay/2 + time.Duration(rc.rng.Int63n(int64(delay/2)+1))
			time.Sleep(jittered)
			if delay *= 2; delay > rc.opts.Retry.MaxDelay {
				delay = rc.opts.Retry.MaxDelay
			}
			attempt-- // probing, not a fault: the node answered
			continue
		}
		resend := rc.pending
		if ack.Resumed {
			// The server replays (lastSeq, ack.Seq] itself; we only owe it
			// the samples it never saw.
			skip := ack.Seq - rc.lastSeq
			if skip < 0 {
				skip = 0
			}
			if skip > int64(len(rc.pending)) {
				skip = int64(len(rc.pending))
			}
			resend = rc.pending[skip:]
		} else {
			// Fresh server session: both cursors restart from zero and
			// everything unanswered is resent.
			rc.lastSeq = 0
		}
		if err := rc.repair(c, resend); err != nil {
			c.Close()
			lastErr = err
			continue
		}
		rc.c = c
		rc.gen++
		if reconnect {
			rc.st.Reconnects++
			if ack.Resumed {
				rc.st.Resumed++
			} else {
				rc.st.ColdResumes++
			}
		}
		return nil
	}
	if lastErr == nil {
		lastErr = errors.New("no attempts made")
	}
	return fmt.Errorf("server: reconnect gave up after %d attempts: %w", rc.opts.Retry.MaxAttempts, lastErr)
}

// repair resends the unanswered tail of the stream on a fresh conn and
// restores the half-close when the stream was already finishing.
func (rc *ResilientClient) repair(c *Client, resend []trace.Sample) error {
	for _, smp := range resend {
		if err := c.SendSampleAsync(smp); err != nil {
			return err
		}
	}
	if rc.finishing {
		return c.CloseWrite()
	}
	return nil
}

// recover re-establishes the session after a fault observed on generation
// gen. If another goroutine already recovered past gen it is a no-op.
func (rc *ResilientClient) recover(gen int) error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.closed {
		return errClientClosed
	}
	if rc.gen != gen {
		return nil
	}
	rc.c.Close()
	return rc.connectLocked(true)
}

// SendSampleAsync streams one radio sample, reconnecting inline on a
// transport fault; the sample is queued as pending before the first send
// attempt, so recovery replays it exactly once.
func (rc *ResilientClient) SendSampleAsync(smp trace.Sample) error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.closed {
		return errClientClosed
	}
	rc.pending = append(rc.pending, smp)
	rc.st.Sent++
	if err := rc.c.SendSampleAsync(smp); err != nil {
		rc.c.Close()
		// connectLocked replays all pending, including this sample.
		return rc.connectLocked(true)
	}
	return nil
}

// SendReport streams one measurement report. Control records are one-way
// observations: a fault triggers a reconnect, but the record itself is not
// replayed (the learner tolerates a dropped report; samples never drop).
func (rc *ResilientClient) SendReport(mr cellular.MeasurementReport) error {
	return rc.sendControl(func(c *Client) error { return c.SendReport(mr) })
}

// SendHandover streams one handover command (same semantics as SendReport).
func (rc *ResilientClient) SendHandover(ho cellular.HandoverEvent) error {
	return rc.sendControl(func(c *Client) error { return c.SendHandover(ho) })
}

func (rc *ResilientClient) sendControl(send func(*Client) error) error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.closed {
		return errClientClosed
	}
	if err := send(rc.c); err != nil {
		rc.c.Close()
		if err := rc.connectLocked(true); err != nil {
			return err
		}
		send(rc.c) // best effort on the fresh conn; a second fault drops it
	}
	return nil
}

// ReadResponse returns the next prediction. On a transport fault it
// recovers and keeps reading; server replay and pending-resend guarantee
// every sent sample earns exactly one response, in seq order. io.EOF is
// only returned once the stream was finished (Finish) and fully drained.
func (rc *ResilientClient) ReadResponse() (wire.Response, error) {
	for {
		rc.mu.Lock()
		if rc.closed {
			rc.mu.Unlock()
			return wire.Response{}, errClientClosed
		}
		c, gen := rc.c, rc.gen
		outstanding := len(rc.pending)
		finishing := rc.finishing
		rc.mu.Unlock()

		resp, err := c.ReadResponse()
		if err == nil {
			rc.mu.Lock()
			adv := resp.Seq - rc.lastSeq
			if adv <= 0 {
				// A duplicate would double-count; the protocol never sends
				// one, but chaos testing deserves the belt and braces.
				rc.mu.Unlock()
				continue
			}
			if adv > int64(len(rc.pending)) {
				adv = int64(len(rc.pending))
			}
			rc.pending = rc.pending[adv:]
			rc.lastSeq = resp.Seq
			rc.st.Received++
			rc.mu.Unlock()
			return resp, nil
		}
		var se *ServerError
		if errors.As(err, &se) {
			return wire.Response{}, err
		}
		if errors.Is(err, io.EOF) && finishing && outstanding == 0 {
			return wire.Response{}, io.EOF
		}
		if rerr := rc.recover(gen); rerr != nil {
			return wire.Response{}, rerr
		}
	}
}

// SendSample streams one radio sample and returns its prediction, the
// blocking round trip closed-loop load uses.
func (rc *ResilientClient) SendSample(smp trace.Sample) (wire.Response, error) {
	if err := rc.SendSampleAsync(smp); err != nil {
		return wire.Response{}, err
	}
	return rc.ReadResponse()
}

// Finish half-closes the stream: the server answers everything in flight
// and ends the session cleanly. Recovery after Finish re-resends pending
// samples and re-half-closes, so ReadResponse still drains to exactly one
// response per sample before reporting io.EOF.
func (rc *ResilientClient) Finish() error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.closed {
		return errClientClosed
	}
	rc.finishing = true
	if err := rc.c.CloseWrite(); err != nil {
		rc.c.Close()
		return rc.connectLocked(true)
	}
	return nil
}

// Close tears the client down; no recovery survives it.
func (rc *ResilientClient) Close() error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.closed {
		return nil
	}
	rc.closed = true
	return rc.c.Close()
}

// Stats returns the recovery counters observed so far.
func (rc *ResilientClient) Stats() ResilientStats {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.st
}

// Addr returns the server address the client is currently attached to. It
// moves with redirects and fallback rotation, so after a cluster drain it
// names the node actually serving the session.
func (rc *ResilientClient) Addr() string {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.candidates[rc.cur]
}
