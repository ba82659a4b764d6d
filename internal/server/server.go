// Package server implements the Prognos network service: a TCP protocol
// through which a UE-side agent streams its cross-layer observations
// (radio samples, sniffed measurement reports and handover commands) and
// receives a handover prediction for every radio sample. This is the
// deployment shape the paper sketches for Prognos-assisted applications: a
// local daemon the application queries for ho_score.
//
// Records travel in one of two framings, negotiated in the hello and
// specified normatively in docs/PROTOCOL.md: line-oriented JSONL (the
// default) or an opt-in length-prefixed binary framing for high-rate
// fleets. The protocol types themselves live in internal/wire.
//
// The server is hardened for fleet-scale load (see internal/fleet): a
// session-concurrency limit with polite over-limit rejection, per-session
// read/write deadlines, capped exponential backoff in the accept loop, a
// structured error (JSONL ErrorLine or binary FrameError, matching the
// session's framing) before any session teardown the server initiates, and
// a graceful drain that stops accepting while letting in-flight sessions
// finish.
package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cellular"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wire"
)

// maxLineBytes bounds one JSONL protocol line (hello, record, response).
const maxLineBytes = wire.MaxLineBytes

// Options tunes the hardening knobs of a Server. The zero value preserves
// the historical behaviour: unlimited sessions, no deadlines.
type Options struct {
	// MaxSessions bounds concurrently served prediction sessions
	// (0 = unlimited). A session over the limit receives one ErrorLine
	// and is closed without being counted as opened; stats sessions are
	// exempt.
	MaxSessions int
	// SessionTimeout is the per-read/per-write deadline applied to every
	// session conn (0 = none). An idle or stuck session errors out after
	// one quiet interval, freeing its slot.
	SessionTimeout time.Duration
	// ResumeGrace enables session resume: when a tokened session loses
	// its transport, the warm Prognos instance is parked for this long
	// and a reconnect presenting the same token re-attaches to it
	// (0 = resume disabled). Parked sessions hold no MaxSessions slot.
	ResumeGrace time.Duration
	// CheckpointDir enables crash-safe learner checkpoints: the server
	// periodically serializes the warmest Prognos state per
	// (carrier, arch) into versioned snapshot files in this directory
	// (atomic rename), restores them on startup, and writes a final
	// checkpoint on Drain. Empty disables checkpointing.
	CheckpointDir string
	// CheckpointInterval is the periodic checkpoint cadence when
	// CheckpointDir is set (default 10s).
	CheckpointInterval time.Duration
	// Tracer, when set, receives structured serving-pipeline events
	// (session lifecycle, actionable ho_score emissions, checkpoint
	// passes) for the ops plane's /events endpoint. Nil disables tracing
	// at zero cost — obs.Tracer methods are nil-safe.
	Tracer *obs.Tracer
	// Cluster and NodeAddr make the server cluster-aware: NodeAddr is this
	// node's identity in the Cluster ring (its serving address as the
	// member list spells it), and a tokened session whose ring owner is
	// another node is answered with a redirect to that owner instead of
	// being served — unless this node holds parked state for the token
	// (the sticky-session rule, ARCHITECTURE.md §Cluster), in which case
	// it serves the resume regardless of the ring so migrated sessions
	// never bounce. Nil Cluster disables all ownership checks. Migration
	// streams (Hello.Migrate) are accepted whether or not Cluster is set.
	Cluster  *cluster.Ring
	NodeAddr string
	// ReplicationInterval enables async warm-state replication: every
	// interval the node pushes its live-session resume states, parked
	// sessions and warm context snapshots to their ring successors
	// (ShipReplicas, docs/PROTOCOL.md §State-transfer frames), so a crash of
	// this node loses at most the samples accumulated since the last push
	// — never a whole session's learner state (docs/ARCHITECTURE.md
	// §Failure model). 0 disables replication. Requires Cluster.
	ReplicationInterval time.Duration
	// HeartbeatInterval is the failure-detector probe cadence against the
	// other ring members. Defaults to 50ms when ReplicationInterval is
	// set, 0 (off) otherwise; < 0 forces it off. Without a running
	// detector replicas are held but never promoted: confirmed failure is
	// the only signal that lets replica state outrank the ring.
	HeartbeatInterval time.Duration
}

const (
	// acceptBackoffMin/Max bound the exponential backoff applied when
	// Accept fails with a non-shutdown error (e.g. EMFILE under load).
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = time.Second
	// maxParked bounds the parked-session table; at the bound the entry
	// closest to expiry is evicted.
	maxParked = 256
)

// withDefaults fills the resilience defaults.
func (o Options) withDefaults() Options {
	if o.CheckpointDir != "" && o.CheckpointInterval <= 0 {
		o.CheckpointInterval = 10 * time.Second
	}
	if o.Cluster == nil {
		o.ReplicationInterval = 0
	}
	if o.ReplicationInterval > 0 && o.HeartbeatInterval == 0 {
		o.HeartbeatInterval = 50 * time.Millisecond
	}
	if o.HeartbeatInterval < 0 || o.Cluster == nil {
		o.HeartbeatInterval = 0
	}
	return o
}

// Server accepts Prognos prediction sessions.
type Server struct {
	ln    net.Listener
	opts  Options
	stats *metrics.ServerStats
	// sleep is the accept-backoff sleeper; tests swap it to observe the
	// backoff schedule without waiting it out.
	sleep func(time.Duration)

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	sessions int // prediction sessions holding a MaxSessions slot

	// The shared stores (store.go) lock themselves and take no part in
	// s.mu's ordering.
	parked *tokenTable[*parkedSession]
	warm   *warmStore

	// Crash-fault tolerance (replicate.go). replicas holds peer session
	// states for failover. replOut is the outbox live sessions deposit
	// their partial state into once per repGen bump (the replication
	// ticker's generation counter); its entries never expire, since only
	// drain reads it. detector confirms peer failures.
	replicas *tokenTable[cluster.SessionState]
	replOut  *tokenTable[cluster.SessionState]
	repGen   atomic.Int64
	detector *cluster.Detector

	wg       sync.WaitGroup
	done     chan struct{}
	stopOnce sync.Once
	closeErr error
}

// Listen starts a server on addr (e.g. "127.0.0.1:7015"; port 0 picks a
// free port) with default Options.
func Listen(addr string) (*Server, error) { return ListenWith(addr, Options{}) }

// ListenWith starts a server on addr with explicit hardening options.
func ListenWith(addr string, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", addr, err)
	}
	return Serve(ln, opts), nil
}

// Serve wires a Server around an existing listener and starts accepting on
// it. Cluster rigs use this to pre-bind every node's listener first — so
// the full member list (real ports included) exists before any node starts
// — and only then bring the servers up around them.
func Serve(ln net.Listener, opts Options) *Server {
	s := newServer(ln, opts)
	go s.acceptLoop()
	return s
}

// newServer wires a Server around an existing listener without starting
// the accept loop (tests drive acceptLoop directly against stub listeners).
func newServer(ln net.Listener, opts Options) *Server {
	s := &Server{
		ln:       ln,
		opts:     opts.withDefaults(),
		stats:    metrics.NewServerStats(),
		sleep:    time.Sleep,
		conns:    make(map[net.Conn]struct{}),
		parked:   newTokenTable[*parkedSession](maxParked),
		warm:     newWarmStore(),
		replicas: newTokenTable[cluster.SessionState](0),
		replOut:  newTokenTable[cluster.SessionState](0),
		done:     make(chan struct{}),
	}
	if s.opts.CheckpointDir != "" {
		s.restoreCheckpoints()
	}
	if s.opts.ResumeGrace > 0 || s.opts.CheckpointDir != "" {
		go s.housekeeping()
	}
	if s.opts.ReplicationInterval > 0 {
		go s.replicationLoop()
	}
	if s.opts.HeartbeatInterval > 0 {
		s.startDetector()
	}
	return s
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stats returns a snapshot of the service's run metrics: sessions served,
// observations streamed, predictions returned and error counters since
// Listen.
func (s *Server) Stats() metrics.ServerSnapshot { return s.stats.Snapshot() }

// Draining reports whether the server has stopped accepting sessions
// (Close or Drain has begun). The ops plane's /readyz probe keys off
// this so load balancers stop routing to a draining daemon while its
// in-flight sessions finish.
func (s *Server) Draining() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// stopAccept makes the accept loop exit; safe to call more than once.
func (s *Server) stopAccept() {
	s.stopOnce.Do(func() {
		close(s.done)
		s.closeErr = s.ln.Close()
		if s.detector != nil {
			s.detector.Stop()
		}
	})
}

// Close stops accepting, force-closes every active session and waits for
// their goroutines to unwind. Drain is the graceful alternative.
func (s *Server) Close() error {
	s.stopAccept()
	s.cutSessions()
	return s.closeErr
}

// cutSessions force-closes every active session conn and waits for the
// session goroutines to unwind — resumable sessions park on the way out —
// returning how many it cut.
func (s *Server) cutSessions() int {
	s.mu.Lock()
	n := len(s.conns)
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return n
}

// Kill tears the server down the way a crash does: accepting stops, every
// active conn is RST-closed mid-flight (SO_LINGER 0, the signature of a
// dead process as the peer sees it), and nothing is drained, migrated or
// checkpointed — whatever state only this node held dies with it. The
// node-kill chaos mode uses this to prove the cluster's replication path
// bounds that loss (docs/ARCHITECTURE.md §Failure model).
func (s *Server) Kill() {
	s.stopAccept()
	s.mu.Lock()
	for c := range s.conns {
		chaos.RSTClose(c)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Drain gracefully shuts the server down: it stops accepting new sessions
// immediately, lets in-flight sessions run to completion for up to timeout,
// then force-closes whatever remains. It returns nil when every session
// finished on its own, or an error naming the number of sessions that had
// to be cut.
func (s *Server) Drain(timeout time.Duration) error {
	s.stopAccept()
	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		if s.opts.CheckpointDir != "" {
			s.CheckpointNow()
		}
		return nil
	case <-time.After(timeout):
	}
	forced := s.cutSessions()
	if s.opts.CheckpointDir != "" {
		// Final checkpoint: every session has now pushed its last warm
		// snapshot, so this capture is the complete pre-shutdown state.
		s.CheckpointNow()
	}
	if forced == 0 {
		return nil
	}
	return fmt.Errorf("server: drain timeout after %v: force-closed %d in-flight sessions", timeout, forced)
}

func (s *Server) acceptLoop() {
	var backoff time.Duration
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
			}
			// Transient accept failures (EMFILE, ECONNABORTED, ...) must
			// not busy-spin the loop: back off exponentially, capped, and
			// reset on the next successful accept.
			if backoff == 0 {
				backoff = acceptBackoffMin
			} else if backoff < acceptBackoffMax {
				backoff *= 2
				if backoff > acceptBackoffMax {
					backoff = acceptBackoffMax
				}
			}
			s.sleep(backoff)
			continue
		}
		backoff = 0
		s.mu.Lock()
		select {
		case <-s.done:
			// Shut down between Accept and registration: drop the conn
			// rather than leak a session past Close/Drain.
			s.mu.Unlock()
			conn.Close()
			return
		default:
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
				s.wg.Done()
			}()
			s.serve(conn)
		}()
	}
}

// acquireSlot claims a session slot; it reports false at the limit.
func (s *Server) acquireSlot() bool {
	if s.opts.MaxSessions <= 0 {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sessions >= s.opts.MaxSessions {
		return false
	}
	s.sessions++
	return true
}

// releaseSlot returns a session slot claimed with acquireSlot.
func (s *Server) releaseSlot() {
	if s.opts.MaxSessions <= 0 {
		return
	}
	s.mu.Lock()
	s.sessions--
	s.mu.Unlock()
}

// timeoutConn arms a fresh deadline before every read and write so a
// session may idle at most Options.SessionTimeout between protocol events.
type timeoutConn struct {
	net.Conn
	d time.Duration
}

func (c timeoutConn) Read(p []byte) (int, error) {
	if err := c.SetReadDeadline(time.Now().Add(c.d)); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

func (c timeoutConn) Write(p []byte) (int, error) {
	if err := c.SetWriteDeadline(time.Now().Add(c.d)); err != nil {
		return 0, err
	}
	return c.Conn.Write(p)
}

// errOverLimit marks over-limit rejections so they land in the Rejected
// counter rather than SessionErrors.
var errOverLimit = errors.New("retry later")

// errInterrupted marks a tokened session cut by a transport fault whose
// warm state was parked for resume: not a session error, and the conn is
// already dead so no ErrorLine is attempted.
var errInterrupted = errors.New("session interrupted")

// redirectError tells a session its token lives on another cluster node.
// serve writes it as a JSONL ErrorLine with the redirect field set —
// always JSONL, because redirects are issued at hello time, before any
// framing ack (docs/PROTOCOL.md §Redirects) — and accounts it as a
// redirect, not a session error.
type redirectError struct{ owner string }

func (e *redirectError) Error() string {
	return fmt.Sprintf("server: session token is owned by cluster node %s", e.owner)
}

// protocolError wraps a record decode failure: the client's fault, to be
// reported back as a structured error, as opposed to a transport fault
// (which parks resumable sessions instead).
type protocolError struct{ err error }

func (e *protocolError) Error() string { return e.err.Error() }
func (e *protocolError) Unwrap() error { return e.err }

// codec is one session's record framing: it reads client records and
// writes server records in either JSONL or binary form, over the shared
// buffered conn halves. Buffered exposes the read side's already-buffered
// bytes so the session loop can coalesce response flushes while more
// pipelined input is waiting (docs/PROTOCOL.md §Flushing).
type codec interface {
	// ReadRecord decodes the next client record into rec. It returns
	// io.EOF at a clean end of stream, a *protocolError for malformed
	// records, wire.ErrLineTooLong/wire.ErrFrameTooLarge for oversized
	// ones, and the transport error otherwise.
	ReadRecord(rec *wire.Record) error
	WriteResponse(wire.Response) error
	WriteResumeAck(wire.ResumeAck) error
	// WriteError emits the structured teardown error in the session's
	// framing (ErrorLine or FrameError).
	WriteError(msg string) error
	Buffered() int
	Flush() error
}

// jsonlCodec is the default line-oriented framing.
type jsonlCodec struct {
	br  *bufio.Reader
	w   *bufio.Writer
	enc *json.Encoder
}

func newJSONLCodec(br *bufio.Reader, w *bufio.Writer) *jsonlCodec {
	return &jsonlCodec{br: br, w: w, enc: json.NewEncoder(w)}
}

func (c *jsonlCodec) ReadRecord(rec *wire.Record) error {
	line, err := wire.ReadLine(c.br, maxLineBytes)
	if err != nil {
		return err
	}
	*rec = wire.Record{}
	if err := json.Unmarshal(line, rec); err != nil {
		return &protocolError{err: err}
	}
	return nil
}

func (c *jsonlCodec) WriteResponse(r wire.Response) error   { return c.enc.Encode(r) }
func (c *jsonlCodec) WriteResumeAck(a wire.ResumeAck) error { return c.enc.Encode(a) }
func (c *jsonlCodec) WriteError(msg string) error           { return c.enc.Encode(wire.ErrorLine{Error: msg}) }
func (c *jsonlCodec) Buffered() int                         { return c.br.Buffered() }
func (c *jsonlCodec) Flush() error                          { return c.w.Flush() }

// binaryCodec is the negotiated length-prefixed framing. Decoded record
// payloads live in the codec's scratch fields and are overwritten by the
// next ReadRecord; the session loop consumes each record before reading
// the next.
type binaryCodec struct {
	fr *wire.FrameReader
	fw *wire.FrameWriter
	w  *bufio.Writer

	sample trace.Sample
	report cellular.MeasurementReport
	ho     cellular.HandoverEvent
}

func newBinaryCodec(br *bufio.Reader, w *bufio.Writer) *binaryCodec {
	return &binaryCodec{fr: wire.NewFrameReader(br), fw: wire.NewFrameWriter(w), w: w}
}

// ackBinary acknowledges a binary framing request on the JSONL layer
// (docs/PROTOCOL.md §Negotiation) and returns the codec for everything
// after that line. The ack stays buffered until the caller flushes.
func ackBinary(br *bufio.Reader, w *bufio.Writer) (*binaryCodec, error) {
	err := json.NewEncoder(w).Encode(wire.FramingAck{
		FramingAck:  true,
		Framing:     wire.FramingBinary,
		WireVersion: wire.ProtocolVersion,
	})
	return newBinaryCodec(br, w), err
}

func (c *binaryCodec) ReadRecord(rec *wire.Record) error {
	typ, p, err := c.fr.ReadFrame()
	if err != nil {
		return err
	}
	rec.Sample, rec.Report, rec.HO = nil, nil, nil
	switch typ {
	case wire.FrameSample:
		if err := wire.DecodeSample(p, &c.sample); err != nil {
			return &protocolError{err: err}
		}
		rec.Sample = &c.sample
	case wire.FrameReport:
		if err := wire.DecodeReport(p, &c.report); err != nil {
			return &protocolError{err: err}
		}
		rec.Report = &c.report
	case wire.FrameHO:
		if err := wire.DecodeHandover(p, &c.ho); err != nil {
			return &protocolError{err: err}
		}
		rec.HO = &c.ho
	default:
		return &protocolError{err: fmt.Errorf("unexpected frame type 0x%02x", typ)}
	}
	return nil
}

func (c *binaryCodec) WriteResponse(r wire.Response) error   { return c.fw.WriteResponse(r) }
func (c *binaryCodec) WriteResumeAck(a wire.ResumeAck) error { return c.fw.WriteResumeAck(a) }
func (c *binaryCodec) WriteError(msg string) error           { return c.fw.WriteError(msg) }
func (c *binaryCodec) Buffered() int                         { return c.fr.Buffered() }
func (c *binaryCodec) Flush() error                          { return c.w.Flush() }

// serve runs one session and accounts its outcome: session errors are
// counted and, when the transport still works, reported to the client as a
// structured error in the session's negotiated framing before teardown.
// Interrupted resumable sessions are parked instead (see session) and
// counted separately.
func (s *Server) serve(conn net.Conn) {
	rw := net.Conn(conn)
	if s.opts.SessionTimeout > 0 {
		rw = timeoutConn{Conn: conn, d: s.opts.SessionTimeout}
	}
	br := bufio.NewReaderSize(rw, 64<<10)
	w := bufio.NewWriter(rw)
	cdc, err := s.session(br, w)
	if err != nil {
		if errors.Is(err, errInterrupted) {
			s.stats.Add(metrics.Interrupted, 1)
			return
		}
		var re *redirectError
		if errors.As(err, &re) {
			// Redirect: not a session error. The error line carries the
			// owning node so the client re-dials there instead of retrying.
			s.stats.Add(metrics.Redirected, 1)
			enc := json.NewEncoder(w)
			if enc.Encode(wire.ErrorLine{Error: err.Error(), Redirect: re.owner}) == nil && w.Flush() == nil {
				conn.SetReadDeadline(time.Now().Add(time.Second))
				io.Copy(io.Discard, conn)
			}
			return
		}
		if !errors.Is(err, errOverLimit) {
			s.stats.Add(metrics.SessionErrors, 1)
		}
		if cdc == nil {
			cdc = newJSONLCodec(br, w)
		}
		// Best effort: the conn may already be gone.
		if cdc.WriteError(err.Error()) == nil && cdc.Flush() == nil {
			// Absorb whatever the client has in flight until it reads the
			// error and closes (bounded), so the teardown is a clean FIN
			// rather than a reset that could destroy the error record.
			conn.SetReadDeadline(time.Now().Add(time.Second))
			io.Copy(io.Discard, conn)
		}
	}
}

// session speaks the protocol on one conn: hello (always JSONL), framing
// negotiation, then records in, predictions out. The returned error is
// what the client is told, through the returned codec (nil when the
// session never got past the hello: the answer stays JSONL).
func (s *Server) session(br *bufio.Reader, w *bufio.Writer) (codec, error) {
	helloLine, err := wire.ReadLine(br, maxLineBytes)
	if err != nil {
		if errors.Is(err, io.EOF) {
			// A connection that closes before sending a single byte never
			// spoke the protocol at all: an aborted dial (a peer's failure-
			// detector probe timing out in the accept backlog), a port scan,
			// a load balancer's TCP health check. Churn, not a session error
			// — counting it would let a busy accept loop inflate the error
			// gauges the crash gates watch.
			return nil, errInterrupted
		}
		return nil, fmt.Errorf("server: reading hello: %w", err)
	}
	var hello wire.Hello
	if err := json.Unmarshal(helloLine, &hello); err != nil {
		return nil, fmt.Errorf("server: bad hello: %w", err)
	}
	if hello.Stats {
		// Stats exchanges are always JSONL, whatever the hello requested.
		enc := json.NewEncoder(w)
		if err := enc.Encode(s.stats.Snapshot()); err != nil {
			return nil, err
		}
		return nil, w.Flush()
	}
	framing, err := wire.ParseFraming(hello.Framing)
	if err != nil {
		// Unsupported framing is rejected before any ack, so the error
		// reaches the client in the framing it can already parse.
		return nil, fmt.Errorf("server: %w", err)
	}
	if hello.Migrate || hello.Replicate {
		// Node-to-node state-transfer stream: no MaxSessions slot, no
		// session counters — it is control plane, not serving load. The
		// hello fixes the disposition for the whole stream; a migrate
		// hello wins if a peer sets both.
		return s.serveTransfer(&hello, br, w, framing, !hello.Migrate)
	}
	if s.opts.Cluster != nil && hello.SessionToken != "" {
		// Ownership check, before the slot claim so redirects cost
		// nothing. The parked-state exception is the sticky-session rule:
		// state migrated here (or parked here) outranks the ring, so a
		// drained-and-restarted origin node never bounces a session back
		// and forth. When the owner is confirmed down by the failure
		// detector, replicated state outranks the ring instead: the
		// failover path promotes this node's replica (or redirects to the
		// token's failover successor) rather than bouncing the client off
		// a dead address (docs/ARCHITECTURE.md §Failure model).
		owner := s.opts.Cluster.Owner(hello.SessionToken)
		if owner != s.opts.NodeAddr && !s.parked.has(hello.SessionToken, time.Now()) {
			if serveHere, target := s.failoverTarget(owner, hello.SessionToken); !serveHere {
				return nil, &redirectError{owner: target}
			}
		}
	}
	if !s.acquireSlot() {
		s.stats.Add(metrics.Rejected, 1)
		return nil, fmt.Errorf("server: session limit reached (max %d), %w", s.opts.MaxSessions, errOverLimit)
	}
	defer s.releaseSlot()
	s.stats.Add(metrics.Sessions, 1)
	s.stats.Add(metrics.Active, 1)
	defer s.stats.Add(metrics.Active, -1)
	s.opts.Tracer.Emit(obs.Event{
		Kind:    obs.EvSessionOpen,
		Session: hello.SessionToken,
		Carrier: hello.Carrier,
		Arch:    hello.Arch.String(),
	})

	var cdc codec
	if framing == wire.FramingBinary {
		// Everything after the ack line (ResumeAck, replay, responses) is
		// binary frames.
		bc, err := ackBinary(br, w)
		if err != nil {
			return nil, err
		}
		cdc = bc
	} else {
		cdc = newJSONLCodec(br, w)
	}

	// A tokened hello may resume a parked warm instance. Parked sessions
	// hold no MaxSessions slot, so the slot acquired above is this conn's
	// own — resume can never leak or double-count slots.
	resumable := hello.SessionToken != "" && s.opts.ResumeGrace > 0
	// id is the session as it ships: the learner's configuration, and the
	// identity of its park and of its replication deposits.
	id := cluster.SessionState{
		Token:                  hello.SessionToken,
		Carrier:                hello.Carrier,
		Arch:                   hello.Arch,
		DisableReportPredictor: hello.DisableReportPredictor,
	}
	var (
		prog   *core.Prognos
		seq    int64
		buf    *replayBuffer
		replay []wire.Response
	)
	resumed := false
	if resumable {
		p := s.unpark(hello.SessionToken)
		if p == nil && s.promoteReplica(hello.SessionToken) {
			// Anti-entropy resume: this node holds the token only as a
			// passive replica — it is a revived owner whose successor pushed
			// the state back, or a failover successor whose detector-gated
			// promotion already ran above. Every redirect decision is behind
			// us, so a replica here is state this node is entitled to serve;
			// promote it rather than cold-start next to warm state.
			p = s.unpark(hello.SessionToken)
		}
		if p != nil {
			pseq, pbuf := p.st.Seq, p.buf
			rs, ok := pbuf.after(hello.LastSeq, pseq)
			if !ok && p.replica && hello.LastSeq > pseq {
				// Promoted replica trailing the client's cursor: the origin
				// died after acknowledging samples the last replication push
				// didn't carry. Fast-forward the cursor to the client's —
				// those samples' learning died with the origin (the bounded-
				// staleness contract), but the stream itself resumes exactly
				// where the client left off, so no acknowledged sample is
				// re-asked or lost. The replay buffer's entries all predate
				// the new cursor, so it restarts empty.
				pseq, pbuf = hello.LastSeq, newReplayBuffer(replayBufCap)
				rs, ok = nil, true
			}
			if ok {
				// The parked entry stays read-only (see parkedSession): the
				// session serves on into a copy of its replay buffer.
				prog, seq, buf, replay = p.prog, pseq, pbuf.clone(), rs
				resumed = true
				s.stats.Add(metrics.Resumed, 1)
				if p.migrated {
					s.stats.Add(metrics.MigratedResumes, 1)
				}
				s.opts.Tracer.Emit(obs.Event{
					Kind:    obs.EvSessionResume,
					Session: hello.SessionToken,
					Carrier: hello.Carrier,
					Arch:    hello.Arch.String(),
					RespSeq: seq,
				})
			}
			// A replay gap means the client is missing responses the
			// buffer no longer holds: drop the parked state and cold-start
			// so the accounting stays exact (the warm store still carries
			// its learned patterns).
		}
	}
	if !resumed {
		var err error
		prog, err = newPrognos(id)
		if err != nil {
			return cdc, err
		}
		// Warm-start the learner from the best snapshot this server has
		// for the deployment context (prior sessions or a restored
		// checkpoint): the cold-start mitigation of §9.
		if snap, ok := s.warmSnapshot(hello.Carrier, hello.Arch); ok {
			prog.Bootstrap(snap.Learner.Patterns)
		}
		if resumable {
			buf = newReplayBuffer(replayBufCap)
		}
	}
	park := func() error {
		if seq == 0 {
			// Nothing served, nothing to resume: an empty park would only
			// shadow (and, since the table replaces by token, destroy) real
			// state for the token — migrated state landing during a
			// client's warm probe.
			return errInterrupted
		}
		id.Seq = seq
		s.park(&parkedSession{st: id, prog: prog, buf: buf})
		return errInterrupted
	}
	// fault is the one exit for a transport fault: a resumable session
	// parks for the grace window instead of failing with err.
	fault := func(err error) (codec, error) {
		if resumable {
			return cdc, park()
		}
		return cdc, err
	}
	if hello.SessionToken != "" {
		// Always acknowledge a token (even when resume is disabled
		// server-side: resumed=false tells the client to start fresh),
		// then replay what the client missed.
		if err := cdc.WriteResumeAck(wire.ResumeAck{ResumeAck: true, Resumed: resumed, Seq: seq}); err != nil {
			return fault(err)
		}
		for _, r := range replay {
			if err := cdc.WriteResponse(r); err != nil {
				return fault(err)
			}
		}
	}
	// Flush the hello-phase output (framing ack and/or resume preamble)
	// before blocking on the first record.
	if err := cdc.Flush(); err != nil {
		return fault(err)
	}

	samplesSinceWarm := 0
	// Live-session replication: once per replication tick (observed as a
	// repGen bump, one atomic load per sample) the session deposits its
	// resume state into the outbox from its own goroutine — no cross-
	// goroutine snapshotting, no lock on the hot path.
	replicating := resumable && s.opts.ReplicationInterval > 0
	var lastRepGen int64
	var rec wire.Record
	for {
		if err := cdc.ReadRecord(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			var pe *protocolError
			switch {
			case errors.Is(err, wire.ErrLineTooLong):
				s.stats.Add(metrics.Oversized, 1)
				return cdc, fmt.Errorf("server: record exceeds the %d-byte line limit", maxLineBytes)
			case errors.Is(err, wire.ErrFrameTooLarge):
				s.stats.Add(metrics.Oversized, 1)
				return cdc, fmt.Errorf("server: record exceeds the %d-byte frame limit", wire.MaxFrameBytes)
			case errors.As(err, &pe):
				return cdc, fmt.Errorf("server: bad record: %w", pe.err)
			}
			// A read-side transport fault (reset, timeout, chaos cut).
			return fault(err)
		}
		switch {
		case rec.Report != nil:
			s.stats.Add(metrics.Reports, 1)
			prog.OnReport(*rec.Report)
		case rec.HO != nil:
			s.stats.Add(metrics.Handovers, 1)
			prog.OnHandover(*rec.HO)
		case rec.Sample != nil:
			reqStart := time.Now()
			s.stats.Add(metrics.Samples, 1)
			prog.OnSample(*rec.Sample)
			pred := prog.Predict()
			s.stats.Add(metrics.Predictions, 1)
			seq++
			resp := wire.Response{
				Time:       rec.Sample.Time,
				Type:       pred.Type,
				TypeName:   pred.Type.String(),
				Score:      pred.Score,
				Similarity: pred.Similarity,
				LeadMS:     pred.Lead.Milliseconds(),
				Seq:        seq,
			}
			if buf != nil {
				buf.push(resp)
			}
			if err := cdc.WriteResponse(resp); err != nil {
				return fault(err)
			}
			// Coalesced flushing: while the client has more records
			// already pipelined, hold the responses back and flush the
			// whole batch once the read side runs dry. Clients write
			// records atomically, so an empty read buffer means the
			// client is (or soon will be) blocked waiting on us.
			if cdc.Buffered() == 0 {
				if err := cdc.Flush(); err != nil {
					return fault(err)
				}
			}
			s.stats.ObserveLatency(time.Since(reqStart))
			if pred.Type != cellular.HONone {
				// Actionable prediction: the serving pipeline warned the
				// application of an impending handover (§7's ho_score).
				s.opts.Tracer.Emit(obs.Event{
					Kind:    obs.EvHOScore,
					Session: hello.SessionToken,
					Carrier: hello.Carrier,
					Arch:    hello.Arch.String(),
					HOType:  pred.Type.String(),
					Score:   pred.Score,
					RespSeq: seq,
					SimMS:   float64(rec.Sample.Time) / float64(time.Millisecond),
				})
			}
			if samplesSinceWarm++; samplesSinceWarm >= warmPushEvery {
				samplesSinceWarm = 0
				s.pushWarm(hello.Carrier, hello.Arch, prog.Snapshot())
			}
			if replicating {
				if gen := s.repGen.Load(); gen != lastRepGen {
					lastRepGen = gen
					s.replOut.put(id.Token, partialState(id, seq, buf), time.Time{})
				}
			}
		}
	}
	// Clean EOF: release any responses still held by flush coalescing.
	if err := cdc.Flush(); err != nil {
		return fault(err)
	}
	// A chaos proxy tearing a path down can surface as EOF rather than an
	// error, so resumable sessions park here too — a genuinely finished
	// client simply never resumes and the entry ages out of the table at
	// the end of the grace window. Sessions that served nothing (seq 0)
	// are the exception: they carry no state worth resuming, and parking
	// them is actively harmful in cluster mode — the parked table
	// replaces by token, so an empty park from a client that declined a
	// cold offer (warm probing, see ResilientClient) would destroy the
	// migrated state the probe was waiting for the moment it lands.
	s.pushWarm(hello.Carrier, hello.Arch, prog.Snapshot())
	s.opts.Tracer.Emit(obs.Event{
		Kind:    obs.EvSessionClose,
		Session: hello.SessionToken,
		Carrier: hello.Carrier,
		Arch:    hello.Arch.String(),
		RespSeq: seq,
	})
	if resumable {
		park()
	}
	return cdc, nil
}

// Client is a convenience wrapper for talking to a Prognos server. Its
// methods are not safe for concurrent use with each other, with one
// exception carved out for open-loop load generation: one goroutine may
// send (SendReport/SendHandover/SendSampleAsync) while another reads
// (ReadResponse), because the send path touches only the write half and
// ReadResponse only the read half. ClientOptions.NoAutoFlush forfeits
// this carve-out (see its doc).
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	w    *bufio.Writer
	enc  *json.Encoder
	// fr/fw are set iff the session negotiated the binary framing.
	fr *wire.FrameReader
	fw *wire.FrameWriter
	// autoFlush mirrors !ClientOptions.NoAutoFlush.
	autoFlush bool
}

// ClientOptions tunes how a Client connects. The zero value gives the
// historical defaults: JSONL framing, one flush per sample.
type ClientOptions struct {
	// DialTimeout bounds the TCP connect (default 5s).
	DialTimeout time.Duration
	// Framing selects the record framing ("" = honour Hello.Framing,
	// defaulting to JSONL). wire.FramingBinary negotiates the binary
	// framing during DialWith; a server that rejects it surfaces as a
	// *ServerError from DialWith.
	Framing wire.Framing
	// NoAutoFlush batches writes: samples are buffered until the client
	// either blocks in ReadResponse (which first flushes anything
	// pending) or calls CloseWrite. This amortises syscalls for windowed
	// closed-loop streaming, but makes ReadResponse touch the write
	// half: a NoAutoFlush client must NOT split sending and reading
	// across goroutines.
	NoAutoFlush bool
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	return o
}

// Dial connects with default options and sends the hello.
func Dial(addr string, hello wire.Hello) (*Client, error) {
	return DialWith(addr, hello, ClientOptions{})
}

// DialWith connects with explicit options, sends the hello and completes
// framing negotiation. For binary framing it reads the server's
// FramingAck before returning; a structured rejection surfaces as a
// *ServerError.
func DialWith(addr string, hello wire.Hello, opts ClientOptions) (*Client, error) {
	opts = opts.withDefaults()
	want := string(opts.Framing)
	if want == "" {
		want = hello.Framing
	}
	framing, err := wire.ParseFraming(want)
	if err != nil {
		return nil, err
	}
	if framing == wire.FramingBinary {
		hello.Framing = string(wire.FramingBinary)
	}
	conn, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("server: dial %s: %w", addr, err)
	}
	c := &Client{
		conn:      conn,
		br:        bufio.NewReaderSize(conn, 64<<10),
		w:         bufio.NewWriter(conn),
		autoFlush: !opts.NoAutoFlush,
	}
	c.enc = json.NewEncoder(c.w)
	if err := c.enc.Encode(hello); err != nil {
		conn.Close()
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		conn.Close()
		return nil, err
	}
	if framing == wire.FramingBinary {
		if err := c.readFramingAck(); err != nil {
			conn.Close()
			return nil, err
		}
		c.fr = wire.NewFrameReader(c.br)
		c.fw = wire.NewFrameWriter(c.w)
	}
	return c, nil
}

// readFramingAck consumes the JSONL FramingAck answering a binary hello.
func (c *Client) readFramingAck() error {
	line, err := wire.ReadLine(c.br, maxLineBytes)
	if err != nil {
		return fmt.Errorf("server: reading framing ack: %w", err)
	}
	var env struct {
		wire.FramingAck
		Err      string `json:"error"`
		Redirect string `json:"redirect"`
	}
	if err := json.Unmarshal(line, &env); err != nil {
		return fmt.Errorf("server: bad framing ack: %w", err)
	}
	if env.Err != "" {
		return &ServerError{Msg: env.Err, Redirect: env.Redirect}
	}
	if !env.FramingAck.FramingAck || env.Framing != wire.FramingBinary {
		return fmt.Errorf("server: expected framing ack, got %q", line)
	}
	return nil
}

// Close terminates the session.
func (c *Client) Close() error { return c.conn.Close() }

// CloseWrite half-closes the session: the server sees EOF (and finishes
// the session cleanly) while responses still in flight remain readable.
func (c *Client) CloseWrite() error {
	if err := c.w.Flush(); err != nil {
		return err
	}
	if tc, ok := c.conn.(*net.TCPConn); ok {
		return tc.CloseWrite()
	}
	return errors.New("server: transport does not support half-close")
}

// SendReport streams one sniffed measurement report. Control records are
// buffered and ride out with the next sample send, ReadResponse or
// CloseWrite rather than paying their own flush.
func (c *Client) SendReport(mr cellular.MeasurementReport) error {
	if c.fw != nil {
		return c.fw.WriteReport(&mr)
	}
	return c.enc.Encode(wire.Record{Report: &mr})
}

// SendHandover streams one sniffed handover command (buffered like
// SendReport).
func (c *Client) SendHandover(ho cellular.HandoverEvent) error {
	if c.fw != nil {
		return c.fw.WriteHandover(&ho)
	}
	return c.enc.Encode(wire.Record{HO: &ho})
}

// SendSample streams one radio sample and returns the server's prediction.
func (c *Client) SendSample(smp trace.Sample) (wire.Response, error) {
	if err := c.SendSampleAsync(smp); err != nil {
		return wire.Response{}, err
	}
	return c.ReadResponse()
}

// SendSampleAsync streams one radio sample without waiting for the
// prediction; pair it with ReadResponse. Open-loop load generation uses
// this split to keep sending on schedule while a reader goroutine measures
// how late the predictions come back. Windowed closed-loop load instead
// sets NoAutoFlush and sends a burst before reading it back.
func (c *Client) SendSampleAsync(smp trace.Sample) error {
	var err error
	if c.fw != nil {
		err = c.fw.WriteSample(&smp)
	} else {
		err = c.enc.Encode(wire.Record{Sample: &smp})
	}
	if err != nil {
		return err
	}
	if c.autoFlush {
		return c.w.Flush()
	}
	return nil
}

// ServerError is a structured error the server sent (as a JSONL ErrorLine
// or a binary FrameError) before tearing the session down: a
// protocol-level verdict (rejection, malformed input, engine failure), not
// a transport fault. Resilient clients treat it as permanent — retrying
// the same session would earn the same answer — with one exception: a
// non-empty Redirect is routing, not a verdict. It names the cluster node
// that owns the session's token; the client should re-dial there.
type ServerError struct {
	Msg      string
	Redirect string
}

func (e *ServerError) Error() string { return "server: session error: " + e.Msg }

// ReadResponse reads the next prediction. Predictions arrive in send
// order, one per sample. A structured server error is returned as a
// *ServerError carrying the server's message. Under NoAutoFlush,
// ReadResponse first flushes any buffered writes so a blocked read can
// never deadlock against records the client still holds locally.
func (c *Client) ReadResponse() (wire.Response, error) {
	if !c.autoFlush && c.w.Buffered() > 0 {
		if err := c.w.Flush(); err != nil {
			return wire.Response{}, err
		}
	}
	if c.fr != nil {
		typ, p, err := c.fr.ReadFrame()
		if err != nil {
			return wire.Response{}, err
		}
		switch typ {
		case wire.FrameResponse:
			var r wire.Response
			if err := wire.DecodeResponse(p, &r); err != nil {
				return wire.Response{}, fmt.Errorf("server: bad response: %w", err)
			}
			return r, nil
		case wire.FrameError:
			return wire.Response{}, &ServerError{Msg: string(p)}
		default:
			return wire.Response{}, fmt.Errorf("server: unexpected frame type 0x%02x", typ)
		}
	}
	line, err := wire.ReadLine(c.br, maxLineBytes)
	if err != nil {
		return wire.Response{}, err
	}
	var env struct {
		wire.Response
		Err      string `json:"error"`
		Redirect string `json:"redirect"`
	}
	if err := json.Unmarshal(line, &env); err != nil {
		return wire.Response{}, fmt.Errorf("server: bad response: %w", err)
	}
	if env.Err != "" {
		return wire.Response{}, &ServerError{Msg: env.Err, Redirect: env.Redirect}
	}
	return env.Response, nil
}

// readAck reads the ResumeAck the server sends for a tokened hello. An
// error record in its place (e.g. over-limit rejection) surfaces as a
// *ServerError.
func (c *Client) readAck() (wire.ResumeAck, error) {
	if c.fr != nil {
		typ, p, err := c.fr.ReadFrame()
		if err != nil {
			return wire.ResumeAck{}, err
		}
		switch typ {
		case wire.FrameResumeAck:
			var a wire.ResumeAck
			if err := wire.DecodeResumeAck(p, &a); err != nil {
				return wire.ResumeAck{}, fmt.Errorf("server: bad resume ack: %w", err)
			}
			return a, nil
		case wire.FrameError:
			return wire.ResumeAck{}, &ServerError{Msg: string(p)}
		default:
			return wire.ResumeAck{}, fmt.Errorf("server: expected resume ack, got frame type 0x%02x", typ)
		}
	}
	line, err := wire.ReadLine(c.br, maxLineBytes)
	if err != nil {
		return wire.ResumeAck{}, err
	}
	var env struct {
		wire.ResumeAck
		Err      string `json:"error"`
		Redirect string `json:"redirect"`
	}
	if err := json.Unmarshal(line, &env); err != nil {
		return wire.ResumeAck{}, fmt.Errorf("server: bad resume ack: %w", err)
	}
	if env.Err != "" {
		return wire.ResumeAck{}, &ServerError{Msg: env.Err, Redirect: env.Redirect}
	}
	if !env.ResumeAck.ResumeAck {
		return wire.ResumeAck{}, fmt.Errorf("server: expected resume ack, got %q", line)
	}
	return env.ResumeAck, nil
}

// FetchStats opens a one-shot stats session against a Prognos server and
// returns its run-metrics snapshot. This is what `prognosd` deployments
// use for liveness dashboards. Stats sessions are always JSONL.
func FetchStats(addr string) (metrics.ServerSnapshot, error) {
	c, err := Dial(addr, wire.Hello{Stats: true})
	if err != nil {
		return metrics.ServerSnapshot{}, err
	}
	defer c.Close()
	line, err := wire.ReadLine(c.br, maxLineBytes)
	if err != nil {
		return metrics.ServerSnapshot{}, err
	}
	var env struct {
		metrics.ServerSnapshot
		Err string `json:"error"`
	}
	if err := json.Unmarshal(line, &env); err != nil {
		return metrics.ServerSnapshot{}, fmt.Errorf("server: bad stats response: %w", err)
	}
	if env.Err != "" {
		return metrics.ServerSnapshot{}, fmt.Errorf("server: stats error: %s", env.Err)
	}
	return env.ServerSnapshot, nil
}
