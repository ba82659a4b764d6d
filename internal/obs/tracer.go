package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event kinds recorded by the serving pipeline and the simulator. The
// vocabulary is deliberately small and flat: one JSONL line per event,
// every field optional except kind, so the stream greps and jqs cleanly.
const (
	// EvSessionOpen / EvSessionClose bracket a prediction session's clean
	// lifetime; EvSessionPark and EvSessionResume are the resilience-layer
	// transitions between them (an interrupted tokened session parks, a
	// reconnect resumes it).
	EvSessionOpen   = "session_open"
	EvSessionClose  = "session_close"
	EvSessionPark   = "session_park"
	EvSessionResume = "session_resume"
	// EvHOScore is an actionable prediction: the serving pipeline emitted
	// a response whose predicted handover type is not NONE.
	EvHOScore = "ho_score"
	// EvHOTrigger is a simulator-side handover command: the RAN policy
	// fired on a measurement report and scheduled the procedure.
	EvHOTrigger = "ho_trigger"
	// EvPolicyDrift is a simulator-side mid-run policy rewrite: the
	// carrier replaced its active measurement configuration and decision
	// logic while the drive (and any attached learner) was running.
	EvPolicyDrift = "policy_drift"
	// EvCheckpoint is one checkpoint persistence pass.
	EvCheckpoint = "checkpoint_persist"
	// EvMigrateOut is one warm-state shipment to a peer cluster node (a
	// drain or rebalance pass); EvMigrateIn is one session state
	// installed from a peer's shipment.
	EvMigrateOut = "migrate_out"
	EvMigrateIn  = "migrate_in"
	// EvPeerDown / EvPeerUp are failure-detector transitions: a ring peer
	// confirmed down after consecutive missed probes, and its later
	// recovery. EvFailover is one session promoted from replicated state
	// after its owner was confirmed down.
	EvPeerDown = "peer_down"
	EvPeerUp   = "peer_up"
	EvFailover = "failover"
)

// Event is one structured trace record. Seq and WallNS are assigned by
// the Tracer at emit time (WallNS only when unset, so deterministic
// producers like the simulator can suppress wall-clock noise via
// SetWallClock(nil)).
type Event struct {
	// Seq is the 1-based emission ordinal across the tracer's lifetime;
	// gaps in /events output mean the ring overwrote older entries.
	Seq uint64 `json:"seq"`
	// WallNS is the wall-clock emission time in Unix nanoseconds.
	WallNS int64 `json:"wall_ns,omitempty"`
	// SimMS is the simulation-time coordinate of simulator events, in
	// milliseconds of drive time.
	SimMS float64 `json:"sim_ms,omitempty"`
	// Kind is one of the Ev* constants.
	Kind string `json:"kind"`
	// Session identifies the session (its resume token when it has one).
	Session string `json:"session,omitempty"`
	// Carrier/Arch are the deployment context of the event.
	Carrier string `json:"carrier,omitempty"`
	Arch    string `json:"arch,omitempty"`
	// HOType names the handover type of ho_score and ho_trigger events.
	HOType string `json:"ho_type,omitempty"`
	// Source/Target are the cells of a simulator HO trigger.
	Source string `json:"source,omitempty"`
	Target string `json:"target,omitempty"`
	// MRSeq is the measurement-report ordinal at a simulator HO trigger:
	// how many MRs the drive had logged when the policy fired.
	MRSeq int64 `json:"mr_seq,omitempty"`
	// Score is the emitted ho_score; RespSeq the response cursor of
	// session events (how many responses the session had answered).
	Score   float64 `json:"score,omitempty"`
	RespSeq int64   `json:"resp_seq,omitempty"`
	// Bytes carries the payload size of checkpoint events.
	Bytes int64 `json:"bytes,omitempty"`
	// Detail is free-form context for anything the fields above miss.
	Detail string `json:"detail,omitempty"`
}

// Tracer is a bounded, concurrency-safe ring buffer of Events. Emission
// never blocks and never grows past the capacity: when the ring is full
// the oldest event is overwritten, so a tracer can stay attached to a
// busy server forever and /events always returns the most recent window.
//
// A nil *Tracer is valid and ignores every call, so instrumentation sites
// need no guards.
type Tracer struct {
	mu     sync.Mutex
	buf    []Event
	cap    int
	total  uint64
	mirror *json.Encoder
	wall   func() int64
}

// DefaultTracerCap is the ring capacity NewTracer uses for capacity <= 0.
const DefaultTracerCap = 4096

// NewTracer returns a tracer holding up to capacity events
// (DefaultTracerCap when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTracerCap
	}
	return &Tracer{
		buf:  make([]Event, 0, capacity),
		cap:  capacity,
		wall: func() int64 { return time.Now().UnixNano() },
	}
}

// SetWallClock overrides the wall-clock source used to stamp events
// (tests pin it for golden output). A nil clock disables wall stamping
// entirely — the simulator uses this so identical seeds produce
// byte-identical event streams.
func (t *Tracer) SetWallClock(fn func() int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.wall = fn
	t.mu.Unlock()
}

// MirrorTo additionally writes every subsequent event to w as one JSON
// line at emit time (the -trace-file hook). The writer is used under the
// tracer's lock; hand it an *os.File or other self-serializing sink.
func (t *Tracer) MirrorTo(w io.Writer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if w == nil {
		t.mirror = nil
	} else {
		t.mirror = json.NewEncoder(w)
	}
	t.mu.Unlock()
}

// Emit records one event, stamping Seq and (when unset) WallNS.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.total++
	e.Seq = t.total
	if e.WallNS == 0 && t.wall != nil {
		e.WallNS = t.wall()
	}
	if len(t.buf) < t.cap {
		t.buf = append(t.buf, e)
	} else {
		// The ring is full: position (total-1) mod cap continues exactly
		// where the fill phase left off, so overwrite order is FIFO.
		t.buf[int((t.total-1)%uint64(t.cap))] = e
	}
	if t.mirror != nil {
		t.mirror.Encode(e) //nolint:errcheck // mirror is best-effort
	}
}

// Total returns how many events were ever emitted.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Events returns the buffered events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.buf))
	if t.total <= uint64(t.cap) {
		return append(out, t.buf...)
	}
	head := int(t.total % uint64(t.cap)) // index of the oldest entry
	out = append(out, t.buf[head:]...)
	return append(out, t.buf[:head]...)
}

// WriteJSONL writes the buffered events to w, one JSON object per line,
// oldest first — the /events payload and the `vivisect trace` output.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range t.Events() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}
