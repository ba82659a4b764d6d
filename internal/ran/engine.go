package ran

import (
	"time"

	"repro/internal/cellular"
)

// Decision is a handover decision made by the serving cell: the type of the
// procedure to run and the measurement reports that triggered it.
type Decision struct {
	// Type is the decided handover procedure (§4.1's taxonomy), and Rule
	// the policy rule that fired.
	Type cellular.HOType
	Rule *Rule
	// At is the time the triggering MR was received (start of T1).
	At time.Duration
	// Trigger is the final MR of the matched sequence (carries the target
	// neighbour PCI).
	Trigger cellular.MeasurementReport
}

// historyMaxAge bounds how long a measurement report stays decision-
// relevant: carriers react to the recent radio picture, not to a report
// from a minute ago.
const historyMaxAge = 10 * time.Second

// histEntry is one remembered measurement-report key.
type histEntry struct {
	key string
	at  time.Duration
}

// Engine is the serving-cell decision process: it accumulates measurement
// reports and applies the carrier policy (step 4 of Fig. 1). One engine
// serves one UE.
type Engine struct {
	policy *Policy
	// history holds MR keys since the last handover (one "phase" in
	// decision-learner terms), time-bounded by historyMaxAge.
	history    []histEntry
	busyUntil  time.Duration // no new decisions while a HO is in flight
	maxHistory int
}

// NewEngine creates a decision engine for the given policy.
func NewEngine(policy *Policy) *Engine {
	return &Engine{policy: policy, maxHistory: 16}
}

// SetPolicy swaps the active policy (e.g. after an architecture change).
// History is retained: carriers keep recent MR context across
// reconfiguration.
func (e *Engine) SetPolicy(p *Policy) { e.policy = p }

// Busy reports whether a handover is currently in flight at time t.
func (e *Engine) Busy(t time.Duration) bool { return t < e.busyUntil }

// OnReport feeds one measurement report into the engine. If the carrier
// policy fires, the returned Decision is non-nil and the engine marks itself
// busy until the caller invokes Complete.
func (e *Engine) OnReport(mr cellular.MeasurementReport, ctx Context) *Decision {
	e.history = append(e.history, histEntry{key: mr.Key(), at: mr.Time})
	e.prune(mr.Time)
	if e.Busy(mr.Time) {
		return nil
	}
	ho, rule := e.policy.Decide(e.keys(), ctx)
	if ho == cellular.HONone {
		return nil
	}
	return &Decision{Type: ho, Rule: rule, At: mr.Time, Trigger: mr}
}

// prune drops history entries that are too old or beyond the depth cap.
func (e *Engine) prune(now time.Duration) {
	start := 0
	for start < len(e.history) && now-e.history[start].at > historyMaxAge {
		start++
	}
	if over := len(e.history) - start - e.maxHistory; over > 0 {
		start += over
	}
	if start > 0 {
		e.history = e.history[start:]
	}
}

// keys returns the current history as a key slice.
func (e *Engine) keys() []string {
	out := make([]string, len(e.history))
	for i, h := range e.history {
		out[i] = h.key
	}
	return out
}

// Begin marks a handover in flight until the given completion time and
// starts a fresh phase (the MR history is consumed by the decision).
func (e *Engine) Begin(completeAt time.Duration) {
	e.busyUntil = completeAt
	e.history = e.history[:0]
}
