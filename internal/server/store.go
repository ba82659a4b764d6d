// Shared server state: the stores every session of a server reaches. Each
// is one map under one mutex, and no store lock is ever held across a call
// into core — a learner snapshot is taken before the lock and shared
// read-only after it. ARCHITECTURE.md §Shared server state gives the
// measured traffic a single mutex serves.

package server

import (
	"sync"
	"time"

	"repro/internal/core"
)

// warmStore holds the latest learned state per deployment context: what a
// new session of the context bootstraps from and what checkpoints persist.
// The last push to take the lock wins.
type warmStore struct {
	mu sync.Mutex
	m  map[warmKey]core.Snapshot
}

func newWarmStore() *warmStore {
	return &warmStore{m: make(map[warmKey]core.Snapshot)}
}

// push records snap as the context's latest state.
func (ws *warmStore) push(key warmKey, snap core.Snapshot) {
	ws.mu.Lock()
	ws.m[key] = snap
	ws.mu.Unlock()
}

// freshest returns the latest state pushed for the context.
func (ws *warmStore) freshest(key warmKey) (core.Snapshot, bool) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	snap, ok := ws.m[key]
	return snap, ok
}

// all returns the latest state of every known context, for checkpoints and
// ship rounds.
func (ws *warmStore) all() map[warmKey]core.Snapshot {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	out := make(map[warmKey]core.Snapshot, len(ws.m))
	for k, snap := range ws.m {
		out[k] = snap
	}
	return out
}

// tokenTable maps a session token to a value that expires. It is the
// parked-session table (bounded) and the replica table (unbounded). Expiry
// is enforced only where a caller passes the clock: has, sweep and live.
type tokenTable[V any] struct {
	mu sync.Mutex
	m  map[string]tokenEntry[V]
	// max bounds the table (0 = unbounded): a put of a new token into a
	// full table first evicts the entry with the soonest expiry.
	max int
}

type tokenEntry[V any] struct {
	v       V
	expires time.Time
}

func newTokenTable[V any](max int) *tokenTable[V] {
	return &tokenTable[V]{m: make(map[string]tokenEntry[V]), max: max}
}

// put stores v under token until expires. It reports whether it replaced
// an entry for the same token, and whether it evicted another entry to stay
// within the bound. The entry being put is never the one evicted.
func (t *tokenTable[V]) put(token string, v V, expires time.Time) (replaced, evicted bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, replaced = t.m[token]
	if !replaced && t.max > 0 && len(t.m) >= t.max {
		var (
			victim  string
			soonest time.Time
			found   bool
		)
		for k, e := range t.m {
			if !found || e.expires.Before(soonest) {
				victim, soonest, found = k, e.expires, true
			}
		}
		delete(t.m, victim)
		evicted = true
	}
	t.m[token] = tokenEntry[V]{v: v, expires: expires}
	return replaced, evicted
}

// take removes and returns the entry for token, expired or not.
func (t *tokenTable[V]) take(token string) (v V, expires time.Time, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.m[token]
	if ok {
		delete(t.m, token)
	}
	return e.v, e.expires, ok
}

// has reports whether a live (non-expired) entry exists for token without
// removing it.
func (t *tokenTable[V]) has(token string, now time.Time) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.m[token]
	return ok && !now.After(e.expires)
}

// sweep removes every entry past its expiry and returns how many fell.
func (t *tokenTable[V]) sweep(now time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for token, e := range t.m {
		if now.After(e.expires) {
			delete(t.m, token)
			n++
		}
	}
	return n
}

// drain removes and returns every value, expired or not.
func (t *tokenTable[V]) drain() []V {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]V, 0, len(t.m))
	for _, e := range t.m {
		out = append(out, e.v)
	}
	clear(t.m)
	return out
}

// live returns the values not yet expired at now, leaving them in place.
func (t *tokenTable[V]) live(now time.Time) []V {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []V
	for _, e := range t.m {
		if !now.After(e.expires) {
			out = append(out, e.v)
		}
	}
	return out
}

// size returns the current entry count (tests).
func (t *tokenTable[V]) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}
