// Sharded shared state. Every session used to funnel its warm-state pushes
// and park/unpark traffic through two global mutexes; at fleet scale that
// made unrelated sessions serialize on each other. The state is now split
// first per deployment context (carrier, arch) and then per session-token
// hash, so sessions only contend when they genuinely share a slot. The
// externally observable semantics are unchanged: warmSnapshot still
// returns the most recently pushed state per context (a global monotonic
// stamp orders pushes across slots), and checkpoints capture exactly that
// freshest state. ARCHITECTURE.md §Sharding documents the topology and
// lock discipline.

package server

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// warmSlotsPerContext is the token-hash fan-out within one deployment
// context's warm state; parkedShards the fan-out of the parked-session
// table. Both are fixed powers of two: plenty for the contexts' session
// counts while keeping freshest-slot scans trivially cheap.
const (
	warmSlotsPerContext = 16
	parkedShards        = 16
)

// tokenHash is the shared routing hash (wire.TokenHash): the shard picker
// for warm slots and the parked table, and the same function the cluster
// ring places tokens with.
func tokenHash(token string) uint64 { return wire.TokenHash(token) }

// warmStore holds the latest learned state per deployment context, sharded
// per token hash within each context. Lock discipline: the store-level
// RWMutex guards only the grow-only context map (read-locked on every
// access, write-locked only to add a context); each slot has its own
// mutex, and no slot lock is ever held while taking another.
type warmStore struct {
	mu       sync.RWMutex
	contexts map[warmKey]*warmContext
	// stamp is the global push ordinal: freshest-slot selection compares
	// stamps, so "latest push wins" holds across slots exactly as it did
	// across sessions with one global lock.
	stamp atomic.Int64
}

type warmContext struct {
	slots [warmSlotsPerContext]warmSlot
}

type warmSlot struct {
	mu    sync.Mutex
	stamp int64
	ok    bool
	snap  core.Snapshot
}

func newWarmStore() *warmStore {
	return &warmStore{contexts: make(map[warmKey]*warmContext)}
}

// context returns the per-context shard, creating it on first use.
func (ws *warmStore) context(key warmKey) *warmContext {
	ws.mu.RLock()
	wc := ws.contexts[key]
	ws.mu.RUnlock()
	if wc != nil {
		return wc
	}
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if wc = ws.contexts[key]; wc == nil {
		wc = &warmContext{}
		ws.contexts[key] = wc
	}
	return wc
}

// push records snap as the context's latest state in the token's slot.
func (ws *warmStore) push(key warmKey, token string, snap core.Snapshot) {
	wc := ws.context(key)
	slot := &wc.slots[tokenHash(token)%warmSlotsPerContext]
	stamp := ws.stamp.Add(1)
	slot.mu.Lock()
	// Stamps are taken before the slot lock, so two pushes racing into
	// one slot may arrive out of stamp order; keep the newer.
	if stamp > slot.stamp {
		slot.stamp = stamp
		slot.snap = snap
		slot.ok = true
	}
	slot.mu.Unlock()
}

// freshest returns the most recently pushed state for the context.
func (ws *warmStore) freshest(key warmKey) (core.Snapshot, bool) {
	ws.mu.RLock()
	wc := ws.contexts[key]
	ws.mu.RUnlock()
	if wc == nil {
		return core.Snapshot{}, false
	}
	var (
		best      core.Snapshot
		bestStamp int64
		found     bool
	)
	for i := range wc.slots {
		slot := &wc.slots[i]
		slot.mu.Lock()
		if slot.ok && (!found || slot.stamp > bestStamp) {
			best, bestStamp, found = slot.snap, slot.stamp, true
		}
		slot.mu.Unlock()
	}
	return best, found
}

// all returns the freshest state of every known context, for checkpoints.
func (ws *warmStore) all() map[warmKey]core.Snapshot {
	ws.mu.RLock()
	keys := make([]warmKey, 0, len(ws.contexts))
	for k := range ws.contexts {
		keys = append(keys, k)
	}
	ws.mu.RUnlock()
	out := make(map[warmKey]core.Snapshot, len(keys))
	for _, k := range keys {
		if snap, ok := ws.freshest(k); ok {
			out[k] = snap
		}
	}
	return out
}

// parkedTable is the sharded parked-session store: 16 independent maps
// keyed by token hash, with a global approximate count driving eviction.
// Lock discipline: at most one shard mutex is held at a time; the
// cross-shard eviction scan locks shards strictly one after another.
type parkedTable struct {
	shards [parkedShards]parkedShard
	count  atomic.Int64
}

type parkedShard struct {
	mu sync.Mutex
	m  map[string]*parkedSession
}

func newParkedTable() *parkedTable {
	t := &parkedTable{}
	for i := range t.shards {
		t.shards[i].m = make(map[string]*parkedSession)
	}
	return t
}

func (t *parkedTable) shard(token string) *parkedShard {
	return &t.shards[tokenHash(token)%parkedShards]
}

// insert parks p, replacing any previous park under the same token.
// When the table is over max it evicts the entry closest to expiry
// (approximately, under concurrent inserts) and returns it.
func (t *parkedTable) insert(p *parkedSession, max int) (replaced bool, evicted *parkedSession) {
	sh := t.shard(p.token)
	sh.mu.Lock()
	if _, ok := sh.m[p.token]; ok {
		sh.m[p.token] = p
		sh.mu.Unlock()
		return true, nil
	}
	sh.m[p.token] = p
	t.count.Add(1)
	sh.mu.Unlock()
	if max > 0 && t.count.Load() > int64(max) {
		evicted = t.evictSoonest(p.token)
	}
	return false, evicted
}

// evictSoonest removes the parked session with the nearest expiry,
// skipping keep (the entry just inserted). The scan is shard-by-shard, so
// a concurrent insert or removal can make the choice approximate; the
// bound is a back-pressure valve, not an exact LRU.
func (t *parkedTable) evictSoonest(keep string) *parkedSession {
	var victim *parkedSession
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for token, e := range sh.m {
			if token == keep {
				continue
			}
			if victim == nil || e.expires.Before(victim.expires) {
				victim = e
			}
		}
		sh.mu.Unlock()
	}
	if victim == nil {
		return nil
	}
	sh := t.shard(victim.token)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.m[victim.token] != victim {
		return nil // raced with an unpark or replacement; nothing to evict
	}
	delete(sh.m, victim.token)
	t.count.Add(-1)
	return victim
}

// has reports whether a live (non-expired) park exists for token without
// removing it. The cluster ownership check uses this to keep migrated
// sessions sticky: a node serves a token it holds warm state for even when
// the ring says another node owns it.
func (t *parkedTable) has(token string, now time.Time) bool {
	sh := t.shard(token)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	p, ok := sh.m[token]
	return ok && !now.After(p.expires)
}

// drainAll removes and returns every parked session, expired or not — the
// migration path ships them all; the target re-arms expiry on install.
func (t *parkedTable) drainAll() []*parkedSession {
	return t.removeIf(func(*parkedSession) bool { return true })
}

// forEach calls fn on every parked session, one shard lock at a time. fn
// runs under the shard mutex, so an entry cannot be unparked (and its
// Prognos instance handed to a live session) while fn reads it — the
// replication pass snapshots parked state through this.
func (t *parkedTable) forEach(fn func(*parkedSession)) {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, p := range sh.m {
			fn(p)
		}
		sh.mu.Unlock()
	}
}

// remove unparks and returns the session for token, or nil.
func (t *parkedTable) remove(token string) *parkedSession {
	sh := t.shard(token)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	p, ok := sh.m[token]
	if !ok {
		return nil
	}
	delete(sh.m, token)
	t.count.Add(-1)
	return p
}

// sweep removes and returns every parked session past its grace window.
func (t *parkedTable) sweep(now time.Time) []*parkedSession {
	return t.removeIf(func(p *parkedSession) bool { return now.After(p.expires) })
}

// removeIf removes and returns every parked session matching pred, one
// shard lock at a time.
func (t *parkedTable) removeIf(pred func(*parkedSession) bool) []*parkedSession {
	var out []*parkedSession
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for token, p := range sh.m {
			if pred(p) {
				delete(sh.m, token)
				t.count.Add(-1)
				out = append(out, p)
			}
		}
		sh.mu.Unlock()
	}
	return out
}
