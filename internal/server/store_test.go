package server

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// markedSnap builds a snapshot distinguishable by its Learned counter, so
// tests can tell exactly which push freshest returned.
func markedSnap(mark int) core.Snapshot {
	return core.Snapshot{Learner: core.LearnerState{Learned: mark}}
}

// TestWarmStoreFreshestLatestWins drives the warm store with concurrent
// pushes to one context, then performs a single serialized push and
// asserts freshest returns exactly that one. Run under -race this also
// exercises the store's lock discipline.
func TestWarmStoreFreshestLatestWins(t *testing.T) {
	ws := newWarmStore()
	key := warmKey{carrier: "OpX", arch: "NSA"}
	other := warmKey{carrier: "OpY", arch: "SA"}

	const (
		pushers        = 8
		pushesPerGorou = 200
	)
	var wg sync.WaitGroup
	for g := 0; g < pushers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < pushesPerGorou; i++ {
				// A second context ensures no cross-context bleed.
				ws.push(key, markedSnap(g*pushesPerGorou+i))
				if i%3 == 0 {
					ws.push(other, markedSnap(-1))
				}
				// Interleave reads with the writes: freshest must always
				// see a complete snapshot, never a torn one.
				if i%7 == 0 {
					if snap, ok := ws.freshest(key); ok && snap.Learner.Learned < 0 {
						t.Errorf("freshest(%v) returned a snapshot pushed to another context", key)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// After the storm, one serialized push must win outright.
	const finalMark = pushers*pushesPerGorou + 1
	ws.push(key, markedSnap(finalMark))
	snap, ok := ws.freshest(key)
	if !ok {
		t.Fatalf("freshest(%v) found nothing after %d pushes", key, pushers*pushesPerGorou+1)
	}
	if snap.Learner.Learned != finalMark {
		t.Fatalf("freshest(%v) = mark %d, want the final serialized push %d",
			key, snap.Learner.Learned, finalMark)
	}

	// The second context saw only its own pushes.
	snap, ok = ws.freshest(other)
	if !ok || snap.Learner.Learned != -1 {
		t.Fatalf("freshest(%v) = (%v, %v), want the -1 marker", other, snap.Learner.Learned, ok)
	}

	// all() must agree with freshest for every context.
	for k, got := range ws.all() {
		want, ok := ws.freshest(k)
		if !ok || got.Learner.Learned != want.Learner.Learned {
			t.Fatalf("all()[%v] = mark %d, freshest = (%d, %v)", k, got.Learner.Learned, want.Learner.Learned, ok)
		}
	}
}

// TestTokenTableEvictsSoonest pins the bound's exact eviction: a put of a
// new token into a full table evicts the entry with the soonest expiry,
// whatever the insertion order, and never the entry being put, even when
// that entry expires soonest of all. Replacing a token evicts nothing.
func TestTokenTableEvictsSoonest(t *testing.T) {
	base := time.Now()
	at := func(sec int) time.Time { return base.Add(time.Duration(sec) * time.Second) }
	tt := newTokenTable[int](3)
	for _, e := range []struct {
		token string
		sec   int
	}{{"b", 2}, {"a", 1}, {"c", 3}} {
		if replaced, evicted := tt.put(e.token, e.sec, at(e.sec)); replaced || evicted {
			t.Fatalf("put(%q) below the bound = (replaced %v, evicted %v)", e.token, replaced, evicted)
		}
	}
	if replaced, evicted := tt.put("c", 30, at(30)); !replaced || evicted {
		t.Fatalf("put over an existing token = (replaced %v, evicted %v), want (true, false)", replaced, evicted)
	}
	if replaced, evicted := tt.put("z", 0, at(0)); replaced || !evicted {
		t.Fatalf("put into a full table = (replaced %v, evicted %v), want (false, true)", replaced, evicted)
	}
	for token, want := range map[string]bool{"a": false, "b": true, "c": true, "z": true} {
		if got := tt.has(token, base); got != want {
			t.Errorf("has(%q) = %v, want %v: the soonest expiry (a) goes, the new entry (z) stays", token, got, want)
		}
	}
	if n := tt.size(); n != 3 {
		t.Fatalf("size = %d, want the bound 3", n)
	}
	// With z in place it is now the soonest, so the next new token evicts it.
	tt.put("d", 4, at(4))
	if tt.has("z", base) || !tt.has("d", base) {
		t.Fatal("second eviction did not take the soonest-expiring entry")
	}
}
