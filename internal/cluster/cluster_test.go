package cluster

import (
	"fmt"
	"testing"

	"repro/internal/wire"
)

func members(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("127.0.0.1:%d", 9000+i)
	}
	return out
}

func tokens(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("fleet-1-ue-%d", i)
	}
	return out
}

// TestRingDeterminism pins the property everything else rests on: every
// node (and every client) building a ring from any permutation of the same
// member list must agree on every token's full candidate order.
func TestRingDeterminism(t *testing.T) {
	t.Run("ring", func(t *testing.T) {
		ms := members(5)
		permuted := []string{ms[3], ms[0], ms[4], ms[2], ms[1], ms[0]} // shuffled + duplicate
		a, err := New(ms, NewRingPolicy())
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(permuted, NewRingPolicy())
		if err != nil {
			t.Fatal(err)
		}
		for _, tok := range tokens(500) {
			ca, cb := a.Candidates(tok), b.Candidates(tok)
			if fmt.Sprint(ca) != fmt.Sprint(cb) {
				t.Fatalf("candidate order diverges for %q: %v vs %v", tok, ca, cb)
			}
			if len(ca) != 5 {
				t.Fatalf("candidates for %q: %v, want all 5 members", tok, ca)
			}
			seen := map[string]bool{}
			for _, m := range ca {
				if seen[m] {
					t.Fatalf("duplicate member %s in candidates %v", m, ca)
				}
				seen[m] = true
			}
			if a.Owner(tok) != ca[0] {
				t.Fatalf("Owner disagrees with Candidates[0] for %q", tok)
			}
		}
	})
}

// TestRingHashAgreesWithServerShards pins the routing hash to
// wire.TokenHash — the equivalence the satellite task asks for: the ring
// places tokens with the exact function the server's warm slots and parked
// shards pick shards with.
func TestRingHashAgreesWithServerShards(t *testing.T) {
	for _, tok := range tokens(64) {
		if TokenHash(tok) != wire.TokenHash(tok) {
			t.Fatalf("cluster.TokenHash(%q) != wire.TokenHash", tok)
		}
	}
}

// TestRingDistribution checks the consistent-hash ring spreads tokens
// acceptably: with 64 vnodes/member no member should be starved or hold a
// grossly outsized share.
func TestRingDistribution(t *testing.T) {
	ms := members(3)
	r, err := New(ms, NewRingPolicy())
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const n = 3000
	for _, tok := range tokens(n) {
		counts[r.Owner(tok)]++
	}
	for _, m := range ms {
		share := float64(counts[m]) / n
		if share < 0.15 || share > 0.55 {
			t.Fatalf("member %s owns %.1f%% of %d tokens (counts %v)", m, share*100, n, counts)
		}
	}
}

// TestRingMinimalMovement pins the point of consistent hashing: removing
// one of N members must move only that member's tokens — every token owned
// by a surviving member keeps its owner.
func TestRingMinimalMovement(t *testing.T) {
	ms := members(4)
	r, err := New(ms, NewRingPolicy())
	if err != nil {
		t.Fatal(err)
	}
	gone := ms[2]
	shrunk, err := r.Without(gone)
	if err != nil {
		t.Fatal(err)
	}
	if shrunk.Size() != 3 || shrunk.Contains(gone) {
		t.Fatalf("Without(%s): members %v", gone, shrunk.Members())
	}
	moved := 0
	for _, tok := range tokens(2000) {
		before, after := r.Owner(tok), shrunk.Owner(tok)
		if before == gone {
			moved++
			// The successor must be the drained ring's choice AND the
			// original ring's second candidate — that identity is what
			// lets a draining node compute its successors locally.
			if want := r.Candidates(tok)[1]; after != want {
				t.Fatalf("token %q: successor %s, want original second candidate %s", tok, after, want)
			}
			continue
		}
		if before != after {
			t.Fatalf("token %q moved %s→%s though its owner survived", tok, before, after)
		}
	}
	if moved == 0 {
		t.Fatal("removed member owned no tokens; distribution test should have caught this")
	}
}

// TestRingRejectsBadInput pins constructor validation.
func TestRingRejectsBadInput(t *testing.T) {
	if _, err := New(nil, NewRingPolicy()); err == nil {
		t.Error("empty ring accepted")
	}
	if _, err := New([]string{"a", ""}, NewRingPolicy()); err == nil {
		t.Error("empty member address accepted")
	}
}
