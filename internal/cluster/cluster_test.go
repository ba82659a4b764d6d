package cluster

import (
	"fmt"
	"hash/fnv"
	"testing"
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

// TestTokenHashMatchesFNV1a pins tokenHash to the standard library's
// 64-bit FNV-1a, so that ring placement stays what it is.
func TestTokenHashMatchesFNV1a(t *testing.T) {
	toks := []string{
		"", "a", "fleet-1-ue-0", "fleet-1-ue-63",
		"prognos-session-token-with-some-length-to-it",
		"\x00\xff\x80 binary-ish bytes \x01",
	}
	for i := 0; i < 256; i++ {
		toks = append(toks, fmt.Sprintf("fleet-%d-ue-%d", i*7919, i))
	}
	for _, tok := range toks {
		h := fnv.New64a()
		h.Write([]byte(tok))
		if got, want := tokenHash(tok), h.Sum64(); got != want {
			t.Fatalf("tokenHash(%q) = %#x, want FNV-1a %#x", tok, got, want)
		}
	}
}

// TestTokenHashZeroAlloc pins the placement hash as allocation-free: it
// runs on every Owner and Candidates lookup.
func TestTokenHashZeroAlloc(t *testing.T) {
	tok := "fleet-42-ue-7"
	if n := testing.AllocsPerRun(100, func() { _ = tokenHash(tok) }); n != 0 {
		t.Fatalf("tokenHash allocates %.1f per call, want 0", n)
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
