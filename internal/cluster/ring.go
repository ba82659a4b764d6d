// Package cluster turns N prognosd processes into one serving fleet. It
// owns three things: token placement (a consistent-hash ring over session
// tokens, hashed with the exact wire.TokenHash the server's shards use),
// the state-transfer client that ships parked sessions and warm snapshots
// between nodes over the docs/PROTOCOL.md §State-transfer frames — for a
// drain handoff or a crash-fault replica alike — and the failure detector
// that decides when a replica may be served.
//
// The membership model is deliberately static-per-run: every node and every
// client is configured with the same member list and derives the same ring.
// There is no gossip or consensus — ROADMAP item 2 asks for horizontal
// scale-out with live migration, not a membership protocol. What keeps the
// fleet coherent through drains and restarts is the sticky-session rule
// (ARCHITECTURE.md §Cluster): a node serves any token it holds warm state
// for, even when the ring names another owner, so migrated sessions do not
// bounce back after their origin node returns.
package cluster

import (
	"fmt"
	"sort"
)

// Ring maps session tokens to cluster members. It is immutable once built,
// and therefore safe for concurrent use without locking; a changed member
// set is a new ring (see Without).
type Ring struct {
	policy  Policy
	members []string // sorted, deduplicated
}

// New builds a ring over members (serving addresses) under the given
// placement policy. Members are deduplicated and sorted, so any permutation
// of the same list yields an identical ring on every node.
func New(members []string, policy Policy) (*Ring, error) {
	if policy == nil {
		policy = NewRingPolicy()
	}
	seen := make(map[string]bool, len(members))
	var ms []string
	for _, m := range members {
		if m == "" {
			return nil, fmt.Errorf("cluster: empty member address")
		}
		if !seen[m] {
			seen[m] = true
			ms = append(ms, m)
		}
	}
	if len(ms) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	sort.Strings(ms)
	policy.Rebuild(ms)
	return &Ring{policy: policy, members: ms}, nil
}

// Members returns the member list (sorted copy).
func (r *Ring) Members() []string {
	return append([]string(nil), r.members...)
}

// Size returns the member count.
func (r *Ring) Size() int { return len(r.members) }

// Owner returns the member that owns token.
func (r *Ring) Owner(token string) string {
	return r.policy.Candidates(TokenHash(token))[0]
}

// Candidates returns every member in placement-preference order for token:
// index 0 is the owner, index 1 the successor a drain migrates the token
// to, and so on. The slice is freshly allocated.
func (r *Ring) Candidates(token string) []string {
	return r.policy.Candidates(TokenHash(token))
}

// Contains reports whether addr is a ring member.
func (r *Ring) Contains(addr string) bool {
	for _, m := range r.members {
		if m == addr {
			return true
		}
	}
	return false
}

// Without returns a new independent ring over the members minus addr. This
// is the drain computation: the successor of every token a draining node
// holds is Without(self).Owner — exactly where the remaining ring will
// route the token's UE next.
func (r *Ring) Without(addr string) (*Ring, error) {
	rest := make([]string, 0, len(r.members))
	for _, m := range r.members {
		if m != addr {
			rest = append(rest, m)
		}
	}
	return New(rest, nil)
}
