package cluster

import (
	"sort"
	"strconv"
)

// tokenHash is FNV-1a over a session token: the hash the ring places
// tokens and virtual nodes with. TestTokenHashMatchesFNV1a pins it against
// the standard library's hash/fnv.
func tokenHash(token string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(token); i++ {
		h ^= uint64(token[i])
		h *= prime64
	}
	return h
}

// Policy turns a token hash into a member-preference order. New calls
// Rebuild once with the ring's member list; Candidates must then be safe
// for concurrent use and must return every member exactly once, owner
// first. Consistent hashing (NewRingPolicy) is the only implementation.
type Policy interface {
	Rebuild(members []string)
	Candidates(h uint64) []string
}

// vnodesPerMember is the virtual-node fan-out of the consistent-hash ring.
// 64 points per member keeps member shares reasonable for small fleets
// without making rebuilds or lookups measurable.
const vnodesPerMember = 64

// mix64 is the splitmix64 finalizer. FNV-1a diffuses differences upward
// from the changed byte, so strings differing only near their end (token
// "...ue-7" vs "...ue-8", vnode "host#3" vs "host#4") get hashes that are
// close in the high bits. Ring positions order by the full 64-bit value,
// so without mixing all of a member's vnodes collapsed onto one arc. The ring therefore
// runs tokenHash through this bijection first; placement remains a pure
// function of the token's FNV-1a hash.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// ringPolicy is consistent hashing: each member projects vnodesPerMember
// points onto the hash circle (point = tokenHash(member + "#" + i)), and a
// token belongs to the first point clockwise from its own hash.
type ringPolicy struct {
	points  []ringPoint // sorted by hash
	members []string
}

type ringPoint struct {
	hash   uint64
	member string
}

// NewRingPolicy returns the consistent-hash placement policy.
func NewRingPolicy() Policy { return &ringPolicy{} }

func (p *ringPolicy) Rebuild(members []string) {
	p.members = append(p.members[:0], members...)
	p.points = p.points[:0]
	for _, m := range members {
		for i := 0; i < vnodesPerMember; i++ {
			p.points = append(p.points, ringPoint{
				hash:   mix64(tokenHash(m + "#" + strconv.Itoa(i))),
				member: m,
			})
		}
	}
	sort.Slice(p.points, func(i, j int) bool {
		a, b := p.points[i], p.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.member < b.member // deterministic under (vanishingly rare) point collisions
	})
}

func (p *ringPolicy) Candidates(h uint64) []string {
	out := make([]string, 0, len(p.members))
	if len(p.points) == 0 {
		return out
	}
	h = mix64(h)
	// First point clockwise from h, wrapping at the top of the circle.
	start := sort.Search(len(p.points), func(i int) bool { return p.points[i].hash >= h })
	seen := make(map[string]bool, len(p.members))
	for i := 0; i < len(p.points) && len(out) < len(p.members); i++ {
		m := p.points[(start+i)%len(p.points)].member
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}
