package geo

import "sort"

// Note: segment/box comparisons below use the builtin min/max.

// ConvexHull returns the convex hull of pts in counter-clockwise order using
// Andrew's monotone chain. Degenerate inputs (fewer than 3 distinct points,
// or all collinear) return the extreme points.
//
// The paper (§6.3) uses convex hulls of per-PCI sample positions to decide
// whether a 4G eNB and a 5G gNB are served from the same physical tower:
// co-located cells produce overlapping hulls.
func ConvexHull(pts []Point) []Point {
	if len(pts) == 0 {
		return nil
	}
	ps := make([]Point, len(pts))
	copy(ps, pts)
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].X != ps[j].X {
			return ps[i].X < ps[j].X
		}
		return ps[i].Y < ps[j].Y
	})
	// Deduplicate.
	uniq := ps[:1]
	for _, p := range ps[1:] {
		if p != uniq[len(uniq)-1] {
			uniq = append(uniq, p)
		}
	}
	ps = uniq
	if len(ps) < 3 {
		return ps
	}
	hull := make([]Point, 0, 2*len(ps))
	// Lower hull.
	for _, p := range ps {
		for len(hull) >= 2 && hull[len(hull)-1].Sub(hull[len(hull)-2]).Cross(p.Sub(hull[len(hull)-2])) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	// Upper hull.
	lower := len(hull) + 1
	for i := len(ps) - 2; i >= 0; i-- {
		p := ps[i]
		for len(hull) >= lower && hull[len(hull)-1].Sub(hull[len(hull)-2]).Cross(p.Sub(hull[len(hull)-2])) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	return hull[:len(hull)-1]
}

// PointInConvex reports whether p lies inside (or on the boundary of) the
// convex polygon poly given in counter-clockwise order.
func PointInConvex(p Point, poly []Point) bool {
	if len(poly) == 0 {
		return false
	}
	if len(poly) == 1 {
		return p == poly[0]
	}
	if len(poly) == 2 {
		// Degenerate segment: p must lie on it.
		d := poly[1].Sub(poly[0])
		v := p.Sub(poly[0])
		if d.Cross(v) != 0 {
			return false
		}
		t := v.Dot(d) / d.Dot(d)
		return t >= 0 && t <= 1
	}
	for i := range poly {
		j := (i + 1) % len(poly)
		if poly[j].Sub(poly[i]).Cross(p.Sub(poly[i])) < 0 {
			return false
		}
	}
	return true
}

// ConvexOverlap reports whether two convex polygons (counter-clockwise)
// intersect, using the separating axis theorem. Touching boundaries count as
// overlap. This is the "simple algorithm" the paper cites for identifying
// overlapping 4G/5G PCI hulls.
func ConvexOverlap(a, b []Point) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	// Degenerate small polygons: fall back to point-in-polygon checks both
	// ways; a separating-axis test needs edges.
	if len(a) < 3 || len(b) < 3 {
		for _, p := range a {
			if PointInConvex(p, b) {
				return true
			}
		}
		for _, p := range b {
			if PointInConvex(p, a) {
				return true
			}
		}
		return segmentsIntersect(a, b)
	}
	return !hasSeparatingAxis(a, b) && !hasSeparatingAxis(b, a)
}

// hasSeparatingAxis reports whether any edge normal of a separates a from b.
func hasSeparatingAxis(a, b []Point) bool {
	for i := range a {
		j := (i + 1) % len(a)
		edge := a[j].Sub(a[i])
		axis := Point{-edge.Y, edge.X}
		minA, maxA := project(a, axis)
		minB, maxB := project(b, axis)
		if maxA < minB || maxB < minA {
			return true
		}
	}
	return false
}

func project(poly []Point, axis Point) (min, max float64) {
	min = poly[0].Dot(axis)
	max = min
	for _, p := range poly[1:] {
		d := p.Dot(axis)
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	return min, max
}

// segmentsIntersect reports whether any segment of a intersects any segment
// of b (used only for degenerate hulls).
func segmentsIntersect(a, b []Point) bool {
	segs := func(poly []Point) [][2]Point {
		if len(poly) < 2 {
			return nil
		}
		var out [][2]Point
		for i := 0; i+1 < len(poly); i++ {
			out = append(out, [2]Point{poly[i], poly[i+1]})
		}
		return out
	}
	for _, s1 := range segs(a) {
		for _, s2 := range segs(b) {
			if segIntersect(s1[0], s1[1], s2[0], s2[1]) {
				return true
			}
		}
	}
	return false
}

func segIntersect(p1, p2, q1, q2 Point) bool {
	d1 := q2.Sub(q1).Cross(p1.Sub(q1))
	d2 := q2.Sub(q1).Cross(p2.Sub(q1))
	d3 := p2.Sub(p1).Cross(q1.Sub(p1))
	d4 := p2.Sub(p1).Cross(q2.Sub(p1))
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) && ((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	on := func(p, a, b Point) bool {
		if b.Sub(a).Cross(p.Sub(a)) != 0 {
			return false
		}
		return min(a.X, b.X) <= p.X && p.X <= max(a.X, b.X) &&
			min(a.Y, b.Y) <= p.Y && p.Y <= max(a.Y, b.Y)
	}
	return on(p1, q1, q2) || on(p2, q1, q2) || on(q1, p1, p2) || on(q2, p1, p2)
}
