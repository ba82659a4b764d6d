// Package geo provides the planar geometry primitives used by the mobility
// simulator: points, polyline routes, synthetic route generation, and the
// convex-hull machinery behind the paper's eNB/gNB co-location heuristic
// (§6.3).
//
// The simulator operates on a local tangent plane in metres rather than
// geodetic coordinates: every distance in the paper's analyses (cell
// coverage, HO spacing) is small enough (< a few km) that planar geometry is
// exact for our purposes and keeps the math dependency-free.
package geo

import (
	"fmt"
	"math"
)

// Point is a position on the local tangent plane, in metres.
type Point struct {
	X float64 // easting, metres
	Y float64 // northing, metres
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by k.
func (p Point) Scale(k float64) Point { return Point{p.X * k, p.Y * k} }

// Dot returns the dot product of p and q treated as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z component of the cross product of p and q treated as
// vectors; its sign gives the turn direction p→q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Norm returns the Euclidean length of p treated as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the Euclidean distance between p and q in metres.
func (p Point) Dist(q Point) float64 { return p.Sub(q).Norm() }

// String renders the point as "(x, y)" with metre precision.
func (p Point) String() string { return fmt.Sprintf("(%.1f, %.1f)", p.X, p.Y) }

// Lerp linearly interpolates between a and b; t=0 yields a, t=1 yields b.
func Lerp(a, b Point, t float64) Point {
	return Point{a.X + (b.X-a.X)*t, a.Y + (b.Y-a.Y)*t}
}

// Polyline is an ordered sequence of waypoints describing a route.
type Polyline struct {
	pts    []Point
	cumLen []float64 // cumulative arc length at each vertex
}

// NewPolyline builds a polyline from at least two waypoints. Consecutive
// duplicate points are collapsed so arc-length parameterisation stays
// well defined.
func NewPolyline(pts []Point) (*Polyline, error) {
	clean := make([]Point, 0, len(pts))
	for _, p := range pts {
		if n := len(clean); n > 0 && clean[n-1].Dist(p) == 0 {
			continue
		}
		clean = append(clean, p)
	}
	if len(clean) < 2 {
		return nil, fmt.Errorf("geo: polyline needs at least 2 distinct points, got %d", len(clean))
	}
	cum := make([]float64, len(clean))
	for i := 1; i < len(clean); i++ {
		cum[i] = cum[i-1] + clean[i].Dist(clean[i-1])
	}
	return &Polyline{pts: clean, cumLen: cum}, nil
}

// Length returns the total arc length of the polyline in metres.
func (pl *Polyline) Length() float64 { return pl.cumLen[len(pl.cumLen)-1] }

// At returns the point at arc-length s (metres) from the start. s is clamped
// to [0, Length].
func (pl *Polyline) At(s float64) Point {
	if s <= 0 {
		return pl.pts[0]
	}
	if s >= pl.Length() {
		return pl.pts[len(pl.pts)-1]
	}
	// Binary search for the segment containing s.
	lo, hi := 0, len(pl.cumLen)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if pl.cumLen[mid] <= s {
			lo = mid
		} else {
			hi = mid
		}
	}
	segLen := pl.cumLen[hi] - pl.cumLen[lo]
	t := (s - pl.cumLen[lo]) / segLen
	return Lerp(pl.pts[lo], pl.pts[hi], t)
}

// Heading returns the unit direction of travel at arc-length s.
func (pl *Polyline) Heading(s float64) Point {
	if s < 0 {
		s = 0
	}
	if s >= pl.Length() {
		s = pl.Length() - 1e-9
	}
	lo, hi := 0, len(pl.cumLen)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if pl.cumLen[mid] <= s {
			lo = mid
		} else {
			hi = mid
		}
	}
	d := pl.pts[hi].Sub(pl.pts[lo])
	n := d.Norm()
	if n == 0 {
		return Point{1, 0}
	}
	return d.Scale(1 / n)
}
