package geo

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	a := Point{3, 4}
	b := Point{1, 2}
	if got := a.Add(b); got != (Point{4, 6}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Point{2, 2}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != (Point{6, 8}) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
	if got := a.Dist(b); math.Abs(got-math.Sqrt(8)) > 1e-12 {
		t.Errorf("Dist = %v", got)
	}
	if got := a.Dot(b); got != 11 {
		t.Errorf("Dot = %v", got)
	}
	if got := a.Cross(b); got != 2 {
		t.Errorf("Cross = %v", got)
	}
}

func TestLerp(t *testing.T) {
	a, b := Point{0, 0}, Point{10, 20}
	if got := Lerp(a, b, 0); got != a {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := Lerp(a, b, 1); got != b {
		t.Errorf("Lerp(1) = %v", got)
	}
	if got := Lerp(a, b, 0.5); got != (Point{5, 10}) {
		t.Errorf("Lerp(0.5) = %v", got)
	}
}

func TestNewPolylineValidation(t *testing.T) {
	if _, err := NewPolyline(nil); err == nil {
		t.Error("empty polyline accepted")
	}
	if _, err := NewPolyline([]Point{{1, 1}}); err == nil {
		t.Error("single-point polyline accepted")
	}
	if _, err := NewPolyline([]Point{{1, 1}, {1, 1}}); err == nil {
		t.Error("all-duplicate polyline accepted")
	}
	pl, err := NewPolyline([]Point{{0, 0}, {0, 0}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Length() != 5 {
		t.Errorf("Length = %v, want 5 (duplicates collapsed)", pl.Length())
	}
}

func TestPolylineAt(t *testing.T) {
	pl, err := NewPolyline([]Point{{0, 0}, {10, 0}, {10, 10}})
	if err != nil {
		t.Fatal(err)
	}
	if got := pl.Length(); got != 20 {
		t.Fatalf("Length = %v", got)
	}
	cases := []struct {
		s    float64
		want Point
	}{
		{-5, Point{0, 0}},
		{0, Point{0, 0}},
		{5, Point{5, 0}},
		{10, Point{10, 0}},
		{15, Point{10, 5}},
		{20, Point{10, 10}},
		{25, Point{10, 10}},
	}
	for _, c := range cases {
		if got := pl.At(c.s); got.Dist(c.want) > 1e-9 {
			t.Errorf("At(%v) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestPolylineHeading(t *testing.T) {
	pl, _ := NewPolyline([]Point{{0, 0}, {10, 0}, {10, 10}})
	if h := pl.Heading(5); h.Dist(Point{1, 0}) > 1e-9 {
		t.Errorf("Heading(5) = %v", h)
	}
	if h := pl.Heading(15); h.Dist(Point{0, 1}) > 1e-9 {
		t.Errorf("Heading(15) = %v", h)
	}
}

// TestPolylineAtMonotone is a property test: arc-length parameterisation
// must be monotone in travelled distance.
func TestPolylineAtMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pl := GenFreeway(rng, 5000)
	f := func(a, b float64) bool {
		sa := math.Mod(math.Abs(a), pl.Length())
		sb := math.Mod(math.Abs(b), pl.Length())
		if sa > sb {
			sa, sb = sb, sa
		}
		// Distance along a polyline between parameters can't exceed the
		// parameter difference (triangle inequality of the embedding).
		return pl.At(sa).Dist(pl.At(sb)) <= sb-sa+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGenFreewayLength(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pl := GenFreeway(rng, 30000)
	if pl.Length() < 29000 || pl.Length() > 32000 {
		t.Errorf("freeway length %v, want ≈30000", pl.Length())
	}
	// Tiny requests are clamped.
	pl2 := GenFreeway(rng, 10)
	if pl2.Length() < 900 {
		t.Errorf("clamped freeway too short: %v", pl2.Length())
	}
}

func TestGenCityLoopClosed(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pl := GenCityLoop(rng, 3000)
	if start, end := pl.At(0), pl.At(pl.Length()); start.Dist(end) > 1 {
		t.Errorf("loop not closed: start %v end %v", start, end)
	}
	if pl.Length() < 2000 || pl.Length() > 4500 {
		t.Errorf("perimeter %v, want ≈3000", pl.Length())
	}
}

func TestGenerateDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if Generate(RouteFreeway, rng, 5000) == nil {
		t.Error("freeway nil")
	}
	if Generate(RouteCityLoop, rng, 2000) == nil {
		t.Error("loop nil")
	}
	if RouteFreeway.String() != "freeway" || RouteCityLoop.String() != "city-loop" {
		t.Error("route kind names")
	}
}

func TestConvexHullSquare(t *testing.T) {
	pts := []Point{{0, 0}, {1, 0}, {1, 1}, {0, 1}, {0.5, 0.5}, {0.2, 0.8}}
	hull := ConvexHull(pts)
	// The corners, counter-clockwise from the lowest-leftmost one.
	if want := []Point{{0, 0}, {1, 0}, {1, 1}, {0, 1}}; !slices.Equal(hull, want) {
		t.Fatalf("hull %v, want %v", hull, want)
	}
}

func TestConvexHullDegenerate(t *testing.T) {
	if h := ConvexHull(nil); h != nil {
		t.Errorf("nil input produced %v", h)
	}
	if h := ConvexHull([]Point{{1, 1}}); len(h) != 1 {
		t.Errorf("single point hull %v", h)
	}
	// Collinear points.
	h := ConvexHull([]Point{{0, 0}, {1, 0}, {2, 0}, {3, 0}})
	if len(h) > 2 {
		t.Errorf("collinear hull has %d vertices", len(h))
	}
}

// TestConvexHullContainsAll is a property test: every input point must lie
// inside (or on) the hull.
func TestConvexHullContainsAll(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 50; iter++ {
		n := 3 + rng.Intn(30)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{rng.Float64() * 100, rng.Float64() * 100}
		}
		hull := ConvexHull(pts)
		if len(hull) < 3 {
			continue
		}
		for _, p := range pts {
			if !PointInConvex(p, hull) {
				t.Fatalf("point %v outside its own hull %v", p, hull)
			}
		}
	}
}

func TestConvexOverlap(t *testing.T) {
	a := []Point{{0, 0}, {2, 0}, {2, 2}, {0, 2}}
	b := []Point{{1, 1}, {3, 1}, {3, 3}, {1, 3}}
	c := []Point{{5, 5}, {6, 5}, {6, 6}, {5, 6}}
	if !ConvexOverlap(a, b) {
		t.Error("overlapping squares reported disjoint")
	}
	if ConvexOverlap(a, c) {
		t.Error("disjoint squares reported overlapping")
	}
	// Containment counts as overlap.
	inner := []Point{{0.5, 0.5}, {1, 0.5}, {1, 1}, {0.5, 1}}
	if !ConvexOverlap(a, inner) {
		t.Error("contained square reported disjoint")
	}
	// Degenerate: point in square.
	if !ConvexOverlap(a, []Point{{1, 1}}) {
		t.Error("interior point reported disjoint")
	}
	if ConvexOverlap(a, []Point{{9, 9}}) {
		t.Error("exterior point reported overlapping")
	}
	if ConvexOverlap(nil, a) {
		t.Error("empty polygon overlaps")
	}
}

// TestConvexOverlapSymmetric is a property test: overlap must be symmetric.
func TestConvexOverlapSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 100; iter++ {
		mk := func() []Point {
			n := 3 + rng.Intn(8)
			pts := make([]Point, n)
			cx, cy := rng.Float64()*10, rng.Float64()*10
			for i := range pts {
				pts[i] = Point{cx + rng.Float64()*4, cy + rng.Float64()*4}
			}
			return ConvexHull(pts)
		}
		a, b := mk(), mk()
		if ConvexOverlap(a, b) != ConvexOverlap(b, a) {
			t.Fatalf("asymmetric overlap: %v vs %v", a, b)
		}
	}
}
