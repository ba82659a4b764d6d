package topology

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cellular"
	"repro/internal/geo"
)

// sectorGainReference is SectorGainDB before the back-lobe test: the Atan2
// path for every position, with the angle wrapped by math.Mod. The kernel
// must return its bits everywhere.
func sectorGainReference(d *Deployment, c *cellular.Cell, p geo.Point) float64 {
	if c.Index < 0 || c.Index >= len(d.slotByCell) || d.Cells[c.Index] != c {
		return 0
	}
	s := d.sectors[d.slotByCell[c.Index]]
	bw := s.bw
	if bw >= 2*math.Pi*0.99 {
		return 0
	}
	toUE := math.Atan2(p.Y-c.Y, p.X-c.X)
	delta := math.Abs(angleDiffReference(toUE, s.az))
	g := -12 * (delta / (bw / 2)) * (delta / (bw / 2))
	if g < -20 {
		g = -20
	}
	return g
}

// angleDiffReference is angleDiff before the conditional wrap.
func angleDiffReference(a, b float64) float64 {
	d := math.Mod(a-b, 2*math.Pi)
	if d > math.Pi {
		d -= 2 * math.Pi
	}
	if d <= -math.Pi {
		d += 2 * math.Pi
	}
	return d
}

// oneCell builds a deployment holding a single cell at (x, y) whose sector
// points at az with the beamwidth of a tower of the given sector count.
func oneCell(az float64, sectors int, x, y float64) (*Deployment, *cellular.Cell) {
	c := &cellular.Cell{Tech: cellular.TechNR, Band: cellular.BandMMWave, X: x, Y: y}
	d := &Deployment{
		Cells:      []*cellular.Cell{c},
		slotByCell: []int32{0},
		slots:      1,
		sectors:    []sector{newSector(az, 2*math.Pi/float64(sectors)*0.8)},
	}
	return d, c
}

// floorAngle is the off-boresight angle at which a sector's pattern
// reaches the floor.
func floorAngle(s sector) float64 {
	return s.bw / 2 * math.Sqrt(gainFloorDB/patternSlopeDB)
}

// checkSectorGain fails unless SectorGainDB(c, p) has the reference's bits.
func checkSectorGain(t *testing.T, d *Deployment, c *cellular.Cell, p geo.Point) {
	t.Helper()
	got, want := d.SectorGainDB(c, p), sectorGainReference(d, c, p)
	if math.Float64bits(got) != math.Float64bits(want) {
		s := d.sectors[d.slotByCell[c.Index]]
		t.Fatalf("SectorGainDB(az %v, bw %v, tower (%v, %v), UE %v) = %v (%#x), reference %v (%#x)",
			s.az, s.bw, c.X, c.Y, p, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// edgePoints returns positions at distance r from the cell in directions
// off boresight by the floor angle plus each offset, on both sides.
func edgePoints(s sector, c *cellular.Cell, r float64, offsets []float64) []geo.Point {
	var ps []geo.Point
	for _, off := range offsets {
		for _, side := range []float64{-1, 1} {
			dir := s.az + side*(floorAngle(s)+off)
			ps = append(ps, geo.Point{X: c.X + r*math.Cos(dir), Y: c.Y + r*math.Sin(dir)})
		}
	}
	return ps
}

// boundaryOffsets straddle the floor angle: on it, within the 1e-9 rad the
// back-lobe test must leave to Atan2, at its margin, and well clear of it.
var boundaryOffsets = []float64{0, -1e-9, 1e-9, -floorMargin, floorMargin, 2 * floorMargin, 1e-3, -1e-3, math.Pi}

// TestSectorGainMatchesReference compares the kernel with the Atan2
// formula bit for bit on every cell of generated deployments: at the
// tower itself, on both sides of the floor angle, from far away and at
// random positions along and off the route.
func TestSectorGainMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		route := geo.Generate(geo.RouteCityLoop, rng, 3000)
		d := Generate(OpX(), route, rng, Options{CityDensity: 0.7})
		for _, c := range d.Cells {
			s := d.sectors[d.slotByCell[c.Index]]
			checkSectorGain(t, d, c, geo.Point{X: c.X, Y: c.Y})
			for _, r := range []float64{1e-3, 1, 150, 5000, 1e6} {
				for _, p := range edgePoints(s, c, r, boundaryOffsets) {
					checkSectorGain(t, d, c, p)
				}
			}
			for i := 0; i < 200; i++ {
				p := route.At(rng.Float64() * route.Length())
				p.X += 300 * rng.NormFloat64()
				p.Y += 300 * rng.NormFloat64()
				checkSectorGain(t, d, c, p)
			}
		}
	}
}

// TestSectorGainShortcutFires pins where the back-lobe test answers: it
// returns the floor straight behind a sectored cell, leaves on-boresight
// positions, the tower's own position and the near side of the floor
// angle to Atan2, and never fires for a pattern that cannot reach the
// floor (a single-sector cell's 288° beam).
func TestSectorGainShortcutFires(t *testing.T) {
	for _, sectors := range []int{2, 3} {
		d, c := oneCell(0.3, sectors, 10, -20)
		s := &d.sectors[0]
		back := geo.Point{X: c.X - 100*s.ux, Y: c.Y - 100*s.uy}
		if !s.behind(back.X-c.X, back.Y-c.Y) {
			t.Errorf("%d sectors: straight behind the cell is not on the floor", sectors)
		}
		if g := d.SectorGainDB(c, back); g != gainFloorDB {
			t.Errorf("%d sectors: gain straight behind = %v, want %v", sectors, g, gainFloorDB)
		}
		for _, p := range append(edgePoints(*s, c, 100, []float64{-1e-9, 0, 1e-9, -1e-3}),
			geo.Point{X: c.X + 100*s.ux, Y: c.Y + 100*s.uy}, geo.Point{X: c.X, Y: c.Y}) {
			if s.behind(p.X-c.X, p.Y-c.Y) {
				t.Errorf("%d sectors: back-lobe test fires at %v, inside the floor angle's margin", sectors, p)
			}
		}
	}
	d, c := oneCell(0.3, 1, 0, 0)
	if d.sectors[0].cosFloor != -2 {
		t.Fatalf("single-sector cosFloor = %v, want -2", d.sectors[0].cosFloor)
	}
	for _, p := range []geo.Point{{X: -100, Y: 0}, {X: -100 * math.Cos(0.3), Y: -100 * math.Sin(0.3)}} {
		if d.sectors[0].behind(p.X, p.Y) {
			t.Errorf("single-sector cell: back-lobe test fires at %v", p)
		}
		checkSectorGain(t, d, c, p)
	}
	// A boresight of 1e12 rad: a-b in angleDiff rounds to a multiple of
	// 1.2e-4 rad, past the margin, so only the Atan2 path has the bits.
	d, c = oneCell(1e12, 3, 0, 0)
	if d.sectors[0].cosFloor != -2 {
		t.Fatalf("cosFloor = %v for a boresight of 1e12 rad, want -2", d.sectors[0].cosFloor)
	}
	var offs []float64
	for k := 1; k <= 50; k++ {
		offs = append(offs, 4e-6*float64(k))
	}
	for _, p := range edgePoints(d.sectors[0], c, 100, offs) {
		checkSectorGain(t, d, c, p)
	}
}

// TestAngleDiffMatchesMod compares the conditional wrap with math.Mod's by
// the bits of the result, signed zeros included: on ±π, ±2π and ±4π and
// one ulp either side, at ±0, on NaN and the infinities, on values far
// outside ±4π, and on random differences of angles the simulator forms.
func TestAngleDiffMatchesMod(t *testing.T) {
	check := func(a, b float64) {
		t.Helper()
		got, want := angleDiff(a, b), angleDiffReference(a, b)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("angleDiff(%v, %v) = %v (%#x), math.Mod gives %v (%#x)",
				a, b, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	var xs []float64
	for _, m := range []float64{math.Pi, 2 * math.Pi, 4 * math.Pi} {
		for _, sign := range []float64{-1, 1} {
			v := sign * m
			xs = append(xs, v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
		}
	}
	xs = append(xs, 0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		13, -13, 100, -100, 1e300, -1e300, math.SmallestNonzeroFloat64)
	for _, x := range xs {
		check(x, 0)
		check(0, -x)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200_000; i++ {
		// Atan2 lies in [-π, π]; azimuths in (-π, 3π).
		check(math.Pi*(2*rng.Float64()-1), math.Pi*(4*rng.Float64()-1))
		check(40*(2*rng.Float64()-1), 40*(2*rng.Float64()-1))
	}
}

// FuzzSectorGainMatchesReference compares the kernel with the Atan2
// formula by bits for arbitrary boresights, sector counts, tower and UE
// positions. The seeds sit on the floor angle ±1e-9 rad, on the tower
// itself, and far away.
func FuzzSectorGainMatchesReference(f *testing.F) {
	for _, sectors := range []uint8{1, 2, 3} {
		for _, az := range []float64{0.3, -2.9, 3 * math.Pi / 2, 2.5 * math.Pi} {
			d, c := oneCell(az, int(sectors), 1234.5, -678.25)
			for _, r := range []float64{120, 1e7} {
				for _, p := range edgePoints(d.sectors[0], c, r, []float64{-1e-9, 0, 1e-9}) {
					f.Add(az, sectors, c.X, c.Y, p.X, p.Y)
				}
			}
			f.Add(az, sectors, c.X, c.Y, c.X, c.Y)
		}
	}
	f.Fuzz(func(t *testing.T, az float64, sectors uint8, tx, ty, ux, uy float64) {
		if sectors == 0 {
			return
		}
		d, c := oneCell(az, int(sectors), tx, ty)
		checkSectorGain(t, d, c, geo.Point{X: ux, Y: uy})
	})
}
