package topology

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cellular"
	"repro/internal/geo"
)

func genOpX(t *testing.T, seed int64, opts Options) *Deployment {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	route := geo.GenFreeway(rng, 30000)
	return Generate(OpX(), route, rng, opts)
}

func TestCarrierProfiles(t *testing.T) {
	if len(Carriers()) != 3 {
		t.Fatal("three carriers expected")
	}
	opx, opy, opz := OpX(), OpY(), OpZ()
	if opx.Has(cellular.ArchSA) || opz.Has(cellular.ArchSA) {
		t.Error("only OpY deploys SA")
	}
	if !opy.Has(cellular.ArchSA) || !opy.Has(cellular.ArchNSA) {
		t.Error("OpY deploys both NSA and SA")
	}
	if !opx.Has(cellular.ArchLTE) {
		t.Error("LTE is always available")
	}
	hasBand := func(c CarrierProfile, b cellular.Band) bool {
		for _, l := range c.NRLayers {
			if l.Band == b {
				return true
			}
		}
		return false
	}
	if !hasBand(opx, cellular.BandMMWave) || !hasBand(opz, cellular.BandMMWave) {
		t.Error("OpX/OpZ deploy mmWave")
	}
	if hasBand(opy, cellular.BandMMWave) {
		t.Error("OpY has no mmWave")
	}
	if !hasBand(opy, cellular.BandMid) {
		t.Error("OpY deploys mid-band NR")
	}
	if _, err := CarrierByName("OpY"); err != nil {
		t.Error(err)
	}
	if _, err := CarrierByName("nope"); err == nil {
		t.Error("unknown carrier accepted")
	}
}

func TestGenerateLayers(t *testing.T) {
	d := genOpX(t, 1, Options{})
	if len(d.Cells) == 0 || len(d.Towers) == 0 {
		t.Fatal("empty deployment")
	}
	if len(cellsOf(d, cellular.TechLTE, cellular.BandMid)) == 0 {
		t.Error("no LTE mid cells")
	}
	if len(cellsOf(d, cellular.TechNR, cellular.BandLow)) == 0 {
		t.Error("no NR low cells")
	}
	if len(cellsOf(d, cellular.TechNR, cellular.BandMMWave)) == 0 {
		t.Error("no mmWave cells")
	}
	if len(cellsOf(d, cellular.TechNR, cellular.BandMid)) != 0 {
		t.Error("OpX deploys no mid-band NR")
	}
}

// cellsOf returns the deployment's cells of one technology, restricted to
// the given bands when any are given.
func cellsOf(d *Deployment, tech cellular.Tech, bands ...cellular.Band) []*cellular.Cell {
	var out []*cellular.Cell
	for _, c := range d.Cells {
		if c.Tech == tech && (len(bands) == 0 || slices.Contains(bands, c.Band)) {
			out = append(out, c)
		}
	}
	return out
}

func TestSkipMMWave(t *testing.T) {
	d := genOpX(t, 2, Options{SkipMMWave: true})
	if len(cellsOf(d, cellular.TechNR, cellular.BandMMWave)) != 0 {
		t.Error("mmWave cells present despite SkipMMWave")
	}
}

func TestSpacingRoughlyHonoured(t *testing.T) {
	d := genOpX(t, 3, Options{SkipMMWave: true})
	// Count LTE mid towers: ~30 km / 1.2 km ≈ 25.
	seen := map[int]bool{}
	for _, c := range cellsOf(d, cellular.TechLTE, cellular.BandMid) {
		seen[c.TowerID] = true
	}
	n := len(seen)
	if n < 15 || n > 40 {
		t.Errorf("LTE mid tower count %d, want ≈25 over 30 km", n)
	}
}

func TestCoLocationSharesTowerAndPCI(t *testing.T) {
	// Force co-location to make the invariant testable.
	c := OpX()
	c.NRLayers = c.NRLayers[:1]
	c.NRLayers[0].CoLocate = 1.0
	rng := rand.New(rand.NewSource(4))
	route := geo.GenFreeway(rng, 20000)
	d := Generate(c, route, rng, Options{SkipMMWave: true})

	lteByTower := map[int][]*cellular.Cell{}
	for _, cell := range d.Cells {
		if cell.Tech == cellular.TechLTE {
			lteByTower[cell.TowerID] = append(lteByTower[cell.TowerID], cell)
		}
	}
	nrCells := cellsOf(d, cellular.TechNR)
	if len(nrCells) == 0 {
		t.Fatal("no NR cells")
	}
	for _, nr := range nrCells {
		mates := lteByTower[nr.TowerID]
		if len(mates) == 0 {
			t.Fatalf("co-located NR cell %v has no LTE tower mate", nr.GlobalID())
		}
		// The §6.3 same-PCI heuristic: the NR PCI block matches the eNB's.
		found := false
		for _, m := range mates {
			if m.PCI == nr.PCI {
				found = true
			}
		}
		if !found {
			t.Fatalf("co-located NR cell PCI %d not shared with eNB PCIs", nr.PCI)
		}
	}
}

func TestNonCoLocatedPCIsDisjoint(t *testing.T) {
	c := OpX()
	c.NRLayers = c.NRLayers[:1]
	c.NRLayers[0].CoLocate = 0
	rng := rand.New(rand.NewSource(5))
	route := geo.GenFreeway(rng, 20000)
	d := Generate(c, route, rng, Options{SkipMMWave: true})
	for _, nr := range cellsOf(d, cellular.TechNR) {
		if nr.PCI < 504 {
			t.Fatalf("non-co-located NR PCI %d inside the LTE range", nr.PCI)
		}
	}
}

func TestSectorGain(t *testing.T) {
	d := genOpX(t, 6, Options{SkipMMWave: true})
	cells := cellsOf(d, cellular.TechNR, cellular.BandLow)
	if len(cells) < 2 {
		t.Fatal("need sectored NR cells")
	}
	c := cells[0]
	// Gain is bounded in [-20, 0].
	for _, p := range []geo.Point{{X: c.X + 100, Y: c.Y}, {X: c.X - 100, Y: c.Y}, {X: c.X, Y: c.Y + 100}} {
		g := d.SectorGainDB(c, p)
		if g > 0 || g < -20 {
			t.Fatalf("sector gain %v out of range", g)
		}
	}
	// Two sectors of the same tower point in different directions: their
	// gains toward one position must differ somewhere.
	var mate *cellular.Cell
	for _, o := range cells[1:] {
		if o.TowerID == c.TowerID {
			mate = o
			break
		}
	}
	if mate == nil {
		t.Skip("no sector mate found")
	}
	diff := false
	for _, p := range []geo.Point{{X: c.X + 200, Y: c.Y}, {X: c.X - 200, Y: c.Y}, {X: c.X, Y: c.Y + 200}, {X: c.X, Y: c.Y - 200}} {
		if d.SectorGainDB(c, p) != d.SectorGainDB(mate, p) {
			diff = true
		}
	}
	if !diff {
		t.Error("sector patterns identical in every direction")
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := genOpX(t, 9, Options{})
	b := genOpX(t, 9, Options{})
	if len(a.Cells) != len(b.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(a.Cells), len(b.Cells))
	}
	for i := range a.Cells {
		if *a.Cells[i] != *b.Cells[i] {
			t.Fatalf("cell %d differs between identical seeds", i)
		}
	}
}
