package sim

import (
	"math"

	"repro/internal/cellular"
	"repro/internal/geo"
)

// cellGrid is a uniform spatial hash over cells, so per-tick scans touch
// only nearby towers even on cross-country routes with tens of thousands of
// cells. Buckets live in a dense row-major array over the deployment's
// bounding box — drive-route deployments are thin corridors, so the array
// stays small and the per-tick probe loop does index arithmetic instead of
// a map hash per candidate bucket.
type cellGrid struct {
	cellSize float64
	// minIx/minIy anchor the dense array; nx/ny are its dimensions.
	minIx, minIy int
	nx, ny       int
	buckets      []gridBucket
	// reach is the largest search radius any band needs, in buckets.
	reach int
}

// gridBucket holds one hash cell's towers plus the squared radio reach of
// its longest-range band, so inRange can skip buckets that cannot contain an
// in-range cell: a low-band tower is visible from 9 km but a mmWave-only
// bucket matters within 800 m, and without the per-bucket bound the global
// low-band reach would force every mmWave-dense bucket of the search square
// to be walked.
type gridBucket struct {
	cells  []*cellular.Cell
	reach2 float64
}

type gridKey struct{ ix, iy int }

func newCellGrid(cells []*cellular.Cell, cellSize float64) *cellGrid {
	g := &cellGrid{cellSize: cellSize}
	maxR := 0.0
	keys := make([]gridKey, len(cells))
	var maxIx, maxIy int
	for i, c := range cells {
		k := g.keyFor(c.X, c.Y)
		keys[i] = k
		if i == 0 {
			g.minIx, maxIx = k.ix, k.ix
			g.minIy, maxIy = k.iy, k.iy
		} else {
			g.minIx, maxIx = min(g.minIx, k.ix), max(maxIx, k.ix)
			g.minIy, maxIy = min(g.minIy, k.iy), max(maxIy, k.iy)
		}
		if r := maxRangeM(c.Band); r > maxR {
			maxR = r
		}
	}
	if len(cells) > 0 {
		g.nx, g.ny = maxIx-g.minIx+1, maxIy-g.minIy+1
	}
	g.buckets = make([]gridBucket, g.nx*g.ny)
	for i, c := range cells {
		b := &g.buckets[(keys[i].ix-g.minIx)*g.ny+(keys[i].iy-g.minIy)]
		b.cells = append(b.cells, c)
		if r := maxRangeM(c.Band); r*r > b.reach2 {
			b.reach2 = r * r
		}
	}
	g.reach = int(math.Ceil(maxR/cellSize)) + 1
	return g
}

func (g *cellGrid) keyFor(x, y float64) gridKey {
	return gridKey{int(math.Floor(x / g.cellSize)), int(math.Floor(y / g.cellSize))}
}

// minDist2 returns the squared distance from p to the closest point of
// bucket k's rectangle (0 when p lies inside it). Every cell hashed into k
// lies within the rectangle, so this lower-bounds the distance to any of
// its cells.
func (g *cellGrid) minDist2(k gridKey, p geo.Point) float64 {
	x0 := float64(k.ix) * g.cellSize
	y0 := float64(k.iy) * g.cellSize
	var dx, dy float64
	if p.X < x0 {
		dx = x0 - p.X
	} else if p.X > x0+g.cellSize {
		dx = p.X - (x0 + g.cellSize)
	}
	if p.Y < y0 {
		dy = y0 - p.Y
	} else if p.Y > y0+g.cellSize {
		dy = p.Y - (y0 + g.cellSize)
	}
	return dx*dx + dy*dy
}

// inRange appends to dst every cell within its band's radio range of p,
// with its distance, in deterministic bucket/insertion order (ix then iy
// ascending — identical to the map-keyed implementation's -reach..reach
// walk, with out-of-bounds and out-of-reach buckets dropped). Buckets
// whose nearest corner is beyond their own longest band reach are skipped
// whole: their cells would all fail the exact per-band range filter
// anyway.
func (g *cellGrid) inRange(dst []scanObs, p geo.Point) []scanObs {
	if g.nx == 0 {
		return dst
	}
	k := g.keyFor(p.X, p.Y)
	ix0 := max(k.ix-g.reach, g.minIx)
	ix1 := min(k.ix+g.reach, g.minIx+g.nx-1)
	iy0 := max(k.iy-g.reach, g.minIy)
	iy1 := min(k.iy+g.reach, g.minIy+g.ny-1)
	for ix := ix0; ix <= ix1; ix++ {
		row := (ix - g.minIx) * g.ny
		for iy := iy0; iy <= iy1; iy++ {
			b := &g.buckets[row+iy-g.minIy]
			if len(b.cells) == 0 || g.minDist2(gridKey{ix, iy}, p) > b.reach2 {
				continue
			}
			for _, c := range b.cells {
				if d := p.Dist(geo.Point{X: c.X, Y: c.Y}); d <= maxRangeM(c.Band) {
					dst = append(dst, scanObs{cell: c, d: d})
				}
			}
		}
	}
	return dst
}
