// Package topology generates synthetic radio deployments along drive routes:
// towers, sectored cells, PCI assignment, and eNB/gNB co-location. Carrier
// profiles model the three anonymised operators of the paper (OpX, OpY,
// OpZ), reproducing their band portfolios and NSA/SA availability (Table 1).
//
// Tower spacing per (technology, band) layer is the deployment-side
// parameter behind the paper's coverage (§6.1) and HO-frequency (§5.1)
// findings; defaults are calibrated so those statistics emerge from the
// simulation rather than being asserted.
package topology

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cellular"
	"repro/internal/geo"
)

// Tower is one physical site hosting one or more cells.
type Tower struct {
	ID    int
	Pos   geo.Point
	Cells []*cellular.Cell
}

// Layer describes one deployed radio layer: a technology+band combination
// with its own tower chain along the route.
type Layer struct {
	Tech cellular.Tech
	Band cellular.Band
	// SpacingM is the mean inter-tower distance along the route, metres.
	SpacingM float64
	// Sectors is the number of cells per tower (>= 1). Multi-sector NR
	// towers make intra-gNB handovers (SCGM) possible.
	Sectors int
	// TxPowerDBm is the per-cell transmit power.
	TxPowerDBm float64
	// CoLocate, for NR layers, is the probability that a gNB is mounted on
	// the nearest LTE tower (sharing its position and PCI), per §6.3.
	CoLocate float64
}

// CarrierProfile describes one operator's deployment strategy.
type CarrierProfile struct {
	Name string
	// Archs lists the architectures the carrier offers (ArchNSA and/or
	// ArchSA; ArchLTE is always available).
	Archs []cellular.Arch
	// LTELayers and NRLayers enumerate the deployed radio layers.
	LTELayers []Layer
	NRLayers  []Layer
}

// Has reports whether the carrier offers the given architecture.
func (c CarrierProfile) Has(a cellular.Arch) bool {
	if a == cellular.ArchLTE {
		return true
	}
	for _, x := range c.Archs {
		if x == a {
			return true
		}
	}
	return false
}

// Default tower spacings (metres), calibrated against §5.1/§6.1. The LTE
// anchor layer at ~1200 m yields 4G handovers every ~0.6 km once sector
// boundaries are counted; NR layers reproduce the 1.4 / 0.73 / 0.15 km
// coverage ordering.
const (
	SpacingLTEMid   = 1200.0
	SpacingLTELow   = 2600.0
	SpacingNRLow    = 2800.0
	SpacingNRMid    = 1500.0
	SpacingNRMMWave = 300.0
)

// OpX returns the OpX-analogue profile: NSA only, NR low-band + mmWave.
func OpX() CarrierProfile {
	return CarrierProfile{
		Name:  "OpX",
		Archs: []cellular.Arch{cellular.ArchNSA},
		LTELayers: []Layer{
			{Tech: cellular.TechLTE, Band: cellular.BandMid, SpacingM: SpacingLTEMid, Sectors: 2, TxPowerDBm: 27},
			{Tech: cellular.TechLTE, Band: cellular.BandLow, SpacingM: SpacingLTELow, Sectors: 2, TxPowerDBm: 24},
		},
		NRLayers: []Layer{
			{Tech: cellular.TechNR, Band: cellular.BandLow, SpacingM: SpacingNRLow, Sectors: 2, TxPowerDBm: 25, CoLocate: 0.25},
			{Tech: cellular.TechNR, Band: cellular.BandMMWave, SpacingM: SpacingNRMMWave, Sectors: 3, TxPowerDBm: 36, CoLocate: 0.05},
		},
	}
}

// OpY returns the OpY-analogue profile: NSA + SA, NR low-band + mid-band.
func OpY() CarrierProfile {
	return CarrierProfile{
		Name:  "OpY",
		Archs: []cellular.Arch{cellular.ArchNSA, cellular.ArchSA},
		LTELayers: []Layer{
			{Tech: cellular.TechLTE, Band: cellular.BandMid, SpacingM: SpacingLTEMid, Sectors: 2, TxPowerDBm: 27},
			{Tech: cellular.TechLTE, Band: cellular.BandLow, SpacingM: SpacingLTELow, Sectors: 2, TxPowerDBm: 24},
		},
		NRLayers: []Layer{
			{Tech: cellular.TechNR, Band: cellular.BandLow, SpacingM: SpacingNRLow, Sectors: 2, TxPowerDBm: 25, CoLocate: 0.36},
			{Tech: cellular.TechNR, Band: cellular.BandMid, SpacingM: SpacingNRMid, Sectors: 2, TxPowerDBm: 28, CoLocate: 0.2},
		},
	}
}

// OpZ returns the OpZ-analogue profile: NSA only, NR low-band + mmWave.
func OpZ() CarrierProfile {
	return CarrierProfile{
		Name:  "OpZ",
		Archs: []cellular.Arch{cellular.ArchNSA},
		LTELayers: []Layer{
			{Tech: cellular.TechLTE, Band: cellular.BandMid, SpacingM: SpacingLTEMid, Sectors: 2, TxPowerDBm: 27},
			{Tech: cellular.TechLTE, Band: cellular.BandLow, SpacingM: SpacingLTELow, Sectors: 2, TxPowerDBm: 24},
		},
		NRLayers: []Layer{
			{Tech: cellular.TechNR, Band: cellular.BandLow, SpacingM: SpacingNRLow, Sectors: 2, TxPowerDBm: 25, CoLocate: 0.05},
			{Tech: cellular.TechNR, Band: cellular.BandMMWave, SpacingM: SpacingNRMMWave, Sectors: 3, TxPowerDBm: 36, CoLocate: 0.05},
		},
	}
}

// Carriers returns the three operator profiles in the paper's order.
func Carriers() []CarrierProfile {
	return []CarrierProfile{OpX(), OpY(), OpZ()}
}

// CarrierByName returns the named profile.
func CarrierByName(name string) (CarrierProfile, error) {
	for _, c := range Carriers() {
		if c.Name == name {
			return c, nil
		}
	}
	return CarrierProfile{}, fmt.Errorf("topology: unknown carrier %q", name)
}

// Deployment is a generated radio environment along a route.
type Deployment struct {
	Route  *geo.Polyline
	Towers []*Tower
	Cells  []*cellular.Cell
	// byID groups cells by (tech, PCI) identity, in generation order, for
	// O(1) PCI resolution (PCIs repeat spatially, so a group can hold more
	// than one cell).
	byID map[idKey][]*cellular.Cell
	// slotByCell maps Cell.Index to the cell's state slot. Cells sharing a
	// (tech, PCI) identity — co-located gNBs borrowing an eNB PCI block can
	// collide — share one slot, preserving the aliasing semantics of the
	// GlobalID-keyed maps this scheme replaces.
	slotByCell []int32
	slots      int
	// sectors stores each slot's antenna pattern; sectored antennas give
	// neighbouring sectors of one tower distinct coverage lobes. Like the
	// former GlobalID-keyed map, the last generated cell of a shared slot
	// wins.
	sectors []sector
}

// sector is one slot's antenna pattern: its boresight and 3 dB beamwidth,
// plus what SectorGainDB needs to recognise the back lobe without an
// Atan2.
type sector struct {
	az, bw float64 // boresight direction and beamwidth, radians
	// ux, uy is the boresight unit vector (cos az, sin az).
	ux, uy float64
	// cosFloor is the cosine of the off-boresight angle past which the
	// pattern surely sits on its floor: cos(floorAngle + floorMargin).
	// It is -2, which no direction's cosine is below, where the floor is
	// out of reach, and where |az| ≥ 4π: there a-b in angleDiff rounds
	// away more than the margin, so only the Atan2 path gives its bits.
	// Generate's azimuths lie in (-π, 3π).
	cosFloor float64
}

// Antenna pattern constants: the parabolic pattern loses patternSlopeDB
// at the beam edge (bw/2 off boresight) and is clamped at gainFloorDB,
// which it reaches at floorAngle = (bw/2)·sqrt(gainFloorDB/patternSlopeDB).
// floorMargin (radians) keeps the back-lobe test far from that boundary:
// the dot product, Atan2 and the angle wrap each err by under 1e-14 rad,
// eight orders of magnitude below it.
const (
	patternSlopeDB = -12.0
	gainFloorDB    = -20.0
	floorMargin    = 1e-6
)

// newSector builds the pattern of a slot whose boresight is az and whose
// beamwidth is bw.
func newSector(az, bw float64) sector {
	s := sector{az: az, bw: bw, ux: math.Cos(az), uy: math.Sin(az), cosFloor: -2}
	if edge := bw/2*math.Sqrt(gainFloorDB/patternSlopeDB) + floorMargin; edge < math.Pi && math.Abs(az) < 4*math.Pi {
		s.cosFloor = math.Cos(edge)
	}
	return s
}

// behind reports whether the direction (dx, dy) from the tower lies more
// than floorAngle + floorMargin off boresight, where the pattern is
// surely on its floor. It compares cos θ = u·v/|v| with cosFloor on
// squares, so it takes no square root. It answers false, leaving the
// decision to the exact path, for the tower's own position, for NaNs and
// for offsets whose squared length lies outside [1e-100, 1e100], where
// the squares would lose precision or overflow.
func (s *sector) behind(dx, dy float64) bool {
	r2 := dx*dx + dy*dy
	if !(r2 > 1e-100 && r2 < 1e100) {
		return false
	}
	dot := s.ux*dx + s.uy*dy
	k := s.cosFloor
	if k >= 0 {
		return dot < 0 || dot*dot < k*k*r2
	}
	return dot < 0 && dot*dot > k*k*r2
}

// idKey is a cell's (tech, PCI) identity — the typed equivalent of the
// GlobalID string.
type idKey struct {
	tech cellular.Tech
	pci  cellular.PCI
}

// Options tunes deployment generation.
type Options struct {
	// CityDensity scales tower spacing down for city routes (e.g. 0.7 means
	// towers 30% closer than the freeway default). 0 means 1.0.
	CityDensity float64
	// SpacingJitter is the relative standard deviation of inter-tower
	// spacing (default 0.25).
	SpacingJitter float64
	// LateralOffsetM is the mean perpendicular distance from route to tower
	// (default 80 m).
	LateralOffsetM float64
	// IncludeMMWave controls whether mmWave layers are deployed (they exist
	// only in cities in the paper's dataset). Default true.
	SkipMMWave bool
}

func (o Options) withDefaults() Options {
	if o.CityDensity == 0 {
		o.CityDensity = 1.0
	}
	if o.SpacingJitter == 0 {
		o.SpacingJitter = 0.25
	}
	if o.LateralOffsetM == 0 {
		o.LateralOffsetM = 80
	}
	return o
}

// Generate lays out the carrier's layers along the route.
func Generate(carrier CarrierProfile, route *geo.Polyline, rng *rand.Rand, opts Options) *Deployment {
	opts = opts.withDefaults()
	d := &Deployment{
		Route: route,
		byID:  make(map[idKey][]*cellular.Cell),
	}
	nextLTEPCI := cellular.PCI(1)
	// NR PCIs start above the LTE range (0-503) so a co-located gNB can
	// borrow its eNB's PCI (the §6.3 same-PCI heuristic) without colliding
	// with an allocated NR PCI.
	nextNRPCI := cellular.PCI(504)
	towerID := 0

	var lteTowers []*Tower
	for _, layer := range carrier.LTELayers {
		towers := d.genLayer(layer, rng, opts, &towerID, &nextLTEPCI, nil)
		lteTowers = append(lteTowers, towers...)
	}
	for _, layer := range carrier.NRLayers {
		if opts.SkipMMWave && layer.Band == cellular.BandMMWave {
			continue
		}
		d.genLayer(layer, rng, opts, &towerID, &nextNRPCI, lteTowers)
	}
	return d
}

// genLayer places one layer's towers along the route. For NR layers,
// coLocCandidates enables gNB/eNB co-location: with probability
// layer.CoLocate a gNB is snapped onto the nearest LTE tower and reuses its
// PCI (the paper's §6.3 same-PCI heuristic for co-located sites).
func (d *Deployment) genLayer(layer Layer, rng *rand.Rand, opts Options, towerID *int, nextPCI *cellular.PCI, coLocCandidates []*Tower) []*Tower {
	if layer.Sectors < 1 {
		layer.Sectors = 1
	}
	spacing := layer.SpacingM * opts.CityDensity
	var made []*Tower
	side := 1.0
	for s := spacing * (0.3 + 0.4*rng.Float64()); s < d.Route.Length(); {
		pos := d.Route.At(s)
		heading := d.Route.Heading(s)
		normal := geo.Point{X: -heading.Y, Y: heading.X}
		offset := opts.LateralOffsetM * (0.5 + rng.Float64())
		site := pos.Add(normal.Scale(side * offset))
		side = -side

		t := &Tower{ID: *towerID, Pos: site}
		*towerID++

		var pci cellular.PCI
		coLocated := false
		if layer.Tech == cellular.TechNR && len(coLocCandidates) > 0 && rng.Float64() < layer.CoLocate {
			// Snap to the nearest LTE tower, reusing its PCI block and its
			// tower identity (the cells share the physical site).
			best := coLocCandidates[0]
			for _, c := range coLocCandidates[1:] {
				if c.Pos.Dist(site) < best.Pos.Dist(site) {
					best = c
				}
			}
			t.Pos = best.Pos
			t.ID = best.ID
			pci = best.Cells[0].PCI
			coLocated = true
		}
		if !coLocated {
			pci = *nextPCI
			*nextPCI += cellular.PCI(layer.Sectors)
		}

		for sec := 0; sec < layer.Sectors; sec++ {
			// Sectors get consecutive PCIs; a co-located gNB borrows the
			// eNB's PCI block so the paper's same-PCI co-location
			// heuristic holds per sector.
			cellPCI := pci + cellular.PCI(sec)
			c := &cellular.Cell{
				PCI:     cellPCI,
				Tech:    layer.Tech,
				Band:    layer.Band,
				TowerID: t.ID,
				X:       t.Pos.X,
				Y:       t.Pos.Y,
				TxPower: layer.TxPowerDBm,
			}
			c.Index = len(d.Cells)
			c.CacheGlobalID()
			t.Cells = append(t.Cells, c)
			d.Cells = append(d.Cells, c)
			// Sector boresights split the circle; two-sector towers point
			// up/down the route so consecutive road segments belong to
			// different sectors, enabling intra-tower handovers.
			az := math.Atan2(heading.Y, heading.X) + float64(sec)*2*math.Pi/float64(layer.Sectors)
			bw := 2 * math.Pi / float64(layer.Sectors) * 0.8
			id := idKey{c.Tech, c.PCI}
			group := d.byID[id]
			var slot int32
			if len(group) == 0 {
				slot = int32(d.slots)
				d.slots++
				d.sectors = append(d.sectors, newSector(az, bw))
			} else {
				slot = d.slotByCell[group[0].Index]
				d.sectors[slot] = newSector(az, bw)
			}
			d.byID[id] = append(group, c)
			d.slotByCell = append(d.slotByCell, slot)
		}
		d.Towers = append(d.Towers, t)
		made = append(made, t)

		jitter := 1 + opts.SpacingJitter*(2*rng.Float64()-1)
		s += spacing * jitter
	}
	return made
}

// StateSlots returns the number of per-cell state slots in the deployment:
// one per distinct (tech, PCI) identity. Simulators size their per-cell
// process tables (shadowing, blockage, L3 filters) by this.
func (d *Deployment) StateSlots() int { return d.slots }

// StateSlot returns the state slot of a cell belonging to this deployment.
// Cells sharing a (tech, PCI) identity share a slot.
func (d *Deployment) StateSlot(c *cellular.Cell) int { return int(d.slotByCell[c.Index]) }

// CellsWithPCI returns the cells matching a (tech, PCI) identity in
// generation order, or nil if none exist. Callers disambiguate spatially
// repeated PCIs by distance.
func (d *Deployment) CellsWithPCI(tech cellular.Tech, pci cellular.PCI) []*cellular.Cell {
	return d.byID[idKey{tech, pci}]
}

// SectorGainDB returns the directional antenna gain (dB, <= 0) of the cell
// toward the UE at position p, using a parabolic pattern with a 20 dB
// back-lobe floor. Omnidirectional single-sector cells (and cells foreign
// to the deployment) return 0. A UE surely on the floor gets it from a dot
// product with the boresight; everywhere else the gain comes from the
// angle Atan2 gives, so both paths return the same bits.
func (d *Deployment) SectorGainDB(c *cellular.Cell, p geo.Point) float64 {
	if c.Index < 0 || c.Index >= len(d.slotByCell) || d.Cells[c.Index] != c {
		return 0
	}
	s := &d.sectors[d.slotByCell[c.Index]]
	bw := s.bw
	if bw >= 2*math.Pi*0.99 {
		return 0
	}
	dx, dy := p.X-c.X, p.Y-c.Y
	if s.behind(dx, dy) {
		return gainFloorDB
	}
	toUE := math.Atan2(dy, dx)
	delta := math.Abs(angleDiff(toUE, s.az))
	g := patternSlopeDB * (delta / (bw / 2)) * (delta / (bw / 2))
	if g < gainFloorDB {
		g = gainFloorDB
	}
	return g
}

// angleDiff returns the signed smallest difference a-b in (-π, π]. The
// first wrap is math.Mod(a-b, 2π), which is exact: for |a-b| < 4π, every
// value Atan2 and the sector azimuths produce, it is a-b itself or a-b∓2π,
// and that subtraction is exact by Sterbenz's lemma, so the conditional
// below gives Mod's bits without its loop. At a-b = -2π Mod returns -0
// where the sum gives +0, so that point and anything wider take Mod.
func angleDiff(a, b float64) float64 {
	x := a - b
	var d float64
	switch {
	case -2*math.Pi < x && x < 2*math.Pi:
		d = x
	case 2*math.Pi <= x && x < 4*math.Pi:
		d = x - 2*math.Pi
	case -4*math.Pi < x && x < -2*math.Pi:
		d = x + 2*math.Pi
	default:
		d = math.Mod(x, 2*math.Pi)
	}
	if d > math.Pi {
		d -= 2 * math.Pi
	}
	if d <= -math.Pi {
		d += 2 * math.Pi
	}
	return d
}
