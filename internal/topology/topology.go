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
	// azimuth stores each slot's boresight direction (radians); sectored
	// antennas give neighbouring sectors of one tower distinct coverage
	// lobes. Like the former GlobalID-keyed map, the last generated cell of
	// a shared slot wins.
	azimuth []float64
	// beamwidth (radians, 3 dB) per slot.
	beamwidth []float64
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
				d.azimuth = append(d.azimuth, az)
				d.beamwidth = append(d.beamwidth, bw)
			} else {
				slot = d.slotByCell[group[0].Index]
				d.azimuth[slot] = az
				d.beamwidth[slot] = bw
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
// to the deployment) return 0.
func (d *Deployment) SectorGainDB(c *cellular.Cell, p geo.Point) float64 {
	if c.Index < 0 || c.Index >= len(d.slotByCell) || d.Cells[c.Index] != c {
		return 0
	}
	slot := d.slotByCell[c.Index]
	bw := d.beamwidth[slot]
	if bw >= 2*math.Pi*0.99 {
		return 0
	}
	az := d.azimuth[slot]
	toUE := math.Atan2(p.Y-c.Y, p.X-c.X)
	delta := math.Abs(angleDiff(toUE, az))
	g := -12 * (delta / (bw / 2)) * (delta / (bw / 2))
	if g < -20 {
		g = -20
	}
	return g
}

// angleDiff returns the signed smallest difference a-b in (-π, π].
func angleDiff(a, b float64) float64 {
	d := math.Mod(a-b, 2*math.Pi)
	if d > math.Pi {
		d -= 2 * math.Pi
	}
	if d <= -math.Pi {
		d += 2 * math.Pi
	}
	return d
}
