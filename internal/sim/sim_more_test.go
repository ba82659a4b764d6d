package sim

import (
	"math/rand"
	"testing"

	"repro/internal/cellular"
	"repro/internal/geo"
	"repro/internal/throughput"
	"repro/internal/topology"
)

// TestRunOnSharedDeployment replays two drives over one topology, the way
// the paper's repeated walking loops reuse one neighbourhood.
func TestRunOnSharedDeployment(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	route := geo.GenCityLoop(rng, 3000)
	dep := topology.Generate(topology.OpX(), route, rng, topology.Options{CityDensity: 0.7})

	cfg := Config{
		Carrier:      topology.OpX(),
		Arch:         cellular.ArchNSA,
		RouteKind:    geo.RouteCityLoop,
		RouteLengthM: 3000,
		Laps:         2,
		SpeedMPS:     8.3,
	}
	a, err := RunOn(cfg, dep, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOn(cfg, dep, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Samples) == 0 || len(b.Samples) == 0 {
		t.Fatal("empty drives")
	}
	// Same topology, different seeds: cells observed should overlap, but
	// the fading/shadowing differ.
	if a.Samples[100].ServingLTE.RSRP == b.Samples[100].ServingLTE.RSRP {
		t.Error("different seeds produced identical observations")
	}
}

// TestDualModeSurvivesNRInterruptions: in split-bearer mode throughput
// never collapses to zero during 5G-NR handovers (§4.2's key property).
func TestDualModeSurvivesNRInterruptions(t *testing.T) {
	run := func(mode throughput.BearerMode) (nrHOZeroTput, nrHOSamples int) {
		cfg := freewayConfig(topology.OpX(), cellular.ArchNSA, 77)
		cfg.BearerMode = mode
		log, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range log.Samples {
			if !s.InHO || !s.HOType.Is5G() {
				continue
			}
			nrHOSamples++
			if s.TputMbps == 0 {
				nrHOZeroTput++
			}
		}
		return
	}
	scgZero, scgN := run(throughput.ModeSCG)
	dualZero, dualN := run(throughput.ModeSplit)
	if scgN == 0 || dualN == 0 {
		t.Fatal("no 5G HO samples observed")
	}
	if scgZero == 0 {
		t.Error("5G-only mode must stall during NR handovers")
	}
	if dualZero > dualN/10 {
		t.Errorf("dual mode stalled in %d/%d NR-HO samples; the LTE leg should carry through", dualZero, dualN)
	}
}

// TestForcedReleaseBreaksDwell: after an anchor handover the NR leg
// detaches for at least the SCG-change execution window, which is the §6.1
// effective-coverage mechanism.
func TestForcedReleaseBreaksDwell(t *testing.T) {
	log, err := Run(freewayConfig(topology.OpX(), cellular.ArchNSA, 83))
	if err != nil {
		t.Fatal(err)
	}
	// Find an MNBH directly followed by an SCGC and verify a detach gap in
	// the samples between the MNBH completion and the SCGC completion.
	found := false
	for i := 0; i+1 < len(log.Handovers) && !found; i++ {
		h, n := log.Handovers[i], log.Handovers[i+1]
		if h.Type != cellular.HOMNBH || n.Type != cellular.HOSCGC {
			continue
		}
		gapStart := h.Time + h.T2
		gapEnd := n.Time + n.T2
		sawDetached := false
		for _, s := range log.Samples {
			if s.Time >= gapStart && s.Time <= gapEnd && !s.ServingNR.Valid {
				sawDetached = true
				break
			}
		}
		if sawDetached {
			found = true
		}
	}
	if !found {
		t.Error("no MNBH→SCGC chain exhibited an NR detach gap")
	}
}

// TestCellGridFindsAllNearbyCells compares the grid against brute force.
func TestCellGridFindsAllNearbyCells(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	route := geo.GenFreeway(rng, 20000)
	dep := topology.Generate(topology.OpX(), route, rng, topology.Options{})
	grid := newCellGrid(dep.Cells, 1000)
	for _, s := range []float64{0, 5000, 12000, 19000} {
		p := route.At(s)
		want := map[string]bool{}
		for _, c := range dep.Cells {
			if p.Dist(geo.Point{X: c.X, Y: c.Y}) <= maxRangeM(c.Band) {
				want[c.GlobalID()] = true
			}
		}
		got := map[string]bool{}
		for _, o := range grid.inRange(nil, p) {
			if o.d != p.Dist(geo.Point{X: o.cell.X, Y: o.cell.Y}) {
				t.Fatalf("grid reports cell %s at %v m, brute force %v m", o.cell.GlobalID(), o.d, p.Dist(geo.Point{X: o.cell.X, Y: o.cell.Y}))
			}
			got[o.cell.GlobalID()] = true
		}
		if len(got) != len(want) {
			t.Fatalf("at s=%v grid found %d cells, brute force %d", s, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("grid missed cell %s", id)
			}
		}
	}
}

// TestMMWaveChurnExceedsLowBand: the §5.1 band ordering within NSA.
func TestMMWaveChurnExceedsLowBand(t *testing.T) {
	cfg := Config{
		Carrier:      topology.OpX(),
		Arch:         cellular.ArchNSA,
		RouteKind:    geo.RouteCityLoop,
		RouteLengthM: 5000,
		Laps:         3,
		SpeedMPS:     8.3,
		Seed:         23,
		TopoOpts:     topology.Options{CityDensity: 0.7},
	}
	log, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perBandKM := map[cellular.Band]float64{}
	lastOdo := map[cellular.Band]float64{}
	for _, s := range log.Samples {
		if !s.ServingNR.Valid {
			for b := range lastOdo {
				lastOdo[b] = -1
			}
			continue
		}
		b := s.ServingNR.Band
		if lo, ok := lastOdo[b]; ok && lo >= 0 && s.OdometerM > lo {
			perBandKM[b] += (s.OdometerM - lo) / 1000
		}
		for bb := range lastOdo {
			if bb != b {
				lastOdo[bb] = -1
			}
		}
		lastOdo[b] = s.OdometerM
	}
	hoPerBand := map[cellular.Band]int{}
	for _, h := range log.Handovers {
		if h.Type.Is5G() {
			hoPerBand[h.Band]++
		}
	}
	if perBandKM[cellular.BandMMWave] == 0 || hoPerBand[cellular.BandMMWave] == 0 {
		t.Skip("no mmWave coverage on this seed")
	}
	mmwRate := float64(hoPerBand[cellular.BandMMWave]) / perBandKM[cellular.BandMMWave]
	lowRate := float64(hoPerBand[cellular.BandLow]) / perBandKM[cellular.BandLow]
	if mmwRate <= lowRate {
		t.Errorf("mmWave HO rate (%.1f/km) must exceed low-band (%.1f/km)", mmwRate, lowRate)
	}
}
