package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cellular"
	"repro/internal/geo"
	"repro/internal/ran"
	"repro/internal/throughput"
	"repro/internal/topology"
	"repro/internal/trace"
)

// pathCase pins one drive that TestGoldenTraces does not cover; Hash is
// the SHA-256 of what the case's drive function writes.
type pathCase struct {
	Name string `json:"name"`
	Hash string `json:"sha256"`
}

// goldenPaths are the drives behind testdata/golden_paths.json:
//   - the benchmark's offline drive shapes, run through RunOn over a
//     deployment built apart from the drive, as perfbench builds them;
//   - sampling that stores only every Nth tick, once static and once with
//     the closed loop, which consumes every tick's sample;
//   - a serving cell outside the tick's scan, which never happens on its
//     own and so is constructed.
var goldenPaths = []struct {
	name  string
	drive func(t *testing.T) []byte
}{
	{"runon-freeway-nsa-noMMW-2km-s1", func(t *testing.T) []byte { return runOnTrace(t, false, 1) }},
	{"runon-freeway-nsa-noMMW-2km-s2", func(t *testing.T) []byte { return runOnTrace(t, false, 2) }},
	{"runon-city-nsa-1km-s1", func(t *testing.T) []byte { return runOnTrace(t, true, 1) }},
	{"runon-city-nsa-1km-s2", func(t *testing.T) []byte { return runOnTrace(t, true, 2) }},
	{"every3-freeway-nsa", func(t *testing.T) []byte {
		c := goldenConfig(goldenCase{Carrier: "OpX", Arch: cellular.ArchNSA, Route: geo.RouteFreeway, Seed: 505}, t)
		c.SampleEveryN = 3
		log, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		return encodeLog(t, log)
	}},
	{"every4-city-nsa-adaptive", func(t *testing.T) []byte {
		c := goldenConfig(goldenCase{Carrier: "OpX", Arch: cellular.ArchNSA, Route: geo.RouteCityLoop, Seed: 101}, t)
		c.SampleEveryN = 4
		c.Adaptive = ran.DefaultAdaptive()
		log, cl, err := RunClosedLoop(c)
		if err != nil {
			t.Fatal(err)
		}
		ticks, err := json.Marshal(cl.Ticks)
		if err != nil {
			t.Fatal(err)
		}
		return append(encodeLog(t, log), ticks...)
	}},
	{"outside-scan-nsa-freeway", outsideScanTrace},
}

// encodeLog returns the log's JSONL encoding, as trace.Log.Write gives it.
func encodeLog(t *testing.T, log *trace.Log) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := log.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runOnTrace runs one of the offline benchmark's drive shapes: an OpX NSA
// freeway without mmWave (2 km at 29 m/s), or a dense city loop (1 km at
// 8.3 m/s). The deployment comes from seed and the drive from seed^0x5eed.
func runOnTrace(t *testing.T, city bool, seed int64) []byte {
	t.Helper()
	cfg := Config{Carrier: topology.OpX(), Arch: cellular.ArchNSA, RouteKind: geo.RouteFreeway, SpeedMPS: 29,
		TopoOpts: topology.Options{SkipMMWave: true}}
	lengthM := 2000.0
	if city {
		cfg.RouteKind, cfg.SpeedMPS = geo.RouteCityLoop, 8.3
		cfg.TopoOpts = topology.Options{CityDensity: 0.7}
		lengthM = 1000
	}
	rng := rand.New(rand.NewSource(seed))
	route := geo.Generate(cfg.RouteKind, rng, lengthM)
	dep := topology.Generate(cfg.Carrier, route, rng, cfg.TopoOpts)
	log, err := RunOn(cfg, dep, seed^0x5eed)
	if err != nil {
		t.Fatal(err)
	}
	return encodeLog(t, log)
}

// outsideScanTrace attaches an OpX NSA freeway drive normally, then forces
// its NR leg onto the mmWave cell farthest from the route start, again
// every 100 ticks when no handover is in flight. That cell is beyond
// mmWave range, so no scan observes it: every tick observes it afresh,
// once for the measurement input and once for the sample, until the
// network releases the leg. The test fails if that never happened.
func outsideScanTrace(t *testing.T) []byte {
	t.Helper()
	cfg := Config{Carrier: topology.OpX(), Arch: cellular.ArchNSA, RouteKind: geo.RouteFreeway,
		RouteLengthM: 4000, SpeedMPS: 29, Seed: 404, BearerMode: throughput.ModeSplit}.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	route := geo.Generate(cfg.RouteKind, rng, cfg.RouteLengthM)
	dep := topology.Generate(cfg.Carrier, route, rng, cfg.TopoOpts)
	s := newState(cfg, route, dep, rng)

	p0 := route.At(0)
	s.scan(p0)
	if o, ok := best(s.obsLTE, nil); ok {
		s.lteCell = o.cell
	}
	var far *cellular.Cell
	farD := 0.0
	for _, c := range dep.Cells {
		if d := p0.Dist(geo.Point{X: c.X, Y: c.Y}); c.Band == cellular.BandMMWave && d > farD {
			far, farD = c, d
		}
	}
	if far == nil || farD < 2*maxRangeM(cellular.BandMMWave) {
		t.Fatalf("no mmWave cell far enough from the start (farthest %.0f m)", farD)
	}

	dt := trace.SamplePeriod
	step := cfg.SpeedMPS * dt.Seconds()
	outside := 0
	for i := 0; i < 600; i++ {
		if i%100 == 0 && s.pending == nil {
			s.nrCell = far
		}
		s.tick(route.At(s.odo), dt)
		if s.nrCell != nil && s.obsGen[s.nrCell.Index] != s.scanGen {
			outside++
		}
		s.now += dt
		s.ticks++
		s.odo += step
	}
	if outside == 0 {
		t.Fatal("the serving NR cell was never outside the scan")
	}
	t.Logf("serving NR cell outside the scan on %d ticks", outside)
	return encodeLog(t, s.log)
}

// TestGoldenPaths pins the drives in goldenPaths to the hashes in
// testdata/golden_paths.json. Like TestGoldenTraces it must pass without
// -update after any change meant to keep simulator output; -update
// rewrites the file.
func TestGoldenPaths(t *testing.T) {
	path := filepath.Join("testdata", "golden_paths.json")
	got := make([]pathCase, len(goldenPaths))
	for i, g := range goldenPaths {
		sum := sha256.Sum256(g.drive(t))
		got[i] = pathCase{Name: g.name, Hash: hex.EncodeToString(sum[:])}
	}
	if *update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d cases", path, len(got))
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden file (regenerate with -update): %v", err)
	}
	var want []pathCase
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d cases, test has %d (regenerate with -update)", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: hash drifted:\n  got  %s\n  want %s\nthe simulator's output (including RNG draw order) changed",
				got[i].Name, got[i].Hash, want[i].Hash)
		}
	}
}
