package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/ran"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// update regenerates testdata/predict_golden.json from the current
// implementation:
//
//	go test ./internal/core -run TestPredictionGolden -update
//
// Only do this when a change is *meant* to alter what Prognos predicts. A
// performance change to the report predictor or the learner must keep this
// test green without -update.
var update = flag.Bool("update", false, "rewrite prediction golden hashes")

// predictDrive is one simulated drive the golden replays.
type predictDrive struct {
	name    string
	carrier string
	arch    cellular.Arch
	route   geo.RouteKind
	seed    int64
}

// predictVariant is one Prognos configuration the golden replays a drive
// under.
type predictVariant struct {
	name   string
	mutate func(*core.Config)
}

// predictGoldenCase is one row of the golden file: Hash is the SHA-256 over
// every Prediction field of every tick plus the final checkpoint bytes.
type predictGoldenCase struct {
	Name string `json:"name"`
	Hash string `json:"sha256"`
}

var (
	variantFull = predictVariant{"full", func(*core.Config) {}}
	variantNoRP = predictVariant{"no-report-predictor", func(c *core.Config) { c.UseReportPredictor = false }}
	variantSm1  = predictVariant{"smoother-1", func(c *core.Config) { c.SmootherWindow = 1 }}
	variant500  = predictVariant{"window-500ms", func(c *core.Config) {
		c.HistoryWindow = 500 * time.Millisecond
		c.PredictionWindow = 500 * time.Millisecond
	}}
	variant2s = predictVariant{"window-2s", func(c *core.Config) {
		c.HistoryWindow = 2 * time.Second
		c.PredictionWindow = 2 * time.Second
	}}
)

// predictGoldenRow is one golden drive with the variants replayed over it.
type predictGoldenRow struct {
	drive    predictDrive
	variants []predictVariant
}

// predictGoldenPlan lists the drives and, per drive, the variants replayed
// over it: OpX NSA city walks and freeway drives on seeds 1-3 and one OpY SA
// drive, each with the report predictor on and off; the first walk and the
// first freeway drive also run the smoother and window ablations.
func predictGoldenPlan() []predictGoldenRow {
	base := []predictVariant{variantFull, variantNoRP}
	all := []predictVariant{variantFull, variantNoRP, variantSm1, variant500, variant2s}
	var plan []predictGoldenRow
	for _, seed := range []int64{1, 2, 3} {
		vs := base
		if seed == 1 {
			vs = all
		}
		plan = append(plan,
			predictGoldenRow{predictDrive{fmt.Sprintf("OpX-NSA-walk-%d", seed), "OpX", cellular.ArchNSA, geo.RouteCityLoop, seed}, vs},
			predictGoldenRow{predictDrive{fmt.Sprintf("OpX-NSA-freeway-%d", seed), "OpX", cellular.ArchNSA, geo.RouteFreeway, seed}, vs},
		)
	}
	return append(plan, predictGoldenRow{predictDrive{"OpY-SA-city-1", "OpY", cellular.ArchSA, geo.RouteCityLoop, 1}, base})
}

// simulate runs one golden drive. Walks go three times round an 800 m
// downtown loop at walking pace, so the learner predicts from patterns it
// learned on earlier laps; drives run 8 km of freeway or a 3 km loop at city
// speed.
func (d predictDrive) simulate(t *testing.T) *trace.Log {
	t.Helper()
	carrier, err := topology.CarrierByName(d.carrier)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Carrier: carrier, Arch: d.arch, RouteKind: d.route, Seed: d.seed}
	switch {
	case d.route == geo.RouteFreeway:
		cfg.RouteLengthM, cfg.SpeedMPS = 8000, 29
	case d.arch == cellular.ArchSA:
		cfg.RouteLengthM, cfg.SpeedMPS = 3000, 8
		cfg.TopoOpts = topology.Options{CityDensity: 0.7}
	default:
		cfg.RouteLengthM, cfg.Laps, cfg.SpeedMPS = 800, 3, 1.4
		cfg.TopoOpts = topology.Options{CityDensity: 0.7}
	}
	log, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return log
}

// predictionHasher folds Predictions into a SHA-256 field by field, floats
// by their bit patterns.
type predictionHasher struct {
	h   hash.Hash
	buf []byte
}

func (ph *predictionHasher) u64(v uint64) { ph.buf = binary.LittleEndian.AppendUint64(ph.buf, v) }

func (ph *predictionHasher) str(s string) {
	ph.u64(uint64(len(s)))
	ph.buf = append(ph.buf, s...)
}

func (ph *predictionHasher) add(p core.Prediction) {
	ph.buf = ph.buf[:0]
	ph.u64(uint64(p.Type))
	ph.u64(math.Float64bits(p.Score))
	ph.u64(math.Float64bits(p.Similarity))
	ph.u64(uint64(p.Lead))
	ph.str(p.PatternKey)
	ph.u64(uint64(len(p.Pattern.Seq)))
	for _, k := range p.Pattern.Seq {
		ph.str(k)
	}
	ph.u64(uint64(p.Pattern.HO))
	ph.u64(uint64(p.Pattern.Support))
	ph.u64(uint64(p.Pattern.LastPhase))
	ph.u64(uint64(p.Pattern.Hits))
	ph.u64(uint64(p.Pattern.Misses))
	ph.h.Write(ph.buf)
}

// predictionHash replays log through a fresh Prognos under v, in core.Replay
// order, and hashes every prediction plus the final checkpoint.
func predictionHash(t *testing.T, d predictDrive, v predictVariant, log *trace.Log) string {
	t.Helper()
	cfg := core.Config{
		EventConfigs:       ran.EventConfigsFor(d.carrier, d.arch),
		Arch:               d.arch,
		UseReportPredictor: true,
	}
	v.mutate(&cfg)
	p, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ph := &predictionHasher{h: sha256.New()}
	ri, hi := 0, 0
	for _, s := range log.Samples {
		for ri < len(log.Reports) && log.Reports[ri].Time <= s.Time {
			p.OnReport(log.Reports[ri])
			ri++
		}
		for hi < len(log.Handovers) && log.Handovers[hi].Time <= s.Time {
			p.OnHandover(log.Handovers[hi])
			hi++
		}
		p.OnSample(s)
		ph.add(p.Predict())
	}
	ckpt, err := core.EncodeCheckpoint(core.CheckpointFile{
		Version:  core.SnapshotVersion,
		Carrier:  d.carrier,
		Arch:     d.arch.String(),
		Snapshot: p.Snapshot(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ph.h.Write(ckpt)
	return hex.EncodeToString(ph.h.Sum(nil))
}

// TestPredictionGolden pins Prognos' output bit for bit: per case, the hash
// of every Prediction field at every tick of a replayed drive and of the
// final checkpoint must match the committed golden. Together with the
// simulator's TestGoldenTraces this keeps every regenerated paper number
// unchanged across performance work on the predictor.
func TestPredictionGolden(t *testing.T) {
	path := filepath.Join("testdata", "predict_golden.json")
	var got []predictGoldenCase
	for _, row := range predictGoldenPlan() {
		log := row.drive.simulate(t)
		for _, v := range row.variants {
			got = append(got, predictGoldenCase{
				Name: row.drive.name + "/" + v.name,
				Hash: predictionHash(t, row.drive, v, log),
			})
		}
	}
	if *update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
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
	var want []predictGoldenCase
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d cases, test computes %d (regenerate with -update)", len(want), len(got))
	}
	for i, w := range want {
		if got[i].Name != w.Name {
			t.Errorf("case %d is %s, golden has %s (regenerate with -update)", i, got[i].Name, w.Name)
			continue
		}
		if got[i].Hash != w.Hash {
			t.Errorf("%s: prediction hash drifted:\n  got  %s\n  want %s", w.Name, got[i].Hash, w.Hash)
		}
	}
}
