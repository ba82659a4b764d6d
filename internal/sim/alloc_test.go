package sim

import (
	"math/rand"
	"testing"

	"repro/internal/cellular"
	"repro/internal/geo"
	"repro/internal/topology"
	"repro/internal/trace"
)

// warmedState builds a state and advances it through its first few hundred
// ticks so every lazily created per-cell process (shadow fields, blockage,
// L3 slots) and scratch buffer on the measured stretch already exists.
func warmedState(t testing.TB, cfg Config) (*state, geo.Point) {
	t.Helper()
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	route := geo.Generate(cfg.RouteKind, rng, cfg.RouteLengthM)
	dep := topology.Generate(cfg.Carrier, route, rng, cfg.TopoOpts)
	s := newState(cfg, route, dep, rng)

	s.scan(route.At(0))
	if cfg.Arch == cellular.ArchSA {
		if o, ok := best(s.obsNR, nil); ok {
			s.nrCell = o.cell
		}
	} else {
		if o, ok := best(s.obsLTE, nil); ok {
			s.lteCell = o.cell
		}
	}
	dt := trace.SamplePeriod
	step := cfg.SpeedMPS * dt.Seconds()
	for i := 0; i < 400; i++ {
		s.tick(s.route.At(s.odo), dt)
		s.now += dt
		s.ticks++
		s.odo += step
	}
	return s, s.route.At(s.odo)
}

// TestSteadyStateTickZeroAllocs pins the per-tick compute path — grid walk,
// per-cell observation/filtering, measurement-input assembly including
// SINR/interferer collection, and the sample written into a presized log —
// to zero heap allocations. Excluded by design are the sinks that allocate
// when output is produced (report and handover appends, measurement-report
// emission) and one-time lazy initialisation; those are either amortised
// growth of the result or cold-path work.
func TestSteadyStateTickZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"NSA-freeway", Config{
			Carrier: topology.OpX(), Arch: cellular.ArchNSA,
			RouteKind: geo.RouteFreeway, RouteLengthM: 6000, SpeedMPS: 29, Seed: 7,
		}},
		{"SA-city", Config{
			Carrier: topology.OpY(), Arch: cellular.ArchSA,
			RouteKind: geo.RouteCityLoop, RouteLengthM: 1600, SpeedMPS: 8, Seed: 11,
			TopoOpts: topology.Options{CityDensity: 0.7},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, p := warmedState(t, tc.cfg)
			const runs = 200
			s.log.Samples = make([]trace.Sample, 0, len(s.log.Samples)+runs+1)
			avg := testing.AllocsPerRun(runs, func() {
				s.scan(p)
				in := s.buildMeasInput(p)
				s.logSample(p, &in)
			})
			if avg != 0 {
				t.Errorf("steady-state scan+measurement+sample path allocates %.2f times per tick, want 0", avg)
			}
		})
	}
}
