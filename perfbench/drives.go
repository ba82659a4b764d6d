package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/cellular"
	"repro/internal/geo"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Every workload serves the OpX analogue in NSA, the paper's headline
// carrier and the one the serve path's historical numbers were taken on.
const (
	carrierName = "OpX"
	arch        = cellular.ArchNSA
)

// driveSpec is one simulated drive of a workload's input set.
type driveSpec struct {
	city     bool // mmWave city loop; freeway otherwise
	lengthM  float64
	speedMPS float64
	seed     int64
}

func (d driveSpec) config() sim.Config {
	cfg := sim.Config{
		Carrier:  topology.OpX(),
		Arch:     arch,
		SpeedMPS: d.speedMPS,
	}
	if d.city {
		cfg.RouteKind = geo.RouteCityLoop
		cfg.TopoOpts = topology.Options{CityDensity: 0.7}
	} else {
		cfg.RouteKind = geo.RouteFreeway
		cfg.TopoOpts = topology.Options{SkipMMWave: true}
	}
	return cfg
}

// freeway and city build the two drive shapes. Freeway drives run at
// highway speed over the sparse low/mid-band grid; city loops run at urban
// speed through dense mmWave cells, which is what grid walk and radio cost
// depend on.
func freeway(seed int64, km float64) driveSpec {
	return driveSpec{lengthM: km * 1000, speedMPS: 29, seed: seed}
}

func city(seed int64, km float64) driveSpec {
	return driveSpec{city: true, lengthM: km * 1000, speedMPS: 8.3, seed: seed}
}

// drive is one simulated drive with the wall time of each stage.
type drive struct {
	spec   driveSpec
	log    *trace.Log
	deploy time.Duration // geo.Generate + topology.Generate
	sim    time.Duration // sim.RunOn
}

func (d *drive) km() float64 { return d.log.DistanceKM() }

// kmPerSecond is the drive's simulated km per second of its deploy + sim
// wall time, on the one worker that simulated it.
func (d *drive) kmPerSecond() float64 { return d.km() / (d.deploy + d.sim).Seconds() }

// simulate generates the route and deployment of spec and drives it. The
// benchmark's spans wrap the two layer calls.
func simulate(spec driveSpec, tr *Tracer) (*drive, error) {
	cfg := spec.config()
	rng := rand.New(rand.NewSource(spec.seed))
	t0 := time.Now()
	tr.Begin("topology.deploy", 0)
	route := geo.Generate(cfg.RouteKind, rng, spec.lengthM)
	dep := topology.Generate(cfg.Carrier, route, rng, cfg.TopoOpts)
	tr.End(1)
	t1 := time.Now()
	name := "sim.freeway.tick"
	if spec.city {
		name = "sim.city.tick"
	}
	tr.Begin(name, 0)
	log, err := sim.RunOn(cfg, dep, spec.seed^0x5eed)
	if err != nil {
		tr.End(0)
		return nil, fmt.Errorf("simulate %+v: %w", spec, err)
	}
	tr.End(len(log.Samples))
	t2 := time.Now()
	if len(log.Samples) == 0 {
		return nil, fmt.Errorf("simulate %+v: no samples", spec)
	}
	return &drive{spec: spec, log: log, deploy: t1.Sub(t0), sim: t2.Sub(t1)}, nil
}

// simulateAll drives every spec on at most workers goroutines, one tracer
// per goroutine (tracers[i] may be nil), and returns the drives in spec
// order.
func simulateAll(specs []driveSpec, tracers []*Tracer) ([]*drive, error) {
	workers := min(len(tracers), len(specs))
	out := make([]*drive, len(specs))
	errs := make([]error, len(specs))
	var next sync.Mutex
	i := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tr *Tracer) {
			defer wg.Done()
			for {
				next.Lock()
				k := i
				i++
				next.Unlock()
				if k >= len(specs) {
					return
				}
				out[k], errs[k] = simulate(specs[k], tr)
			}
		}(tracers[w])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// driveTotals sums the work counts of a drive set.
type driveTotals struct {
	km                 float64
	handovers, reports int
}

func totals(ds []*drive) driveTotals {
	var t driveTotals
	for _, d := range ds {
		t.km += d.km()
		t.handovers += len(d.log.Handovers)
		t.reports += len(d.log.Reports)
	}
	return t
}

// procs is the benchmark's core budget: the 2-core reference box, or fewer
// when the machine has fewer.
func procs() int { return min(2, runtime.NumCPU()) }

// step is one sample of a record stream together with the control records
// due at or before it. Reports and handovers alias the drive log and are
// sent with their times shifted by off; smp is already shifted.
type step struct {
	smp     trace.Sample
	reports []cellular.MeasurementReport
	hos     []cellular.HandoverEvent
	off     time.Duration
}

// stream cycles a connection's drives as one endless, time-monotone record
// stream: when a drive runs out the next one starts with every timestamp
// shifted past the previous drive, and after the last drive the list
// starts over. Two streams over the same drives yield identical steps,
// which is how the reference replay sees exactly what the server saw.
type stream struct {
	logs     []*trace.Log
	d, i     int
	ri, hi   int
	off      time.Duration
	cycleLen int // samples in one pass over logs
}

func newStream(ds []*drive) *stream {
	s := &stream{}
	for _, d := range ds {
		s.logs = append(s.logs, d.log)
		s.cycleLen += len(d.log.Samples)
	}
	return s
}

// clone returns a fresh stream over the same drives, at the start.
func (s *stream) clone() *stream {
	return &stream{logs: s.logs, cycleLen: s.cycleLen}
}

// next fills st with the next step.
func (s *stream) next(st *step) {
	log := s.logs[s.d]
	if s.i >= len(log.Samples) {
		s.off += log.Duration() + trace.SamplePeriod
		s.d = (s.d + 1) % len(s.logs)
		s.i, s.ri, s.hi = 0, 0, 0
		log = s.logs[s.d]
	}
	base := log.Samples[s.i]
	s.i++
	r0 := s.ri
	for s.ri < len(log.Reports) && log.Reports[s.ri].Time <= base.Time {
		s.ri++
	}
	h0 := s.hi
	for s.hi < len(log.Handovers) && log.Handovers[s.hi].Time <= base.Time {
		s.hi++
	}
	st.smp = base
	st.smp.Time += s.off
	st.reports = log.Reports[r0:s.ri]
	st.hos = log.Handovers[h0:s.hi]
	st.off = s.off
}
