package core_test

import (
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/core"
	"repro/internal/ran"
	"repro/internal/trace"
)

// TestServePathSteadyStateAllocs pins the allocation contract of the
// per-sample serve path (docs/ARCHITECTURE.md §Performance): once a
// Prognos instance has warmed its scratch state, OnSample+Predict must not
// allocate at all, over a quiet radio stream and over a stream whose every
// tick matches a pattern. This is the invariant the sharded server's
// throughput rests on — any regression here multiplies by every sample of
// every session.
func TestServePathSteadyStateAllocs(t *testing.T) {
	p, err := core.New(core.Config{
		EventConfigs:       ran.EventConfigsFor("OpX", cellular.ArchNSA),
		Arch:               cellular.ArchNSA,
		UseReportPredictor: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	smp := trace.Sample{
		Arch:       cellular.ArchNSA,
		ServingLTE: trace.CellObs{PCI: 101, Tech: cellular.TechLTE, Band: cellular.BandLow, RSRP: -95, RSRQ: -11, SINR: 12, Valid: true},
		ServingNR:  trace.CellObs{PCI: 501, Tech: cellular.TechNR, Band: cellular.BandMid, RSRP: -90, RSRQ: -10, SINR: 15, Valid: true},
	}
	now := time.Duration(0)
	tick := func() {
		smp.Time = now
		p.OnSample(smp)
		p.Predict()
		now += trace.SamplePeriod
	}
	// Warm up: fill the forecaster rings and scratch buffers.
	for i := 0; i < 256; i++ {
		tick()
	}
	if allocs := testing.AllocsPerRun(500, tick); allocs > 0 {
		t.Errorf("steady-state serve path allocates %.2f/op, want 0", allocs)
	}

	// Matched: a bootstrapped [A3]→LTEH pattern and one observed A3
	// report, with the report predictor off. The clock stands at the
	// report, so the observed anchor stays fresh and every tick matches.
	m, err := core.New(core.Config{
		EventConfigs: ran.EventConfigsFor("OpX", cellular.ArchLTE),
		Arch:         cellular.ArchLTE,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Bootstrap([]core.Pattern{{Seq: []string{"A3"}, HO: cellular.HOLTEH, Support: 1}})
	m.OnReport(cellular.MeasurementReport{Event: cellular.EventA3, Tech: cellular.TechLTE, ServingPCI: 101, NeighborPCI: 102})
	lte := trace.Sample{Arch: cellular.ArchLTE, ServingLTE: smp.ServingLTE}
	var pred core.Prediction
	matched := func() {
		m.OnSample(lte)
		pred = m.Predict()
	}
	if matched(); pred.Type != cellular.HOLTEH {
		t.Fatalf("matched stream predicted %s, want LTEH", pred.Type)
	}
	if allocs := testing.AllocsPerRun(500, matched); allocs > 0 {
		t.Errorf("matched serve path allocates %.2f/op, want 0", allocs)
	}
	if pred.Type != cellular.HOLTEH {
		t.Errorf("matched stream stopped matching: predicted %s", pred.Type)
	}
}
