package ue

import (
	"testing"
	"time"

	"repro/internal/cellular"
)

func lteInput(t time.Duration, serving, neighbor float64) Input {
	return Input{
		Time: t,
		LTE: Meas{
			Valid: true, ServingPCI: 1, ServingRSRP: serving,
			NeighborValid: true, NeighborPCI: 2, NeighborRSRP: neighbor,
		},
	}
}

func TestEngineRequiresConfigs(t *testing.T) {
	if _, err := NewMeasurementEngine(nil); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestTTTGatesReporting(t *testing.T) {
	cfg := cellular.EventConfig{Type: cellular.EventA3, Tech: cellular.TechLTE, Offset: 3, TTT: 200 * time.Millisecond}
	e, err := NewMeasurementEngine([]cellular.EventConfig{cfg})
	if err != nil {
		t.Fatal(err)
	}
	dt := 50 * time.Millisecond
	now := time.Duration(0)
	var fired []time.Duration
	for i := 0; i < 10; i++ {
		for _, mr := range e.Tick(lteInput(now, -100, -90), dt) {
			fired = append(fired, mr.Time)
			if mr.Event != cellular.EventA3 || mr.NeighborPCI != 2 {
				t.Fatalf("unexpected report %+v", mr)
			}
		}
		now += dt
	}
	if len(fired) != 1 {
		t.Fatalf("report-on-enter fired %d times, want 1", len(fired))
	}
	// Condition held from t=0; TTT=200ms at 50ms ticks → report on the
	// 4th tick (t=150ms input, heldFor reaches 200ms).
	if fired[0] != 150*time.Millisecond {
		t.Errorf("fired at %v", fired[0])
	}
}

func TestTTTResetsWhenConditionClears(t *testing.T) {
	cfg := cellular.EventConfig{Type: cellular.EventA2, Tech: cellular.TechLTE, Threshold1: -100, TTT: 150 * time.Millisecond}
	e, _ := NewMeasurementEngine([]cellular.EventConfig{cfg})
	dt := 50 * time.Millisecond
	// Two ticks in condition, one out, then back in: TTT must restart.
	seq := []float64{-105, -105, -90, -105, -105, -105}
	count := 0
	for i, rsrp := range seq {
		in := Input{Time: time.Duration(i) * dt, LTE: Meas{Valid: true, ServingPCI: 1, ServingRSRP: rsrp}}
		count += len(e.Tick(in, dt))
	}
	if count != 1 {
		t.Fatalf("got %d reports, want exactly 1 (after the re-entry completes TTT)", count)
	}
}

func TestPeriodicReReporting(t *testing.T) {
	cfg := cellular.EventConfig{
		Type: cellular.EventA2, Tech: cellular.TechLTE, Threshold1: -100,
		TTT: 50 * time.Millisecond, ReportInterval: 200 * time.Millisecond, ReportAmount: 3,
	}
	e, _ := NewMeasurementEngine([]cellular.EventConfig{cfg})
	dt := 50 * time.Millisecond
	count := 0
	for i := 0; i < 40; i++ {
		in := Input{Time: time.Duration(i) * dt, LTE: Meas{Valid: true, ServingPCI: 1, ServingRSRP: -110}}
		count += len(e.Tick(in, dt))
	}
	if count != 3 {
		t.Fatalf("got %d reports, want 3 (ReportAmount cap)", count)
	}
}

func TestB1UsesNRCandidate(t *testing.T) {
	cfg := cellular.EventConfig{Type: cellular.EventB1, Tech: cellular.TechNR, Threshold1: -104, TTT: 50 * time.Millisecond}
	e, _ := NewMeasurementEngine([]cellular.EventConfig{cfg})
	in := Input{
		Time:        0,
		LTE:         Meas{Valid: true, ServingPCI: 3, ServingRSRP: -95},
		NRCandidate: Meas{Valid: true, ServingPCI: 700, ServingRSRP: -98},
	}
	var got []cellular.MeasurementReport
	for i := 0; i < 4; i++ {
		in.Time = time.Duration(i) * 50 * time.Millisecond
		got = append(got, e.Tick(in, 50*time.Millisecond)...)
	}
	if len(got) != 1 {
		t.Fatalf("B1 fired %d times", len(got))
	}
	if got[0].NeighborPCI != 700 || got[0].ServingPCI != 3 {
		t.Errorf("B1 report %+v: serving must be the LTE anchor, neighbour the NR candidate", got[0])
	}
	// Without an NR candidate the event must not evaluate.
	e.Reconfigure([]cellular.EventConfig{cfg})
	in2 := Input{Time: time.Second, LTE: Meas{Valid: true, ServingPCI: 3, ServingRSRP: -95}}
	for i := 0; i < 4; i++ {
		in2.Time += 50 * time.Millisecond
		if rs := e.Tick(in2, 50*time.Millisecond); len(rs) != 0 {
			t.Fatal("B1 fired without a candidate")
		}
	}
}

func TestNREventsNeedNRLeg(t *testing.T) {
	cfg := cellular.EventConfig{Type: cellular.EventA2, Tech: cellular.TechNR, Threshold1: -110, TTT: 50 * time.Millisecond}
	e, _ := NewMeasurementEngine([]cellular.EventConfig{cfg})
	in := Input{Time: 0, LTE: Meas{Valid: true, ServingPCI: 1, ServingRSRP: -120}}
	for i := 0; i < 4; i++ {
		in.Time = time.Duration(i) * 50 * time.Millisecond
		if rs := e.Tick(in, 50*time.Millisecond); len(rs) != 0 {
			t.Fatal("NR-A2 fired without an NR leg")
		}
	}
}

func TestReconfigureResetsState(t *testing.T) {
	cfg := cellular.EventConfig{Type: cellular.EventA2, Tech: cellular.TechLTE, Threshold1: -100, TTT: 100 * time.Millisecond}
	e, _ := NewMeasurementEngine([]cellular.EventConfig{cfg})
	dt := 50 * time.Millisecond
	in := Input{LTE: Meas{Valid: true, ServingPCI: 1, ServingRSRP: -110}}
	e.Tick(in, dt)
	e.Reconfigure([]cellular.EventConfig{cfg})
	// After reconfigure the TTT restarts: two more ticks to fire.
	if rs := e.Tick(in, dt); len(rs) != 0 {
		t.Fatal("fired immediately after reconfigure")
	}
	if rs := e.Tick(in, dt); len(rs) != 1 {
		t.Fatal("did not fire after full TTT post-reconfigure")
	}
}
