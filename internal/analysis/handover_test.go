package analysis

import (
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/trace"
)

func mkHO(typ cellular.HOType, src, dst string, at time.Duration) cellular.HandoverEvent {
	return cellular.HandoverEvent{Type: typ, SourceCell: src, TargetCell: dst, Time: at}
}

func TestPingPongs(t *testing.T) {
	w := 5 * time.Second
	cases := []struct {
		name string
		hos  []cellular.HandoverEvent
		want int
	}{
		{"empty", nil, 0},
		{"single move", []cellular.HandoverEvent{
			mkHO(cellular.HOMNBH, "a", "b", 0),
		}, 0},
		{"return inside window", []cellular.HandoverEvent{
			mkHO(cellular.HOMNBH, "a", "b", 0),
			mkHO(cellular.HOMNBH, "b", "a", 3*time.Second),
		}, 1},
		{"return at window edge", []cellular.HandoverEvent{
			mkHO(cellular.HOMNBH, "a", "b", 0),
			mkHO(cellular.HOMNBH, "b", "a", 5*time.Second),
		}, 1},
		{"return outside window", []cellular.HandoverEvent{
			mkHO(cellular.HOMNBH, "a", "b", 0),
			mkHO(cellular.HOMNBH, "b", "a", 6*time.Second),
		}, 0},
		{"forward chain is not a ping-pong", []cellular.HandoverEvent{
			mkHO(cellular.HOMNBH, "a", "b", 0),
			mkHO(cellular.HOMNBH, "b", "c", time.Second),
			mkHO(cellular.HOMNBH, "c", "d", 2*time.Second),
		}, 0},
		{"oscillation counts every return", []cellular.HandoverEvent{
			mkHO(cellular.HOMNBH, "a", "b", 0),
			mkHO(cellular.HOMNBH, "b", "a", time.Second),
			mkHO(cellular.HOMNBH, "a", "b", 2*time.Second),
			mkHO(cellular.HOMNBH, "b", "a", 3*time.Second),
		}, 3},
		{"targetless release breaks the chain", []cellular.HandoverEvent{
			mkHO(cellular.HOMNBH, "a", "b", 0),
			mkHO(cellular.HOSCGR, "b", "", time.Second),
			mkHO(cellular.HOMNBH, "b", "a", 2*time.Second),
		}, 1},
		{"same-cell event ignored", []cellular.HandoverEvent{
			mkHO(cellular.HOMNBH, "a", "b", 0),
			mkHO(cellular.HOSCGM, "b", "b", time.Second),
			mkHO(cellular.HOMNBH, "b", "a", 2*time.Second),
		}, 1},
	}
	for _, c := range cases {
		if got := PingPongs(c.hos, w); got != c.want {
			t.Errorf("%s: PingPongs = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestInterruption(t *testing.T) {
	hos := []cellular.HandoverEvent{
		// Interrupts both planes: counted.
		{Type: cellular.HOMNBH, T2: 100 * time.Millisecond},
		// NR-only interruption: counted.
		{Type: cellular.HOSCGC, T2: 50 * time.Millisecond},
		// No interruption: skipped.
		{Type: cellular.HONone, T2: time.Second},
	}
	s := Interruption(hos)
	if s.Count != 2 {
		t.Fatalf("count = %d, want 2", s.Count)
	}
	if s.TotalMS != 150 || s.MeanMS != 75 || s.MaxMS != 100 {
		t.Errorf("stats = %+v", s)
	}
	if z := Interruption(nil); z != (InterruptionStats{}) {
		t.Errorf("empty stats = %+v", z)
	}
}

func TestQoESummary(t *testing.T) {
	samples := []trace.Sample{
		{TputMbps: 100}, {TputMbps: 0.5}, {TputMbps: 19.5}, {TputMbps: 0},
	}
	mean, stall := QoESummary(samples, 0)
	if mean != 30 {
		t.Errorf("mean = %v, want 30", mean)
	}
	if stall != 0.5 {
		t.Errorf("stall fraction = %v, want 0.5", stall)
	}
	// A custom stall floor sweeps more samples in.
	_, stall = QoESummary(samples, 25)
	if stall != 0.75 {
		t.Errorf("custom-floor stall fraction = %v, want 0.75", stall)
	}
	mean, stall = QoESummary(nil, 0)
	if mean != 0 || stall != 0 {
		t.Errorf("empty summary = %v/%v", mean, stall)
	}
}
