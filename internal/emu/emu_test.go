package emu

import (
	"testing"
	"testing/quick"
	"time"
)

func TestNewBandwidthTraceValidation(t *testing.T) {
	if _, err := NewBandwidthTrace(nil, time.Second); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := NewBandwidthTrace([]float64{10, -1}, time.Second); err == nil {
		t.Error("negative bandwidth accepted")
	}
	tr, err := NewBandwidthTrace([]float64{10}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Interval != 100*time.Millisecond {
		t.Errorf("default interval = %v", tr.Interval)
	}
}

func TestTraceLooping(t *testing.T) {
	tr, _ := NewBandwidthTrace([]float64{1, 2, 3}, 100*time.Millisecond)
	if tr.At(0) != 1 || tr.At(150*time.Millisecond) != 2 || tr.At(250*time.Millisecond) != 3 {
		t.Error("indexing")
	}
	if tr.At(300*time.Millisecond) != 1 {
		t.Error("must loop")
	}
	if tr.Duration() != 300*time.Millisecond {
		t.Errorf("Duration = %v", tr.Duration())
	}
	if tr.Mean() != 2 || tr.Min() != 1 {
		t.Error("Mean/Min")
	}
}

func TestDownloadExactCapacity(t *testing.T) {
	// 80 Mbps constant → 10 MB takes 1 s (plus RTT).
	tr, _ := NewBandwidthTrace([]float64{80}, 100*time.Millisecond)
	link := NewLink(tr, 40*time.Millisecond)
	d := link.Download(10e6)
	want := time.Second + 40*time.Millisecond
	if diff := d - want; diff < -5*time.Millisecond || diff > 5*time.Millisecond {
		t.Errorf("download took %v, want ≈%v", d, want)
	}
}

func TestDownloadThroughCapacityDrop(t *testing.T) {
	// 100 Mbps for 1 s, then 10 Mbps: a transfer needing 1.5 s at full rate
	// slows down sharply.
	mbps := make([]float64, 20)
	for i := range mbps {
		if i < 10 {
			mbps[i] = 100
		} else {
			mbps[i] = 10
		}
	}
	tr, _ := NewBandwidthTrace(mbps, 100*time.Millisecond)
	link := NewLink(tr, 0)
	// 15 MB = 120 Mbit: 100 Mbit in the first second, 10 Mbit during the
	// slow second, and the last 10 Mbit after the trace loops back to
	// 100 Mbps → ≈2.1 s total.
	d := link.Download(15e6)
	if d < 2000*time.Millisecond || d > 2300*time.Millisecond {
		t.Errorf("download took %v, want ≈2.1 s", d)
	}
}

func TestDownloadSurvivesOutage(t *testing.T) {
	tr, _ := NewBandwidthTrace([]float64{50, 0, 0, 50}, 100*time.Millisecond)
	link := NewLink(tr, 0)
	d := link.Download(1e6) // 1 MB needs 160 ms of 50 Mbps
	if d <= 0 {
		t.Fatal("no progress through outage")
	}
	// The 200 ms outage must appear in the duration.
	if d < 250*time.Millisecond {
		t.Errorf("outage not reflected: %v", d)
	}
}

// TestDownloadConservation: transferred bytes per unit time never exceed
// the trace's max capacity.
func TestDownloadConservation(t *testing.T) {
	f := func(sizeKB uint16, capMbps uint8) bool {
		size := float64(sizeKB%2000+1) * 1024
		capa := float64(capMbps%200 + 1)
		tr, err := NewBandwidthTrace([]float64{capa}, 100*time.Millisecond)
		if err != nil {
			return false
		}
		link := NewLink(tr, 0)
		d := link.Download(size)
		if d <= 0 {
			return false
		}
		rate := size * 8 / 1e6 / d.Seconds()
		return rate <= capa*1.02
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestIdleAndSeek(t *testing.T) {
	tr, _ := NewBandwidthTrace([]float64{10}, 100*time.Millisecond)
	link := NewLink(tr, 0)
	link.Idle(2 * time.Second)
	if link.Now() != 2*time.Second {
		t.Errorf("Now = %v", link.Now())
	}
	link.Idle(-time.Second) // negative idles are ignored
	if link.Now() != 2*time.Second {
		t.Error("negative idle changed the clock")
	}
	link.Seek(0)
	if link.Now() != 0 {
		t.Error("seek")
	}
}
