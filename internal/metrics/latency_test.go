package metrics

import (
	"encoding/json"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketsCoverInt64(t *testing.T) {
	// Indices must be monotone in the value, in range, and the bucket's
	// bounds must bracket every probed value.
	last := -1
	for _, ns := range []int64{0, 1, 7, 8, 9, 15, 16, 100, 1023, 1024, 1 << 20, 1 << 40, 1<<62 + 12345} {
		idx := bucketIndex(ns)
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", ns, idx)
		}
		if idx < last {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", ns, idx, last)
		}
		last = idx
		if up := bucketUpperNS(idx); up < ns {
			t.Errorf("bucketUpperNS(%d) = %d < value %d", idx, up, ns)
		}
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(1))
	// Uniform sample over 0..100ms.
	for i := 0; i < 20000; i++ {
		h.Observe(time.Duration(rng.Float64() * 1e5 * float64(time.Microsecond)))
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got := float64(h.Quantile(q)) / float64(time.Microsecond)
		want := q * 1e5 // quantile of U(0, 100ms)
		if got < want*0.95 || got > want*1.2 {
			t.Errorf("q%.3f = %.0fµs, want ≈%.0fµs (±bucket width)", q, got, want)
		}
	}
	if h.Max() < h.Quantile(0.999) {
		t.Errorf("max %v below p999 %v", h.Max(), h.Quantile(0.999))
	}
}

func TestHistogramExactStats(t *testing.T) {
	var h Histogram
	for _, ms := range []int64{5, 1, 9, 3} {
		h.Observe(time.Duration(ms) * time.Millisecond)
	}
	snap := h.Snapshot()
	if snap.Count != 4 {
		t.Fatalf("count %d", snap.Count)
	}
	if h.Min() != time.Millisecond || h.Max() != 9*time.Millisecond {
		t.Errorf("min/max %v/%v", h.Min(), h.Max())
	}
	if snap.MeanUS != 4500 {
		t.Errorf("mean %vµs, want 4500", snap.MeanUS)
	}
	if len(snap.Buckets) == 0 {
		t.Error("snapshot lost the bucket dump")
	}
	var total int64
	for _, b := range snap.Buckets {
		total += b.Count
	}
	if total != 4 {
		t.Errorf("bucket counts sum to %d", total)
	}
}

func TestHistogramEmptySnapshot(t *testing.T) {
	var h Histogram
	snap := h.Snapshot()
	if snap.Count != 0 || snap.MaxUS != 0 || len(snap.Buckets) != 0 {
		t.Errorf("empty snapshot %+v", snap)
	}
	if h.Quantile(0.99) != 0 {
		t.Errorf("quantile of empty histogram %v", h.Quantile(0.99))
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const workers, per = 16, 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w*per+i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if n := h.Snapshot().Count; n != workers*per {
		t.Fatalf("count %d, want %d", n, workers*per)
	}
	if h.Min() != 0 || h.Max() != time.Duration(workers*per-1)*time.Microsecond {
		t.Errorf("min/max %v/%v", h.Min(), h.Max())
	}
}

func TestLatencySnapshotJSONRoundTrip(t *testing.T) {
	var h Histogram
	h.Observe(3 * time.Millisecond)
	h.Observe(7 * time.Millisecond)
	b, err := json.Marshal(h.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back LatencySnapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Count != 2 || back.P50US == 0 || back.P999US == 0 {
		t.Errorf("round-tripped snapshot %+v", back)
	}
}
