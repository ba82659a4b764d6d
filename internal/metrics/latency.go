package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is a concurrency-safe, log-bucketed latency histogram: the
// recording side of the fleet load generator and of any other path that
// needs tail percentiles without keeping every observation. Buckets follow
// the classic log-linear scheme (8 linear sub-buckets per power-of-two
// octave of nanoseconds), bounding the relative quantile error at 12.5%
// while keeping the whole structure a fixed 4 KiB of atomic counters —
// Observe is lock-free and allocation-free, so a thousand UEs can record
// into one Histogram concurrently.
//
// The zero value is ready to use.
type Histogram struct {
	count   atomic.Int64
	sumNS   atomic.Int64
	maxNS   atomic.Int64
	minNS   atomic.Int64 // stored as -min so zero value means "unset"
	buckets [histBuckets]atomic.Int64
}

const (
	// histSubBits fixes 2^histSubBits linear sub-buckets per octave.
	histSubBits    = 3
	histSubBuckets = 1 << histSubBits
	// histBuckets covers every int64 nanosecond value under the log-linear
	// index (maximum index is 495 for durations near 2^63 ns).
	histBuckets = 512
)

// bucketIndex maps a non-negative nanosecond value to its bucket.
func bucketIndex(ns int64) int {
	v := uint64(ns)
	if v < histSubBuckets {
		return int(v)
	}
	exp := bits.Len64(v) - 1 - histSubBits
	return (exp+1)<<histSubBits + int((v>>uint(exp))&(histSubBuckets-1))
}

// bucketUpperNS returns the inclusive upper bound of a bucket, i.e. the
// conservative value quantile lookups report for observations in it.
func bucketUpperNS(idx int) int64 {
	if idx < histSubBuckets {
		return int64(idx)
	}
	exp := uint(idx>>histSubBits - 1)
	lower := int64(histSubBuckets+idx&(histSubBuckets-1)) << exp
	return lower + int64(1)<<exp - 1
}

// Observe records one latency measurement. Negative durations clamp to 0.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketIndex(ns)].Add(1)
	h.count.Add(1)
	h.sumNS.Add(ns)
	for {
		cur := h.maxNS.Load()
		if ns <= cur || h.maxNS.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := h.minNS.Load()
		if (cur != 0 && -ns <= cur) || h.minNS.CompareAndSwap(cur, -ns-1) {
			break
		}
	}
}

// Quantile returns the q-quantile (0 < q <= 1) as a duration: the upper
// bound of the bucket holding the ceil(q*count)-th observation, clamped to
// the exact maximum. It returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	max := h.maxNS.Load()
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= target {
			if up := bucketUpperNS(i); up < max {
				return time.Duration(up)
			}
			break
		}
	}
	return time.Duration(max)
}

// Max returns the largest observation (exact, not bucketed).
func (h *Histogram) Max() time.Duration { return time.Duration(h.maxNS.Load()) }

// Min returns the smallest observation (exact); 0 when empty.
func (h *Histogram) Min() time.Duration {
	v := h.minNS.Load()
	if v == 0 {
		return 0
	}
	return time.Duration(-v - 1)
}

// LatencyBucket is one non-empty histogram bucket in a snapshot.
type LatencyBucket struct {
	// UpperUS is the bucket's inclusive upper bound in microseconds.
	UpperUS float64 `json:"upper_us"`
	// Count is the number of observations that landed in the bucket.
	Count int64 `json:"count"`
}

// LatencySnapshot is the JSON shape of a Histogram export: the summary
// quantiles the paper-style latency tables need plus the full non-empty
// bucket list for re-analysis. All durations are microseconds.
type LatencySnapshot struct {
	// Count is the number of observations; all other fields are zero when
	// it is.
	Count int64 `json:"count"`
	// MeanUS is the exact arithmetic mean (from a running sum, not the
	// buckets); SumUS the exact running sum itself (what a Prometheus
	// histogram exposes as _sum).
	MeanUS float64 `json:"mean_us"`
	SumUS  float64 `json:"sum_us,omitempty"`
	// MinUS and MaxUS are the exact extremes.
	MinUS float64 `json:"min_us"`
	MaxUS float64 `json:"max_us"`
	// P50US..P999US are bucketed quantiles: upper bounds with at most
	// 12.5% relative error.
	P50US  float64 `json:"p50_us"`
	P90US  float64 `json:"p90_us"`
	P99US  float64 `json:"p99_us"`
	P999US float64 `json:"p999_us"`
	// Buckets lists the non-empty buckets in ascending order.
	Buckets []LatencyBucket `json:"buckets,omitempty"`
}

// usOf converts nanoseconds to float microseconds.
func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Snapshot exports the histogram. Concurrent Observes may land between
// counter reads; the snapshot is consistent enough for reporting.
func (h *Histogram) Snapshot() LatencySnapshot {
	n := h.count.Load()
	if n == 0 {
		return LatencySnapshot{}
	}
	snap := LatencySnapshot{
		Count:  n,
		MeanUS: usOf(time.Duration(h.sumNS.Load() / n)),
		SumUS:  usOf(time.Duration(h.sumNS.Load())),
		MinUS:  usOf(h.Min()),
		MaxUS:  usOf(h.Max()),
		P50US:  usOf(h.Quantile(0.50)),
		P90US:  usOf(h.Quantile(0.90)),
		P99US:  usOf(h.Quantile(0.99)),
		P999US: usOf(h.Quantile(0.999)),
	}
	for i := range h.buckets {
		if c := h.buckets[i].Load(); c > 0 {
			snap.Buckets = append(snap.Buckets, LatencyBucket{UpperUS: usOf(time.Duration(bucketUpperNS(i))), Count: c})
		}
	}
	return snap
}
