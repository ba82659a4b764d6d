package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// rank returns the 1-based nearest rank of the q-quantile of n samples.
func rank(n int, q float64) int {
	return max(1, min(n, int(math.Ceil(q*float64(n)))))
}

// tailSupported reports whether the q-quantile of n samples has at least
// minBeyond samples ranked above it.
func tailSupported(n int, q float64) bool {
	return n > 0 && n-rank(n, q) >= minBeyond
}

// quantile returns the nearest-rank q-quantile of sorted.
func quantile[T uint32 | int64](sorted []T, q float64) T {
	return sorted[rank(len(sorted), q)-1]
}

// nsOf stores a latency in 32 bits of nanoseconds, saturating at 4.29 s,
// far beyond any percentile the benchmark reports.
func nsOf(d time.Duration) uint32 {
	return uint32(min(max(d, 0), math.MaxUint32))
}

// latency is a latency summary in milliseconds over n samples.
type latency struct {
	n        int
	p50, p99 float64
}

// summarize sorts ns in place and returns its median and p99. The p99 is
// only reported when at least minBeyond samples lie beyond it.
func summarize[T uint32 | int64](ns []T) (latency, error) {
	if !tailSupported(len(ns), 0.99) {
		return latency{}, fmt.Errorf("%d latency samples cannot support a p99 (need %d beyond it)", len(ns), minBeyond)
	}
	slices.Sort(ns)
	return latency{
		n:   len(ns),
		p50: ms(time.Duration(quantile(ns, 0.50))),
		p99: ms(time.Duration(quantile(ns, 0.99))),
	}, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// rssPeakMB is the process's peak resident set size.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeSample is a reading of the Go runtime counters.
type runtimeSample struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
	heapLive        uint64
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/live:bytes",
}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	f := func(i int) float64 {
		if ss[i].Value.Kind() == metrics.KindFloat64 {
			return ss[i].Value.Float64()
		}
		return 0
	}
	u := func(i int) uint64 {
		if ss[i].Value.Kind() == metrics.KindUint64 {
			return ss[i].Value.Uint64()
		}
		return 0
	}
	return runtimeSample{gcCPU: f(0), totalCPU: f(1), allocBytes: u(2), heapLive: u(3)}
}

// runtimeDelta accumulates the runtime counters over several intervals.
type runtimeDelta struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
	heapLive        uint64 // at the end of the last interval
}

func (d *runtimeDelta) add(a, b runtimeSample) {
	d.gcCPU += b.gcCPU - a.gcCPU
	d.totalCPU += b.totalCPU - a.totalCPU
	d.allocBytes += b.allocBytes - a.allocBytes
	d.heapLive = b.heapLive
}

// mallocs counts heap allocations so far; it stops the world, so callers
// use it only around untimed passes.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}
