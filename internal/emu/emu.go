// Package emu is a trace-driven link emulator in the spirit of Mahimahi's
// record-and-replay shells (§7.4): a recorded bandwidth series dictates the
// per-millisecond byte budget of the emulated downlink, and chunk downloads
// consume that budget with a fixed one-way delay. The ABR evaluations
// replay the paper's 240 s bandwidth traces through it.
package emu

import (
	"fmt"
	"time"
)

// BandwidthTrace is a downlink capacity series sampled at a fixed interval.
type BandwidthTrace struct {
	// Mbps holds one capacity sample per interval.
	Mbps []float64
	// Interval is the sample spacing (default 100 ms).
	Interval time.Duration
}

// NewBandwidthTrace validates and wraps a capacity series.
func NewBandwidthTrace(mbps []float64, interval time.Duration) (*BandwidthTrace, error) {
	if len(mbps) == 0 {
		return nil, fmt.Errorf("emu: empty bandwidth trace")
	}
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	for i, v := range mbps {
		if v < 0 {
			return nil, fmt.Errorf("emu: negative bandwidth %f at index %d", v, i)
		}
	}
	return &BandwidthTrace{Mbps: mbps, Interval: interval}, nil
}

// Duration returns the trace length.
func (t *BandwidthTrace) Duration() time.Duration {
	return time.Duration(len(t.Mbps)) * t.Interval
}

// At returns the capacity at the given offset; the trace loops when the
// offset runs past its end (Mahimahi's replay semantics).
func (t *BandwidthTrace) At(offset time.Duration) float64 {
	idx := int(offset/t.Interval) % len(t.Mbps)
	if idx < 0 {
		idx += len(t.Mbps)
	}
	return t.Mbps[idx]
}

// Mean returns the average capacity in Mbps.
func (t *BandwidthTrace) Mean() float64 {
	s := 0.0
	for _, v := range t.Mbps {
		s += v
	}
	return s / float64(len(t.Mbps))
}

// Min returns the minimum capacity in Mbps.
func (t *BandwidthTrace) Min() float64 {
	m := t.Mbps[0]
	for _, v := range t.Mbps[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Link is the emulated downlink: sequential chunk downloads over the traced
// capacity with a fixed RTT.
type Link struct {
	trace *BandwidthTrace
	// RTT is the round-trip time added per transfer (request + first byte).
	RTT time.Duration
	// now is the link-local clock.
	now time.Duration
}

// NewLink creates a link at trace offset zero.
func NewLink(trace *BandwidthTrace, rtt time.Duration) *Link {
	return &Link{trace: trace, RTT: rtt}
}

// Now returns the link-local clock.
func (l *Link) Now() time.Duration { return l.now }

// Seek moves the link-local clock (e.g. to align with a player timeline).
func (l *Link) Seek(t time.Duration) { l.now = t }

// Download transfers size bytes and returns the transfer duration,
// advancing the clock. The transfer consumes the traced per-interval byte
// budget step by step, so capacity drops mid-transfer lengthen it exactly
// as a real bottleneck link would.
func (l *Link) Download(sizeBytes float64) time.Duration {
	start := l.now
	l.now += l.RTT
	remaining := sizeBytes
	const step = time.Millisecond
	for remaining > 0 {
		mbps := l.trace.At(l.now)
		bytesPerStep := mbps * 1e6 / 8 * step.Seconds()
		if bytesPerStep <= 0 {
			// Outage: wait for capacity.
			l.now += step
			continue
		}
		if bytesPerStep >= remaining {
			frac := remaining / bytesPerStep
			l.now += time.Duration(float64(step) * frac)
			remaining = 0
			break
		}
		remaining -= bytesPerStep
		l.now += step
	}
	return l.now - start
}

// Idle advances the clock without transferring (player waiting on buffer).
func (l *Link) Idle(d time.Duration) {
	if d > 0 {
		l.now += d
	}
}
