package policygen

import (
	"testing"
	"time"
)

func TestQuantizeTTT(t *testing.T) {
	cases := []struct {
		in, want time.Duration
	}{
		{0, 0},
		{-time.Second, 0},
		{39 * time.Millisecond, 40 * time.Millisecond},
		{100 * time.Millisecond, 100 * time.Millisecond},
		{110 * time.Millisecond, 100 * time.Millisecond},
		{10 * time.Second, 5120 * time.Millisecond},
	}
	for _, c := range cases {
		if got := QuantizeTTT(c.in); got != c.want {
			t.Errorf("QuantizeTTT(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestScaleTTT pins the effectiveness guarantee: scaling up lands strictly
// above the input (until the top of the enumeration), scaling down strictly
// below (until 0), and the result is always enumerated.
func TestScaleTTT(t *testing.T) {
	for _, base := range []time.Duration{0, 40 * time.Millisecond, 160 * time.Millisecond, 1024 * time.Millisecond, 5120 * time.Millisecond} {
		up := ScaleTTT(base, 1.1)
		if !ValidTTT(up) {
			t.Errorf("ScaleTTT(%v, 1.1) = %v not enumerated", base, up)
		}
		if base != 5120*time.Millisecond && up <= base {
			t.Errorf("ScaleTTT(%v, 1.1) = %v did not grow", base, up)
		}
		down := ScaleTTT(base, 0.9)
		if !ValidTTT(down) {
			t.Errorf("ScaleTTT(%v, 0.9) = %v not enumerated", base, down)
		}
		if base != 0 && down >= base {
			t.Errorf("ScaleTTT(%v, 0.9) = %v did not shrink", base, down)
		}
		if got := ScaleTTT(base, 1); got != base {
			t.Errorf("ScaleTTT(%v, 1) = %v changed the input", base, got)
		}
	}
}
