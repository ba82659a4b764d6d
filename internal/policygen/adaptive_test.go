package policygen

import (
	"testing"
	"time"
)

func TestDefaultAdaptiveSpecValid(t *testing.T) {
	s := DefaultAdaptiveSpec()
	if err := s.Validate(); err != nil {
		t.Fatalf("default spec invalid: %v", err)
	}
	if !s.Enabled() {
		t.Fatal("default spec disabled")
	}
	// The default tighten stance is neutral by design (ablations showed an
	// aggressive tighten adds ping-pongs); pin it so a retune is deliberate.
	if s.TightenTTTScale != 1 || s.TightenHysteresisDB != 0 {
		t.Errorf("default tighten stance not neutral: scale=%v delta=%v",
			s.TightenTTTScale, s.TightenHysteresisDB)
	}
}

func TestAdaptiveSpecEnabled(t *testing.T) {
	var nilSpec *AdaptiveSpec
	if nilSpec.Enabled() {
		t.Error("nil spec enabled")
	}
	off := AdaptiveSpec{}
	if off.Enabled() {
		t.Error("zero spec enabled")
	}
	one := AdaptiveSpec{SkipAhead: true}
	if !one.Enabled() {
		t.Error("single-control spec disabled")
	}
}

func TestAdaptiveSpecValidateRejects(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*AdaptiveSpec)
	}{
		{"confidence above 1", func(s *AdaptiveSpec) { s.MinConfidence = 1.5 }},
		{"negative prep cap", func(s *AdaptiveSpec) { s.PrepCapS = -1 }},
		{"exec credit above 0.8", func(s *AdaptiveSpec) { s.ExecCredit = 0.9 }},
		{"relax scale below 1", func(s *AdaptiveSpec) { s.RelaxTTTScale = 0.9 }},
		{"relax hysteresis above max", func(s *AdaptiveSpec) { s.RelaxHysteresisDB = MaxHysteresisDB + 1 }},
		{"tighten scale zero", func(s *AdaptiveSpec) { s.TightenTTTScale = 0 }},
		{"tighten scale above 1", func(s *AdaptiveSpec) { s.TightenTTTScale = 1.2 }},
		{"negative calm window", func(s *AdaptiveSpec) { s.CalmAfterS = -5 }},
	}
	for _, m := range mutations {
		s := DefaultAdaptiveSpec()
		m.mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the spec", m.name)
		}
	}
}

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
