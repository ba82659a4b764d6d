package ran

import (
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/policygen"
)

func sec(n float64) time.Duration { return time.Duration(n * float64(time.Second)) }

// ho builds a cell-changing handover event for controller feeding.
func ho(typ cellular.HOType, src, dst string, at time.Duration) cellular.HandoverEvent {
	return cellular.HandoverEvent{Type: typ, SourceCell: src, TargetCell: dst, Time: at}
}

func TestAdaptiveConfigEnabled(t *testing.T) {
	cases := []struct {
		name string
		cfg  *AdaptiveConfig
		want bool
	}{
		{"nil", nil, false},
		{"zero", &AdaptiveConfig{}, false},
		{"early-prep", &AdaptiveConfig{EarlyPrep: true}, true},
		{"skip-ahead", &AdaptiveConfig{SkipAhead: true}, true},
		{"adapt-ttt", &AdaptiveConfig{AdaptTTT: true}, true},
		{"default", DefaultAdaptive(), true},
	}
	for _, c := range cases {
		if got := c.cfg.Enabled(); got != c.want {
			t.Errorf("%s: Enabled() = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestForecastArmAndResolve walks the armed-forecast lifecycle: low
// confidence is ignored, a confident forecast arms once (extension is not a
// new forecast), a matching handover resolves as a hit, and an unrenewed
// forecast lapses as a miss.
func TestForecastArmAndResolve(t *testing.T) {
	a := NewAdaptiveController(*DefaultAdaptive())

	a.OnForecast(Forecast{Type: cellular.HOSCGC, Confidence: 0.1}, sec(1))
	if got := a.Stats().Forecasts; got != 0 {
		t.Fatalf("low-confidence forecast armed (%d)", got)
	}
	a.OnForecast(Forecast{Type: cellular.HONone, Confidence: 0.9}, sec(1))
	if got := a.Stats().Forecasts; got != 0 {
		t.Fatalf("HONone forecast armed (%d)", got)
	}

	a.OnForecast(Forecast{Type: cellular.HOSCGC, Confidence: 0.9, Lead: sec(1)}, sec(2))
	a.OnForecast(Forecast{Type: cellular.HOSCGC, Confidence: 0.9, Lead: sec(1)}, sec(2.05))
	if got := a.Stats().Forecasts; got != 1 {
		t.Fatalf("extension re-armed: %d forecasts, want 1", got)
	}
	a.OnHandover(ho(cellular.HOSCGC, "nr1", "nr2", sec(2.5)), sec(2.5))
	s := a.Stats()
	if s.Hits != 1 || s.Misses != 0 {
		t.Fatalf("matching handover: hits=%d misses=%d, want 1/0", s.Hits, s.Misses)
	}

	// Arm again, then let it lapse: the next forecast call past armedUntil
	// resolves it as a miss.
	a.OnForecast(Forecast{Type: cellular.HOSCGC, Confidence: 0.9, Lead: sec(1)}, sec(10))
	a.OnForecast(Forecast{Type: cellular.HONone, Confidence: 0}, sec(20))
	s = a.Stats()
	if s.Misses != 1 {
		t.Fatalf("lapsed forecast: misses=%d, want 1", s.Misses)
	}

	// A type flip without a handover is also a miss, and re-arms.
	a.OnForecast(Forecast{Type: cellular.HOSCGC, Confidence: 0.9, Lead: sec(1)}, sec(30))
	a.OnForecast(Forecast{Type: cellular.HOMNBH, Confidence: 0.9, Lead: sec(1)}, sec(30.5))
	s = a.Stats()
	if s.Misses != 2 || s.Forecasts != 4 {
		t.Fatalf("type flip: misses=%d forecasts=%d, want 2/4", s.Misses, s.Forecasts)
	}
}

// TestApplyPrep pins the early-preparation credit rules: no credit without a
// matching armed forecast, T1 keeps its 20% floor, T2 credit ramps to
// ExecCredit, and the savings are tallied.
func TestApplyPrep(t *testing.T) {
	a := NewAdaptiveController(*DefaultAdaptive())
	t1, t2 := 100*time.Millisecond, 50*time.Millisecond

	// Not armed: unchanged.
	g1, g2 := a.ApplyPrep(cellular.HOSCGC, sec(1), t1, t2)
	if g1 != t1 || g2 != t2 {
		t.Fatalf("unarmed prep changed durations: %v %v", g1, g2)
	}

	// Armed with the wrong type: unchanged.
	a.OnForecast(Forecast{Type: cellular.HOMNBH, Confidence: 0.9, Lead: sec(5)}, sec(1))
	g1, g2 = a.ApplyPrep(cellular.HOSCGC, sec(2), t1, t2)
	if g1 != t1 || g2 != t2 {
		t.Fatalf("type-mismatched prep changed durations: %v %v", g1, g2)
	}

	// Armed long enough for full credit: T1 at its floor, T2 at ExecCredit.
	a = NewAdaptiveController(*DefaultAdaptive())
	a.OnForecast(Forecast{Type: cellular.HOSCGC, Confidence: 0.9, Lead: sec(5)}, sec(1))
	g1, g2 = a.ApplyPrep(cellular.HOSCGC, sec(3), t1, t2)
	if want := t1 / 5; g1 != want {
		t.Errorf("T1 floor: got %v, want %v", g1, want)
	}
	if want := t2 - time.Duration(float64(t2)*0.4); g2 != want {
		t.Errorf("T2 credit: got %v, want %v", g2, want)
	}
	s := a.Stats()
	if s.EarlyPreps != 1 || s.PrepSavedMS <= 0 {
		t.Errorf("prep stats: %+v", s)
	}

	// EarlyPrep disabled: never credited.
	cfg := *DefaultAdaptive()
	cfg.EarlyPrep = false
	a = NewAdaptiveController(cfg)
	a.OnForecast(Forecast{Type: cellular.HOSCGC, Confidence: 0.9, Lead: sec(5)}, sec(1))
	g1, g2 = a.ApplyPrep(cellular.HOSCGC, sec(3), t1, t2)
	if g1 != t1 || g2 != t2 {
		t.Errorf("disabled prep changed durations: %v %v", g1, g2)
	}
}

// TestSkipAheadActive pins the skip-ahead gate: only armed SCG-mobility
// forecasts activate it, and only with the control enabled.
func TestSkipAheadActive(t *testing.T) {
	cases := []struct {
		typ  cellular.HOType
		want bool
	}{
		{cellular.HOSCGA, true},
		{cellular.HOSCGC, true},
		{cellular.HOSCGM, true},
		{cellular.HOMNBH, false},
		{cellular.HOLTEH, false},
	}
	for _, c := range cases {
		a := NewAdaptiveController(*DefaultAdaptive())
		a.OnForecast(Forecast{Type: c.typ, Confidence: 0.9, Lead: sec(5)}, sec(1))
		if got := a.SkipAheadActive(); got != c.want {
			t.Errorf("%s: SkipAheadActive = %v, want %v", c.typ, got, c.want)
		}
	}
	cfg := *DefaultAdaptive()
	cfg.SkipAhead = false
	a := NewAdaptiveController(cfg)
	a.OnForecast(Forecast{Type: cellular.HOSCGC, Confidence: 0.9, Lead: sec(5)}, sec(1))
	if a.SkipAheadActive() {
		t.Error("disabled skip-ahead reported active")
	}
}

// TestStanceMachine drives the relax/calm cycle: a ping-pong relaxes the
// stance (rate-limited), repeated ping-pong saturates at maxRelaxStance, and
// a calm period unwinds one step at a time.
func TestStanceMachine(t *testing.T) {
	cfg := *DefaultAdaptive()
	a := NewAdaptiveController(cfg)

	if _, _, ok := a.ReconfigDue(sec(1)); ok {
		t.Fatal("base stance asked for a reconfig")
	}

	// A→B then B→A inside the window: ping-pong, stance relaxes.
	a.OnHandover(ho(cellular.HOMNBH, "a", "b", sec(10)), sec(10))
	a.OnHandover(ho(cellular.HOMNBH, "b", "a", sec(12)), sec(12))
	scale, delta, ok := a.ReconfigDue(sec(12))
	if !ok {
		t.Fatal("ping-pong did not trigger a relax reconfig")
	}
	if scale != cfg.RelaxTTTScale || delta != cfg.RelaxHysteresisDB {
		t.Fatalf("relax params: scale=%v delta=%v", scale, delta)
	}

	// Another ping-pong immediately: desired moves but the rate limit holds
	// the rewrite until ReconfMinGap has passed.
	a.OnHandover(ho(cellular.HOMNBH, "a", "b", sec(13)), sec(13))
	a.OnHandover(ho(cellular.HOMNBH, "b", "a", sec(13.5)), sec(13.5))
	if _, _, ok := a.ReconfigDue(sec(13.5)); ok {
		t.Fatal("reconfig applied inside ReconfMinGap")
	}
	scale, delta, ok = a.ReconfigDue(sec(16))
	if !ok {
		t.Fatal("second relax never applied")
	}
	if want := cfg.RelaxTTTScale * cfg.RelaxTTTScale; scale != want || delta != 2*cfg.RelaxHysteresisDB {
		t.Fatalf("stance-2 params: scale=%v delta=%v, want %v/%v", scale, delta, want, 2*cfg.RelaxHysteresisDB)
	}

	// A third ping-pong: saturated at maxRelaxStance, no further rewrite.
	a.OnHandover(ho(cellular.HOMNBH, "a", "b", sec(17)), sec(17))
	a.OnHandover(ho(cellular.HOMNBH, "b", "a", sec(17.5)), sec(17.5))
	if _, _, ok := a.ReconfigDue(sec(25)); ok {
		t.Fatal("stance exceeded maxRelaxStance")
	}

	// Calm: one step unwinds per CalmAfter.
	calmAt := sec(17.5) + cfg.CalmAfter + sec(1)
	scale, _, ok = a.ReconfigDue(calmAt)
	if !ok {
		t.Fatal("calm period did not unwind a relax step")
	}
	if scale != cfg.RelaxTTTScale {
		t.Fatalf("after one unwind: scale=%v, want %v", scale, cfg.RelaxTTTScale)
	}
	// Every within-window return counts as a ping-pong (the a↔b churn above
	// flips five times), and the calm unwind is tallied as a tighten step.
	s := a.Stats()
	if s.PingPongs != 5 || s.Relaxes != 2 || s.Tightens != 1 || s.FinalStance != 1 {
		t.Fatalf("stance stats: %+v", s)
	}
}

// TestTightenRequiresEffectiveSpec pins that the default (neutral) tighten
// stance is never entered, while a spec that actually tightens is — but only
// on a proven hit record.
func TestTightenRequiresEffectiveSpec(t *testing.T) {
	run := func(cfg AdaptiveConfig) *AdaptiveController {
		a := NewAdaptiveController(cfg)
		// Twelve straight hits: hitEMA climbs well above tightenAbove.
		for i := 0; i < 12; i++ {
			at := sec(float64(10 * (i + 1)))
			a.OnForecast(Forecast{Type: cellular.HOSCGC, Confidence: 0.9, Lead: sec(2)}, at)
			a.OnHandover(ho(cellular.HOSCGC, "x", "y", at+sec(1)), at+sec(1))
			// Alternate directions would ping-pong; move on distinct cells.
			a.lastValid = false
		}
		return a
	}

	a := run(*DefaultAdaptive()) // neutral tighten params
	if _, _, ok := a.ReconfigDue(sec(200)); ok {
		t.Error("neutral tighten spec entered the tighten stance")
	}

	cfg := *DefaultAdaptive()
	cfg.TightenTTTScale = 0.5
	cfg.TightenHysteresisDB = 0.5
	a = run(cfg)
	scale, delta, ok := a.ReconfigDue(sec(200))
	if !ok {
		t.Fatal("effective tighten spec never tightened on a proven record")
	}
	if scale != 0.5 || delta != -0.5 {
		t.Errorf("tighten params: scale=%v delta=%v", scale, delta)
	}
	if s := a.Stats(); s.Tightens != 1 || s.FinalStance != -1 {
		t.Errorf("tighten stats: %+v", s)
	}
}

// TestAdaptEventConfigs pins the stance-to-event-table compilation: TTTs
// scale within the 3GPP enumeration, hysteresis shifts clamp to the valid
// range, and the base table is untouched.
func TestAdaptEventConfigs(t *testing.T) {
	base := []cellular.EventConfig{
		{Type: cellular.EventA3, Hysteresis: 2, TTT: 160 * time.Millisecond},
		{Type: cellular.EventA5, Hysteresis: 14.5, TTT: 0},
	}
	out := AdaptEventConfigs(base, 2, 1)
	if base[0].TTT != 160*time.Millisecond || base[0].Hysteresis != 2 {
		t.Fatal("AdaptEventConfigs mutated the base table")
	}
	if out[0].TTT <= base[0].TTT {
		t.Errorf("relaxed TTT did not grow: %v", out[0].TTT)
	}
	if !policygen.ValidTTT(out[0].TTT) || !policygen.ValidTTT(out[1].TTT) {
		t.Errorf("scaled TTTs left the 3GPP enumeration: %v %v", out[0].TTT, out[1].TTT)
	}
	if out[0].Hysteresis != 3 {
		t.Errorf("hysteresis shift: got %v, want 3", out[0].Hysteresis)
	}
	if out[1].Hysteresis != policygen.MaxHysteresisDB {
		t.Errorf("hysteresis clamp: got %v, want %v", out[1].Hysteresis, policygen.MaxHysteresisDB)
	}
	down := AdaptEventConfigs(base, 0.5, -5)
	if down[0].TTT >= base[0].TTT {
		t.Errorf("tightened TTT did not shrink: %v", down[0].TTT)
	}
	if down[0].Hysteresis != 0 {
		t.Errorf("hysteresis floor: got %v, want 0", down[0].Hysteresis)
	}
}

// TestDefaultAdaptiveValid pins the reference config: valid, enabled and
// a neutral tighten stance.
func TestDefaultAdaptiveValid(t *testing.T) {
	cfg := DefaultAdaptive()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if !cfg.Enabled() {
		t.Fatal("default config disabled")
	}
	// The default tighten stance is neutral by design (ablations showed an
	// aggressive tighten adds ping-pongs); pin it so a retune is deliberate.
	if cfg.TightenTTTScale != 1 || cfg.TightenHysteresisDB != 0 {
		t.Errorf("default tighten stance not neutral: scale=%v delta=%v",
			cfg.TightenTTTScale, cfg.TightenHysteresisDB)
	}
}

// TestDefaultAdaptiveDurations pins the durations the holoop gate runs
// under.
func TestDefaultAdaptiveDurations(t *testing.T) {
	cfg := DefaultAdaptive()
	if cfg.PrepCap != 2*time.Second || cfg.PingPongWindow != 5*time.Second ||
		cfg.CalmAfter != 30*time.Second || cfg.ReconfMinGap != 2*time.Second {
		t.Errorf("durations: prep cap=%v window=%v calm=%v gap=%v",
			cfg.PrepCap, cfg.PingPongWindow, cfg.CalmAfter, cfg.ReconfMinGap)
	}
}

func TestAdaptiveConfigValidateRejects(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*AdaptiveConfig)
	}{
		{"confidence above 1", func(c *AdaptiveConfig) { c.MinConfidence = 1.5 }},
		{"negative prep cap", func(c *AdaptiveConfig) { c.PrepCap = -time.Second }},
		{"exec credit above 0.8", func(c *AdaptiveConfig) { c.ExecCredit = 0.9 }},
		{"relax scale below 1", func(c *AdaptiveConfig) { c.RelaxTTTScale = 0.9 }},
		{"relax hysteresis above max", func(c *AdaptiveConfig) { c.RelaxHysteresisDB = policygen.MaxHysteresisDB + 1 }},
		{"tighten scale zero", func(c *AdaptiveConfig) { c.TightenTTTScale = 0 }},
		{"tighten scale above 1", func(c *AdaptiveConfig) { c.TightenTTTScale = 1.2 }},
		{"negative calm window", func(c *AdaptiveConfig) { c.CalmAfter = -5 * time.Second }},
	}
	for _, m := range mutations {
		cfg := DefaultAdaptive()
		m.mut(cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the config", m.name)
		}
	}
}
