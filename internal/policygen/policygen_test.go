package policygen

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/cellular"
)

// TestBuiltinsValidate: the three named-carrier portfolios and the
// unknown-carrier fallback all pass their own validator.
func TestBuiltinsValidate(t *testing.T) {
	for _, p := range []Portfolio{OpX(), OpY(), OpZ()} {
		if err := p.Validate(); err != nil {
			t.Errorf("builtin %s: %v", p.Name, err)
		}
	}
	fb := BuiltinOrDefault("NoSuchCarrier")
	if fb.Name != "NoSuchCarrier" {
		t.Fatalf("fallback name = %q", fb.Name)
	}
	if err := fb.Validate(); err != nil {
		t.Errorf("fallback: %v", err)
	}
	if got := fb.SequenceString(); got != "A3" {
		t.Errorf("fallback sequence = %q, want the historical bare A3", got)
	}
}

// TestGeneratedPortfoliosValid is the core property test: every sampled
// portfolio is self-consistent — validator-clean (A5 Φ1 ≤ Φ2, TTT and
// hysteresis inside 3GPP ranges, sequence references configured events)
// and carrying at least one inter-RAT event whenever NSA is offered.
func TestGeneratedPortfoliosValid(t *testing.T) {
	const n = 500
	for _, seed := range []int64{1, 7, 424242} {
		for i := 0; i < n; i++ {
			p := Generate(seed, i)
			if err := p.Validate(); err != nil {
				t.Fatalf("seed %d carrier %d: %v", seed, i, err)
			}
			if !p.Has(cellular.ArchNSA) {
				t.Fatalf("seed %d carrier %d: generated portfolio without NSA", seed, i)
			}
			for _, c := range append(append([]cellular.EventConfig{}, p.LTEEvents...), p.NREvents...) {
				if c.Type == cellular.EventA5 && c.Threshold1 > c.Threshold2 {
					t.Fatalf("seed %d carrier %d: A5 Φ1 %.1f > Φ2 %.1f", seed, i, c.Threshold1, c.Threshold2)
				}
				if !ValidTTT(c.TTT) {
					t.Fatalf("seed %d carrier %d: TTT %v not in 3GPP set", seed, i, c.TTT)
				}
			}
			if err := (&Scenario{Base: p, Drifts: []Drift{{At: 5 * time.Minute, Portfolio: Drifted(seed, i)}}}).Validate(); err != nil {
				t.Fatalf("seed %d carrier %d: drift scenario: %v", seed, i, err)
			}
		}
	}
}

// TestGenerateDeterministic: sampling is a pure function of (seed, index) —
// identical across repeated calls, generation order, and concurrent
// workers (the property `vivisect sweep -jobs N` byte-identity rests on).
func TestGenerateDeterministic(t *testing.T) {
	const n = 64
	want := make([]Portfolio, n)
	for i := range want {
		want[i] = Generate(9, i)
	}
	// Reverse order.
	for i := n - 1; i >= 0; i-- {
		if got := Generate(9, i); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("carrier %d differs when generated in reverse order", i)
		}
	}
	// Concurrently, as the sweep worker pool would.
	var wg sync.WaitGroup
	errs := make(chan int, n)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 8 {
				if !reflect.DeepEqual(Generate(9, i), want[i]) {
					errs <- i
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for i := range errs {
		t.Errorf("carrier %d differs under concurrent generation", i)
	}
	// Different seeds produce different populations.
	if reflect.DeepEqual(Generate(9, 0), Generate(10, 0)) {
		t.Error("seeds 9 and 10 generated identical carrier 0")
	}
}

// TestDriftedChangesPolicyKeepsIdentity: a drift rewrite redraws policy
// parameters but never the carrier's identity or deployed network.
func TestDriftedChangesPolicyKeepsIdentity(t *testing.T) {
	changed := 0
	const n = 100
	for i := 0; i < n; i++ {
		base := Generate(3, i)
		drift := Drifted(3, i)
		if drift.Name != base.Name {
			t.Fatalf("carrier %d: drift renamed %q -> %q", i, base.Name, drift.Name)
		}
		if !reflect.DeepEqual(drift.Deployment, base.Deployment) {
			t.Fatalf("carrier %d: drift rebuilt the deployment", i)
		}
		if !reflect.DeepEqual(drift.Archs, base.Archs) {
			t.Fatalf("carrier %d: drift changed offered architectures", i)
		}
		if err := drift.Validate(); err != nil {
			t.Fatalf("carrier %d: drifted portfolio invalid: %v", i, err)
		}
		if !reflect.DeepEqual(drift.LTEEvents, base.LTEEvents) || !reflect.DeepEqual(drift.NREvents, base.NREvents) {
			changed++
		}
	}
	// Thresholds are drawn from continuous ranges, so effectively every
	// drift should actually change the active configuration.
	if changed < n*9/10 {
		t.Errorf("only %d/%d drifts changed the policy", changed, n)
	}
}

// TestScenarioValidate: a scenario with a later drift validates, and
// out-of-order rewrites are rejected.
func TestScenarioValidate(t *testing.T) {
	base := Generate(1, 0)
	d1 := Drifted(1, 0)
	s := &Scenario{Base: base, Drifts: []Drift{{At: 2 * time.Minute, Portfolio: d1}}}
	if err := s.Validate(); err != nil {
		t.Fatalf("scenario: %v", err)
	}
	bad := &Scenario{Base: base, Drifts: []Drift{
		{At: 2 * time.Minute, Portfolio: d1},
		{At: time.Minute, Portfolio: d1},
	}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-order drifts validated")
	}
}

// TestValidateRejects: the validator actually bites on each class of
// inconsistency the generator must never produce.
func TestValidateRejects(t *testing.T) {
	mk := func(mut func(*Portfolio)) error {
		p := OpZ()
		mut(&p)
		return p.Validate()
	}
	cases := []struct {
		name string
		mut  func(*Portfolio)
	}{
		{"A5 thresholds inverted", func(p *Portfolio) { p.LTEEvents[1].Threshold1, p.LTEEvents[1].Threshold2 = -90, -101 }},
		{"non-3GPP TTT", func(p *Portfolio) { p.LTEEvents[0].TTT = 123 * time.Millisecond }},
		{"negative hysteresis", func(p *Portfolio) { p.LTEEvents[0].Hysteresis = -1 }},
		{"implausible threshold", func(p *Portfolio) { p.LTEEvents[0].Threshold1 = -10 }},
		{"sequence references unconfigured event", func(p *Portfolio) { p.LTESequence = []string{"A4"} }},
		{"NSA without inter-RAT event", func(p *Portfolio) { p.NREvents = p.NREvents[1:] }},
		{"empty sequence", func(p *Portfolio) { p.LTESequence = nil }},
	}
	for _, c := range cases {
		if err := mk(c.mut); err == nil {
			t.Errorf("%s: Validate accepted it", c.name)
		}
	}
}
