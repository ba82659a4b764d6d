package ran

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/cellular"
)

func TestAnchoredSubseq(t *testing.T) {
	cases := []struct {
		hist, seq []string
		want      bool
	}{
		{[]string{"A2", "A3"}, []string{"A2", "A3"}, true},
		{[]string{"A2", "B1", "A3"}, []string{"A2", "A3"}, true},
		{[]string{"A3", "A2"}, []string{"A2", "A3"}, false}, // wrong anchor
		{[]string{"A3"}, []string{"A2", "A3"}, false},       // missing prefix
		{[]string{"A2", "A3"}, []string{"A3"}, true},
		{nil, []string{"A3"}, false},
		{[]string{"A3"}, nil, false},
	}
	for _, c := range cases {
		if got := anchoredSubseq(c.hist, c.seq); got != c.want {
			t.Errorf("anchoredSubseq(%v, %v) = %v, want %v", c.hist, c.seq, got, c.want)
		}
	}
}

func TestPolicyGuards(t *testing.T) {
	p := PolicyFor("OpX", cellular.ArchNSA)
	// NR-B1 with no NR leg → SCGA.
	ho, rule := p.Decide([]string{"NR-B1"}, Context{Arch: cellular.ArchNSA, NRAttached: false})
	if ho != cellular.HOSCGA || rule == nil {
		t.Fatalf("B1/no-leg → %v", ho)
	}
	// NR-B1 while attached (without a preceding NR-A2) → nothing.
	if ho, _ := p.Decide([]string{"NR-B1"}, Context{Arch: cellular.ArchNSA, NRAttached: true}); ho != cellular.HONone {
		t.Fatalf("B1/attached → %v, want none", ho)
	}
	// NR-A2 then NR-B1 while attached → SCGC.
	if ho, _ := p.Decide([]string{"NR-A2", "NR-B1"}, Context{Arch: cellular.ArchNSA, NRAttached: true}); ho != cellular.HOSCGC {
		t.Fatalf("A2,B1/attached → %v, want SCGC", ho)
	}
	// Two NR-A2 → SCGR.
	if ho, _ := p.Decide([]string{"NR-A2", "NR-A2"}, Context{Arch: cellular.ArchNSA, NRAttached: true}); ho != cellular.HOSCGR {
		t.Fatalf("A2,A2/attached → %v, want SCGR", ho)
	}
	// NR-A3 same/diff gNB → SCGM/SCGC.
	if ho, _ := p.Decide([]string{"NR-A3"}, Context{NRAttached: true, TargetSameGNB: true}); ho != cellular.HOSCGM {
		t.Fatalf("A3 same-gNB → %v", ho)
	}
	if ho, _ := p.Decide([]string{"NR-A3"}, Context{NRAttached: true, TargetSameGNB: false}); ho != cellular.HOSCGC {
		t.Fatalf("A3 diff-gNB → %v", ho)
	}
	// LTE anchor: OpX needs A2 before A3.
	if ho, _ := p.Decide([]string{"A3"}, Context{NRAttached: true}); ho != cellular.HONone {
		t.Fatalf("lone A3 fired %v for OpX", ho)
	}
	if ho, _ := p.Decide([]string{"A2", "A3"}, Context{NRAttached: true}); ho != cellular.HOMNBH {
		t.Fatalf("A2,A3 attached → %v, want MNBH", ho)
	}
	if ho, _ := p.Decide([]string{"A2", "A3"}, Context{NRAttached: false}); ho != cellular.HOLTEH {
		t.Fatalf("A2,A3 detached → %v, want LTEH", ho)
	}
}

func TestCarrierPoliciesDiffer(t *testing.T) {
	// OpY acts on a lone A3; OpZ needs A2,A5.
	opy := PolicyFor("OpY", cellular.ArchLTE)
	if ho, _ := opy.Decide([]string{"A3"}, Context{}); ho != cellular.HOLTEH {
		t.Error("OpY must act on a lone A3")
	}
	opz := PolicyFor("OpZ", cellular.ArchLTE)
	if ho, _ := opz.Decide([]string{"A3"}, Context{}); ho != cellular.HONone {
		t.Error("OpZ must not act on A3")
	}
	if ho, _ := opz.Decide([]string{"A2", "A5"}, Context{}); ho != cellular.HOLTEH {
		t.Error("OpZ must act on A2,A5")
	}
}

func TestSAPolicy(t *testing.T) {
	p := PolicyFor("OpY", cellular.ArchSA)
	if ho, _ := p.Decide([]string{"NR-A3"}, Context{Arch: cellular.ArchSA}); ho != cellular.HOMCGH {
		t.Error("SA NR-A3 must trigger MCGH")
	}
}

func TestEngineHistoryAging(t *testing.T) {
	e := NewEngine(PolicyFor("OpX", cellular.ArchLTE))
	// A2 at t=0; A3 arrives 20 s later: the stale A2 must not pair.
	mr := func(ty cellular.EventType, at time.Duration) cellular.MeasurementReport {
		return cellular.MeasurementReport{Time: at, Event: ty, Tech: cellular.TechLTE}
	}
	if d := e.OnReport(mr(cellular.EventA2, 0), Context{}); d != nil {
		t.Fatal("A2 alone decided")
	}
	if d := e.OnReport(mr(cellular.EventA3, 20*time.Second), Context{}); d != nil {
		t.Fatalf("stale A2 paired with fresh A3: %v", d.Type)
	}
	// Fresh pair works.
	if d := e.OnReport(mr(cellular.EventA2, 21*time.Second), Context{}); d != nil {
		t.Fatal("A2 alone decided")
	}
	d := e.OnReport(mr(cellular.EventA3, 21*time.Second+200*time.Millisecond), Context{})
	if d == nil || d.Type != cellular.HOLTEH {
		t.Fatalf("fresh A2,A3 → %v", d)
	}
}

func TestEngineBusy(t *testing.T) {
	e := NewEngine(PolicyFor("OpY", cellular.ArchLTE))
	mr := cellular.MeasurementReport{Time: 0, Event: cellular.EventA3, Tech: cellular.TechLTE}
	d := e.OnReport(mr, Context{})
	if d == nil {
		t.Fatal("no decision")
	}
	e.Begin(500 * time.Millisecond)
	if !e.Busy(100 * time.Millisecond) {
		t.Error("engine should be busy")
	}
	mr.Time = 200 * time.Millisecond
	if d := e.OnReport(mr, Context{}); d != nil {
		t.Error("decision during busy window")
	}
	if e.Busy(time.Second) {
		t.Error("busy after completion time")
	}
	if len(e.keys()) == 0 {
		t.Error("history should accumulate during busy")
	}
}

func TestSampleDurationsCalibration(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	meanOf := func(p DurationParams) (t1m, t2m float64) {
		var s1, s2 time.Duration
		const n = 2000
		for i := 0; i < n; i++ {
			t1, t2 := SampleDurations(p, rng)
			if t1 <= 0 || t2 <= 0 {
				t.Fatal("non-positive duration")
			}
			s1 += t1
			s2 += t2
		}
		return float64(s1/n) / 1e6, float64(s2/n) / 1e6
	}
	lte1, lte2 := meanOf(DurationParams{Type: cellular.HOLTEH, Band: cellular.BandMid})
	if tot := lte1 + lte2; tot < 60 || tot > 95 {
		t.Errorf("LTE HO total %v ms, want ≈76 (§5.2)", tot)
	}
	scgc1, scgc2 := meanOf(DurationParams{Type: cellular.HOSCGC, Band: cellular.BandLow})
	if tot := scgc1 + scgc2; tot < 180 || tot > 260 {
		t.Errorf("SCGC total %v ms", tot)
	}
	// mmWave execution runs 42-45% longer.
	_, lowT2 := meanOf(DurationParams{Type: cellular.HOSCGM, Band: cellular.BandLow})
	_, mmwT2 := meanOf(DurationParams{Type: cellular.HOSCGM, Band: cellular.BandMMWave})
	if r := mmwT2 / lowT2; r < 1.3 || r > 1.6 {
		t.Errorf("mmWave T2 factor %v, want ≈1.43", r)
	}
	// Co-location shortens preparation.
	co1, _ := meanOf(DurationParams{Type: cellular.HOSCGC, Band: cellular.BandLow, CoLocated: true})
	if co1 >= scgc1 {
		t.Errorf("co-located T1 %v must be below non-co-located %v", co1, scgc1)
	}
}

func TestSignalingCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	mean := func(ty cellular.HOType, b cellular.Band) float64 {
		tot := 0
		for i := 0; i < 500; i++ {
			tot += SignalingFor(ty, b, rng).Total()
		}
		return float64(tot) / 500
	}
	lte := mean(cellular.HOLTEH, cellular.BandMid)
	sa := mean(cellular.HOMCGH, cellular.BandLow)
	if sa >= lte {
		t.Errorf("SA per-HO signalling (%v) must be below LTE (%v)", sa, lte)
	}
	low := mean(cellular.HOSCGM, cellular.BandLow)
	mmw := mean(cellular.HOSCGM, cellular.BandMMWave)
	if mmw < 3*low {
		t.Errorf("mmWave signalling %v must dwarf low-band %v (beam management)", mmw, low)
	}
}

func TestEventConfigsPerCarrier(t *testing.T) {
	hasEvent := func(cfgs []cellular.EventConfig, ty cellular.EventType, tech cellular.Tech) bool {
		for _, c := range cfgs {
			if c.Type == ty && c.Tech == tech {
				return true
			}
		}
		return false
	}
	opz := EventConfigsFor("OpZ", cellular.ArchLTE)
	if hasEvent(opz, cellular.EventA3, cellular.TechLTE) {
		t.Error("OpZ must not configure LTE A3")
	}
	if !hasEvent(opz, cellular.EventA5, cellular.TechLTE) {
		t.Error("OpZ must configure A5")
	}
	nsa := EventConfigsFor("OpX", cellular.ArchNSA)
	if !hasEvent(nsa, cellular.EventB1, cellular.TechNR) {
		t.Error("NSA must configure B1")
	}
	sa := EventConfigsFor("OpY", cellular.ArchSA)
	if hasEvent(sa, cellular.EventB1, cellular.TechNR) {
		t.Error("SA must not configure B1")
	}
	for _, c := range sa {
		if c.Tech != cellular.TechNR {
			t.Error("SA configures only NR measurements")
		}
	}
}

func TestRuleString(t *testing.T) {
	r := Rule{Sequence: []string{"A2", "A5"}, HO: cellular.HOLTEH}
	if r.String() != "[A2,A5] -> LTEH" {
		t.Errorf("Rule.String() = %q", r.String())
	}
}
