package core

import (
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/trace"
)

func TestLearnerSupportAndSuffixMining(t *testing.T) {
	l := NewDecisionLearner(LearnerConfig{})
	for i := 0; i < 5; i++ {
		l.ObservePhase([]string{"A2", "A3"}, cellular.HOLTEH)
	}
	found := map[string]int{}
	for _, p := range l.Patterns() {
		found[p.Key()] = p.Support
	}
	if found["A3->LTEH"] != 5 {
		t.Errorf("suffix pattern support = %d", found["A3->LTEH"])
	}
	if found["A2,A3->LTEH"] != 5 {
		t.Errorf("full pattern support = %d", found["A2,A3->LTEH"])
	}
	learned, evicted, phases, live := l.Stats()
	if learned != 2 || evicted != 0 || phases != 5 || live != 2 {
		t.Errorf("stats = %d/%d/%d/%d", learned, evicted, phases, live)
	}
}

func TestLearnerIgnoresEmptyAndNone(t *testing.T) {
	l := NewDecisionLearner(LearnerConfig{})
	l.ObservePhase(nil, cellular.HOLTEH)
	l.ObservePhase([]string{"A3"}, cellular.HONone)
	if _, _, phases, live := l.Stats(); phases != 0 || live != 0 {
		t.Error("degenerate phases must be ignored")
	}
}

func TestLearnerFreshnessEviction(t *testing.T) {
	l := NewDecisionLearner(LearnerConfig{FreshnessPhases: 3})
	l.ObservePhase([]string{"A2"}, cellular.HOLTEH)
	for i := 0; i < 5; i++ {
		l.ObservePhase([]string{"NR-A3s"}, cellular.HOSCGM)
	}
	for _, p := range l.Patterns() {
		if p.Key() == "A2->LTEH" {
			t.Fatal("stale pattern survived the freshness threshold")
		}
	}
	_, evicted, _, _ := l.Stats()
	if evicted == 0 {
		t.Error("eviction count not incremented")
	}
}

func TestLearnerCapEviction(t *testing.T) {
	l := NewDecisionLearner(LearnerConfig{MaxPatterns: 4, MaxSuffixLen: 1, FreshnessPhases: 10000})
	keys := []string{"A1", "A2", "A3", "A4", "A5", "B1"}
	for _, k := range keys {
		l.ObservePhase([]string{k}, cellular.HOLTEH)
	}
	if _, _, _, live := l.Stats(); live > 4 {
		t.Errorf("store grew to %d, cap is 4", live)
	}
}

func TestMatchAnchoredAtLastKey(t *testing.T) {
	l := NewDecisionLearner(LearnerConfig{})
	for i := 0; i < 3; i++ {
		l.ObservePhase([]string{"A2", "A3"}, cellular.HOLTEH)
	}
	if _, _, ok := l.Match([]string{"A2", "A3"}, nil); !ok {
		t.Error("exact sequence must match")
	}
	if _, _, ok := l.Match([]string{"A2", "B1", "A3"}, nil); !ok {
		t.Error("interleaved subsequence must match")
	}
	if _, _, ok := l.Match([]string{"A3", "A2"}, nil); ok {
		t.Error("match must anchor at the newest key")
	}
	if _, _, ok := l.Match(nil, nil); ok {
		t.Error("empty sequence matched")
	}
	// Admit predicate filters.
	if _, _, ok := l.Match([]string{"A2", "A3"}, func(p Pattern) bool { return p.HO != cellular.HOLTEH }); ok {
		t.Error("admit predicate ignored")
	}
}

func TestReliabilityGating(t *testing.T) {
	l := NewDecisionLearner(LearnerConfig{})
	l.ObservePhase([]string{"A3"}, cellular.HOLTEH)
	pat, _, ok := l.Match([]string{"A3"}, nil)
	if !ok {
		t.Fatal("no match")
	}
	for i := 0; i < 12; i++ {
		l.Feedback(pat.Key(), false)
	}
	if _, _, ok := l.Match([]string{"A3"}, nil); ok {
		t.Error("a persistently wrong pattern must be gated out")
	}
	// Feedback on unknown keys is a no-op.
	l.Feedback("nope->LTEH", true)
}

func TestReliabilityLaplace(t *testing.T) {
	p := Pattern{}
	if p.Reliability() != 0.5 {
		t.Errorf("prior reliability = %v, want 0.5", p.Reliability())
	}
	p.Hits = 8
	p.Misses = 0
	if p.Reliability() <= 0.8 {
		t.Errorf("hit-heavy reliability = %v", p.Reliability())
	}
}

func TestBootstrap(t *testing.T) {
	l := NewDecisionLearner(LearnerConfig{})
	l.Bootstrap([]Pattern{{Seq: []string{"NR-B1"}, HO: cellular.HOSCGA, Support: 10}})
	pat, _, ok := l.Match([]string{"NR-B1"}, nil)
	if !ok || pat.HO != cellular.HOSCGA {
		t.Fatal("bootstrapped pattern not matchable")
	}
}

func TestScoreTable(t *testing.T) {
	s := DefaultScores()
	if s.Score(cellular.HONone) != 1 {
		t.Error("no-HO score must be 1")
	}
	if s.Score(cellular.HOSCGR) >= 1 {
		t.Error("SCG release must predict a throughput drop")
	}
	if s.Score(cellular.HOSCGA) <= 1 {
		t.Error("SCG addition must predict a throughput gain")
	}
	if s.Score(cellular.HOType(99)) != 1 {
		t.Error("unknown types default to 1")
	}
}

func TestPrognosRequiresConfigs(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing event configs accepted")
	}
}

// TestPrognosRejectsNegativeSmootherWindow: a negative smoother window is a
// configuration error New reports, not a panic inside the report
// predictor; 0 still selects the default.
func TestPrognosRejectsNegativeSmootherWindow(t *testing.T) {
	if _, err := New(Config{EventConfigs: ckptConfigs(), SmootherWindow: -3}); err == nil {
		t.Fatal("smoother window -3 accepted")
	}
	if _, err := New(Config{EventConfigs: ckptConfigs(), SmootherWindow: 0}); err != nil {
		t.Fatalf("default smoother window: %v", err)
	}
}

func TestKeyEnrichment(t *testing.T) {
	mr := cellular.MeasurementReport{Event: cellular.EventA3, Tech: cellular.TechNR, ServingPCI: 600, NeighborPCI: 601}
	if keyFor(mr) != "NR-A3s" {
		t.Errorf("adjacent PCIs = %q, want same-gNB", keyFor(mr))
	}
	mr.NeighborPCI = 640
	if keyFor(mr) != "NR-A3d" {
		t.Errorf("distant PCIs = %q", keyFor(mr))
	}
	mr.Tech = cellular.TechLTE
	if keyFor(mr) != "A3" {
		t.Errorf("LTE A3 = %q", keyFor(mr))
	}
}

func TestWindows(t *testing.T) {
	mk := func(at time.Duration, ty cellular.HOType) TickPrediction {
		return TickPrediction{Time: at, Type: ty}
	}
	ticks := []TickPrediction{
		mk(0, cellular.HONone), mk(500*time.Millisecond, cellular.HOSCGM),
		mk(time.Second, cellular.HOSCGM), mk(1500*time.Millisecond, cellular.HONone),
		mk(2*time.Second, cellular.HONone),
	}
	hos := []cellular.HandoverEvent{{Time: 1200 * time.Millisecond, Type: cellular.HOSCGM}}
	wins := Windows(ticks, hos, time.Second)
	if len(wins) != 3 {
		t.Fatalf("got %d windows", len(wins))
	}
	if wins[0].Truth != cellular.HONone || wins[0].Pred != cellular.HONone {
		t.Errorf("window 0 = %+v", wins[0])
	}
	if wins[1].Truth != cellular.HOSCGM {
		t.Errorf("window 1 truth = %v", wins[1].Truth)
	}
	if wins[1].Pred != cellular.HOSCGM {
		t.Errorf("window 1 pred = %v (prediction standing at 1s)", wins[1].Pred)
	}
	if Windows(nil, hos, time.Second) != nil {
		t.Error("empty ticks")
	}
}

func TestEvaluateEvents(t *testing.T) {
	var ticks []TickPrediction
	// One correct run before a HO, one spurious run, rest silent.
	for i := 0; i < 200; i++ {
		ty := cellular.HONone
		at := time.Duration(i) * 50 * time.Millisecond
		if at >= 2*time.Second && at < 3*time.Second {
			ty = cellular.HOSCGM // correct: HO at 3.2 s
		}
		if at >= 6*time.Second && at < 7*time.Second {
			ty = cellular.HOSCGR // spurious
		}
		ticks = append(ticks, TickPrediction{Time: at, Type: ty})
	}
	hos := []cellular.HandoverEvent{
		{Time: 3200 * time.Millisecond, Type: cellular.HOSCGM},
		{Time: 9 * time.Second, Type: cellular.HOSCGC}, // missed
	}
	ev := EvaluateEvents(ticks, hos, time.Second)
	if ev.TP != 1 || ev.FP != 1 || ev.FN != 1 {
		t.Fatalf("TP/FP/FN = %d/%d/%d", ev.TP, ev.FP, ev.FN)
	}
	if ev.Precision() != 0.5 || ev.Recall() != 0.5 || ev.F1() != 0.5 {
		t.Errorf("metrics = %v/%v/%v", ev.Precision(), ev.Recall(), ev.F1())
	}
	if ev.Accuracy() <= 0.5 {
		t.Errorf("accuracy = %v", ev.Accuracy())
	}
}

func TestLeadTimeMeasurement(t *testing.T) {
	var ticks []TickPrediction
	for i := 0; i < 100; i++ {
		at := time.Duration(i) * 50 * time.Millisecond
		ty := cellular.HONone
		if at >= 1500*time.Millisecond && at < 2500*time.Millisecond {
			ty = cellular.HOSCGM
		}
		ticks = append(ticks, TickPrediction{Time: at, Type: ty})
	}
	hos := []cellular.HandoverEvent{{Time: 2450 * time.Millisecond, Type: cellular.HOSCGM}}
	leads := LeadTime(ticks, hos)
	if len(leads) != 1 {
		t.Fatalf("leads = %v", leads)
	}
	if leads[0] < 900*time.Millisecond || leads[0] > 1000*time.Millisecond {
		t.Errorf("lead = %v, want ≈950ms", leads[0])
	}
	// An unpredicted HO yields no lead entry.
	hos2 := []cellular.HandoverEvent{{Time: 4 * time.Second, Type: cellular.HOSCGC}}
	if got := LeadTime(ticks, hos2); len(got) != 0 {
		t.Errorf("unpredicted HO produced leads %v", got)
	}
}

func TestReportPredictorTTTCases(t *testing.T) {
	cfg := cellular.EventConfig{Type: cellular.EventA2, Tech: cellular.TechLTE, Threshold1: -100, TTT: 200 * time.Millisecond}
	rp := NewReportPredictor([]cellular.EventConfig{cfg}, 4, 20, 20, 50*time.Millisecond)
	mk := func(rsrp float64, at time.Duration) *trace.Sample {
		return &trace.Sample{Time: at, ServingLTE: trace.CellObs{Valid: true, RSRP: rsrp, PCI: 1}}
	}
	// Healthy signal: nothing forecast.
	for i := 0; i < 30; i++ {
		rp.Observe(mk(-80, time.Duration(i)*50*time.Millisecond))
	}
	if preds := rp.PredictInto(nil); len(preds) != 0 {
		t.Fatalf("healthy signal forecast %v", preds)
	}
	// Condition just entered: TTT running → case-2 forecast.
	rp.Observe(mk(-140, 2*time.Second))
	preds := rp.PredictInto(nil)
	foundA2 := false
	for _, p := range preds {
		if p.Event == cellular.EventA2 && !p.Repeat {
			foundA2 = true
			if p.LeadSteps < 1 || p.LeadSteps > 4 {
				t.Errorf("case-2 lead %d steps", p.LeadSteps)
			}
		}
	}
	if !foundA2 {
		// The smoothed value may need another deep sample to cross.
		rp.Observe(mk(-140, 2050*time.Millisecond))
		for _, p := range rp.PredictInto(nil) {
			if p.Event == cellular.EventA2 {
				foundA2 = true
			}
		}
	}
	if !foundA2 {
		t.Error("entering condition did not yield a forecast")
	}
}
