package experiments

import (
	"context"
	"encoding/json"
	"sync/atomic"
	"testing"

	"repro/internal/metrics"
)

// TestRunHOLoopDeterministicAcrossJobs is the holoop determinism contract
// (the same one RunSweep carries): the marshalled report bytes are identical
// at -jobs 1 and -jobs 4, because each UE is a pure function of (cfg, index)
// and the report records nothing about the execution (no wall-clock, no
// worker count). The bytes also hash to the golden in testdata/.
func TestRunHOLoopDeterministicAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-drive comparison; skipped with -short")
	}
	cfg := HOLoopConfig{UEs: 4, Seed: 7, DriveSeconds: 120}
	cfg.Jobs = 1
	seq, err := RunHOLoop(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var seen atomic.Int64
	cfg.Jobs = 4
	cfg.OnUE = func(_ metrics.HOLoopUE) { seen.Add(1) }
	par, err := RunHOLoop(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	a, err := json.MarshalIndent(seq, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(par, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("report bytes differ between -jobs 1 and -jobs 4:\n%s\n----\n%s", a, b)
	}
	checkReportGolden(t, "holoop_report", a, seq.Summary)
	if seen.Load() != int64(cfg.UEs) {
		t.Errorf("OnUE fired %d times, want %d", seen.Load(), cfg.UEs)
	}
	for _, u := range seq.Results {
		if u.Error != "" {
			t.Errorf("UE %d errored: %s", u.Index, u.Error)
		}
		if u.Static.Handovers == 0 || u.Adaptive.Handovers == 0 {
			t.Errorf("UE %d saw no handovers — the drive carries no signal", u.Index)
		}
	}
}

// TestRunHOLoopReducesPingPong is the closed loop's reason to exist, asserted
// at fleet scale where the aggregate is statistically meaningful (the same
// bar `vivisect holoop -gate` holds in CI at 64 UEs): the adaptive arm's
// pooled ping-pong rate is below the static arm's, and its in-loop prediction
// F1 is no worse than the static arm's offline replay beyond a small epsilon.
func TestRunHOLoopReducesPingPong(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-scale comparison; skipped with -short")
	}
	rep, err := RunHOLoop(context.Background(), HOLoopConfig{
		UEs:          32,
		Seed:         1,
		Jobs:         4,
		DriveSeconds: 120,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Summary
	if s.StaticPingPongs == 0 {
		t.Fatal("static arm saw no ping-pongs — the scenario carries no churn to reduce")
	}
	if s.AdaptivePingPongRate >= s.StaticPingPongRate {
		t.Errorf("adaptive ping-pong rate %.4f not below static %.4f",
			s.AdaptivePingPongRate, s.StaticPingPongRate)
	}
	if s.PingPongReduction <= 0 {
		t.Errorf("ping-pong reduction %.4f not positive", s.PingPongReduction)
	}
	const f1Epsilon = 0.05
	if s.AdaptiveF1 < s.StaticF1-f1Epsilon {
		t.Errorf("adaptive F1 %.3f fell more than %.2f below static %.3f",
			s.AdaptiveF1, f1Epsilon, s.StaticF1)
	}
	if s.EarlyPreps == 0 || s.Reconfigs == 0 {
		t.Errorf("controller idle at fleet scale: %+v", s)
	}
}

// TestRunHOLoopValidation pins the error paths: an invalid config and a
// fully-disabled config both refuse to run, and a cancelled context aborts.
func TestRunHOLoopValidation(t *testing.T) {
	bad := HOLoopConfig{UEs: 1, Seed: 1}
	bad.Adaptive.MinConfidence = 2
	bad.Adaptive.AdaptTTT = true
	if _, err := RunHOLoop(context.Background(), bad); err == nil {
		t.Error("invalid config accepted")
	}

	off := HOLoopConfig{UEs: 1, Seed: 1}
	off.Adaptive.MinConfidence = 0.4 // non-zero config, but no control enabled
	if _, err := RunHOLoop(context.Background(), off); err == nil {
		t.Error("all-off config accepted")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunHOLoop(ctx, HOLoopConfig{UEs: 64, Seed: 1}); err == nil {
		t.Error("cancelled context ran to completion")
	}
}
