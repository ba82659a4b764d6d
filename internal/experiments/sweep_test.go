package experiments

import (
	"context"
	"encoding/json"
	"testing"
)

// TestRunSweepDeterministicAcrossJobs is the sweep determinism contract:
// the marshalled report bytes are identical at -jobs 1 and -jobs 4 (per-spec
// RNG ownership — no worker shares a stream), and they hash to the golden
// in testdata/.
func TestRunSweepDeterministicAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-drive sweep; skipped with -short")
	}
	cfg := SweepConfig{
		Carriers:     4,
		Seed:         7,
		Drift:        true,
		DriveSeconds: 120,
	}
	cfg.Jobs = 1
	seq, err := RunSweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Jobs = 4
	par, err := RunSweep(context.Background(), cfg)
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
	checkReportGolden(t, "sweep_report", a, seq.Summary)

	for i, c := range seq.Results {
		if c.Error != "" {
			t.Errorf("carrier %d errored: %s", i, c.Error)
		}
		if c.Handovers == 0 {
			t.Errorf("carrier %d saw no handovers — the drive carries no signal", i)
		}
		if c.DriftSequence == "" {
			t.Errorf("carrier %d missing drift sequence", i)
		}
	}
}

// TestRunSweepCancel checks RunSweep honours context cancellation instead of
// running the full population.
func TestRunSweepCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunSweep(ctx, SweepConfig{Carriers: 64, Seed: 1, DriveSeconds: 120})
	if err == nil {
		t.Fatal("expected context error")
	}
}
