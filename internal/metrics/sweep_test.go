package metrics

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSweepReportSummarizeAndRoundTrip(t *testing.T) {
	r := SweepReport{
		Seed: 1, Carriers: 3, Drift: true, DriftAtS: 300,
		F1Threshold: 0.6, DriveSeconds: 600, BucketSeconds: 30, WindowSeconds: 1,
		Results: []SweepCarrier{
			{Index: 0, Name: "Gen0000", Converged: true, TimeToF1S: 60, Reconverged: true, ReconvergeS: 90, FloorF1: 0.2, FinalF1: 0.8},
			{Index: 1, Name: "Gen0001", Converged: true, TimeToF1S: 120, FloorF1: 0.4, FinalF1: 0.7},
			{Index: 2, Name: "Gen0002", Error: "boom"},
		},
	}
	r.Summarize()
	s := r.Summary
	if s.Carriers != 3 || s.Errors != 1 || s.Converged != 2 || s.Reconverged != 1 {
		t.Fatalf("summary counts: %+v", s)
	}
	if s.MedianTimeToF1S != 90 {
		t.Errorf("median ttf = %v, want 90", s.MedianTimeToF1S)
	}
	if s.F1Floor != 0.2 || s.F1FloorMedian < 0.299 || s.F1FloorMedian > 0.301 {
		t.Errorf("floor stats: floor=%v median=%v", s.F1Floor, s.F1FloorMedian)
	}

	path := filepath.Join(t.TempDir(), "sweep.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got SweepReport
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.Summary != s || len(got.Results) != 3 || got.Results[2].Error != "boom" {
		t.Errorf("round trip mismatch: %+v", got)
	}
	// Marshal is the determinism contract: identical reports produce
	// identical bytes.
	m1, _ := r.Marshal()
	m2, _ := r.Marshal()
	if string(m1) != string(m2) {
		t.Error("Marshal not stable")
	}
}

func TestSweepStats(t *testing.T) {
	var st SweepStats
	st.Start(10)
	st.Observe(SweepCarrier{Converged: true, TimeToF1S: 50, FloorF1: 0.5})
	st.Observe(SweepCarrier{Converged: true, TimeToF1S: 70, Reconverged: true, ReconvergeS: 30, FloorF1: 0.3})
	st.Observe(SweepCarrier{Error: "x"})
	p := st.Snapshot()
	if p.Planned != 10 || p.Done != 3 || p.Errors != 1 || p.Converged != 2 || p.Reconverged != 1 {
		t.Fatalf("progress: %+v", p)
	}
	if p.MedianTimeToF1S != 60 || !p.HasFloor || p.F1Floor != 0.3 {
		t.Errorf("aggregates: %+v", p)
	}
}
