package metrics

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
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
	if err := WriteJSON(path, r); err != nil {
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
	// The file is the indented JSON plus a newline: the bytes the report
	// goldens hash.
	want, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(want)+"\n" {
		t.Errorf("WriteJSON wrote %q, want the indented JSON plus a newline", b)
	}
}

// TestSweepStats observes carriers from several workers while the ops
// plane snapshots, as a sweep does, and checks the summary of them.
func TestSweepStats(t *testing.T) {
	var st SweepStats
	st.Start(10)
	var wg sync.WaitGroup
	for _, c := range []SweepCarrier{
		{Converged: true, TimeToF1S: 50, FloorF1: 0.5},
		{Converged: true, TimeToF1S: 70, Reconverged: true, ReconvergeS: 30, FloorF1: 0.3},
		{Error: "x"},
	} {
		wg.Add(2)
		go func() { defer wg.Done(); st.Observe(c) }()
		go func() { defer wg.Done(); st.Snapshot() }()
	}
	wg.Wait()
	r := st.Snapshot()
	s := r.Summary
	if r.Carriers != 10 || len(r.Results) != 3 || s.Carriers != 3 || s.Errors != 1 || s.Converged != 2 || s.Reconverged != 1 {
		t.Fatalf("progress: planned %d, summary %+v", r.Carriers, s)
	}
	if s.MedianTimeToF1S != 60 || s.F1Floor != 0.3 {
		t.Errorf("aggregates: %+v", s)
	}
}
