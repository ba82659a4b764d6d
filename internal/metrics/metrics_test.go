package metrics

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// TestReportRoundTrip writes a report to disk and reads it back unchanged.
func TestReportRoundTrip(t *testing.T) {
	r := Report{
		Seed:       7,
		Scale:      0.25,
		Jobs:       4,
		GoMaxProcs: 8,
		WallMS:     1234.5,
		Experiments: []Experiment{
			{ID: "fig8", Paper: "Figure 8", WallMS: 412.25, Rows: 9, Drives: 4, HOEvents: 311, Allocs: 1000, AllocBytes: 65536},
			{ID: "fig9", Paper: "Figure 9", WallMS: 88, Rows: 3, Drives: 1, HOEvents: 17},
			{ID: "table3", Paper: "Table 3", Err: "boom", Skipped: false},
			{ID: "fig18", Paper: "Figure 18", Err: "context canceled", Skipped: true},
		},
	}
	path := filepath.Join(t.TempDir(), "run.json")
	if err := WriteJSON(path, r); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, r)
	}
}

// TestProbeConcurrent exercises the atomic counters from many goroutines.
func TestProbeConcurrent(t *testing.T) {
	var p Probe
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				p.ObserveDrive(2)
			}
		}()
	}
	wg.Wait()
	if p.Drives() != 800 {
		t.Errorf("Drives = %d, want 800", p.Drives())
	}
	if p.HOEvents() != 1600 {
		t.Errorf("HOEvents = %d, want 1600", p.HOEvents())
	}
}

func TestServerStats(t *testing.T) {
	s := NewServerStats()
	s.SessionOpened()
	s.SessionOpened()
	s.SessionClosed()
	s.AddSample()
	s.AddSample()
	s.AddReport()
	s.AddHandover()
	s.AddPrediction()
	snap := s.Snapshot()
	if snap.Sessions != 2 || snap.Active != 1 {
		t.Errorf("sessions = %d active = %d, want 2/1", snap.Sessions, snap.Active)
	}
	if snap.Samples != 2 || snap.Reports != 1 || snap.Handovers != 1 || snap.Predictions != 1 {
		t.Errorf("counter snapshot %+v", snap)
	}
	if snap.UptimeMS < 0 {
		t.Errorf("uptime %v must be non-negative", snap.UptimeMS)
	}
}
