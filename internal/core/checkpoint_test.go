package core

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/trace"
)

// ckptConfigs is a minimal event-config set for checkpoint tests.
func ckptConfigs() []cellular.EventConfig {
	return []cellular.EventConfig{
		{Type: cellular.EventA2, Tech: cellular.TechLTE, Threshold1: -100, TTT: 320 * time.Millisecond},
		{Type: cellular.EventA3, Tech: cellular.TechLTE, Offset: 3, TTT: 320 * time.Millisecond},
	}
}

// warmPrognos builds an instance with learned patterns and live smoothing
// state, the shape a mid-drive checkpoint captures.
func warmPrognos(t *testing.T) *Prognos {
	t.Helper()
	p, err := New(Config{EventConfigs: ckptConfigs(), Arch: cellular.ArchLTE, UseReportPredictor: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		at := time.Duration(i) * 50 * time.Millisecond
		p.OnSample(trace.Sample{
			Time:       at,
			Arch:       cellular.ArchLTE,
			ServingLTE: trace.CellObs{PCI: 1, Valid: true, RSRP: -95 - float64(i)},
		})
		p.OnReport(cellular.MeasurementReport{Time: at, Event: cellular.EventA2, Tech: cellular.TechLTE, ServingPCI: 1})
		p.OnHandover(cellular.HandoverEvent{Time: at + 10*time.Millisecond, Type: cellular.HOLTEH})
	}
	return p
}

// TestSnapshotRestoreByteIdentical is the crash-recovery contract: a
// snapshot written before a kill, restored into a fresh instance after the
// restart, must re-export byte-identically — the learned pattern database
// survives process death exactly.
func TestSnapshotRestoreByteIdentical(t *testing.T) {
	p := warmPrognos(t)
	snap := p.Snapshot()
	if len(snap.Learner.Patterns) == 0 {
		t.Fatal("warm instance exported no patterns")
	}
	if len(snap.Report.ServLTE.Smooth) == 0 || !snap.Report.ServLTE.Valid {
		t.Fatalf("serving-LTE smoothing state not captured: %+v", snap.Report.ServLTE)
	}

	b1, err := EncodeCheckpoint(CheckpointFile{Version: SnapshotVersion, Carrier: "OpX", Arch: "LTE", Snapshot: snap})
	if err != nil {
		t.Fatal(err)
	}

	fresh, err := New(Config{EventConfigs: ckptConfigs(), Arch: cellular.ArchLTE, UseReportPredictor: true})
	if err != nil {
		t.Fatal(err)
	}
	fresh.Restore(snap)
	b2, err := EncodeCheckpoint(CheckpointFile{Version: SnapshotVersion, Carrier: "OpX", Arch: "LTE", Snapshot: fresh.Snapshot()})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("restore is not byte-identical:\n--- before ---\n%s\n--- after ---\n%s", b1, b2)
	}

	// The restored learner predicts warm: its trigger pattern matches.
	fresh.OnSample(trace.Sample{Time: time.Second, Arch: cellular.ArchLTE, ServingLTE: trace.CellObs{PCI: 1, Valid: true, RSRP: -101}})
	fresh.OnReport(cellular.MeasurementReport{Time: time.Second, Event: cellular.EventA2, Tech: cellular.TechLTE, ServingPCI: 1})
	if pred := fresh.Predict(); pred.Type != cellular.HOLTEH {
		t.Errorf("restored instance predicted %v, want warm LTEH", pred.Type)
	}
}

func TestWriteReadCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p := warmPrognos(t)
	n, err := WriteCheckpoint(dir, CheckpointFile{Carrier: "OpX", Arch: "LTE", Snapshot: p.Snapshot()})
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("checkpoint size %d", n)
	}
	path := filepath.Join(dir, CheckpointFileName("OpX", "LTE"))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(n) {
		t.Errorf("reported %d bytes, file is %d", n, fi.Size())
	}
	f, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Carrier != "OpX" || f.Arch != "LTE" || f.Version != SnapshotVersion {
		t.Errorf("envelope %+v", f)
	}
	if len(f.Snapshot.Learner.Patterns) != len(p.Snapshot().Learner.Patterns) {
		t.Errorf("pattern count drifted through the file")
	}

	// Overwrites are atomic renames: a second write must fully replace the
	// file, and no temp files may linger.
	if _, err := WriteCheckpoint(dir, CheckpointFile{Carrier: "OpX", Arch: "LTE", Snapshot: p.Snapshot()}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("checkpoint dir holds %d entries, want exactly the published file", len(entries))
	}
}

func TestLoadCheckpointDirSkipsBadFiles(t *testing.T) {
	dir := t.TempDir()
	p := warmPrognos(t)
	if _, err := WriteCheckpoint(dir, CheckpointFile{Carrier: "OpX", Arch: "LTE", Snapshot: p.Snapshot()}); err != nil {
		t.Fatal(err)
	}
	// A corrupt file and a future-version file must both be skipped.
	if err := os.WriteFile(filepath.Join(dir, "torn.ckpt.json"), []byte("{half a reco"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "future.ckpt.json"), []byte(`{"version":99,"carrier":"OpY","arch":"NSA"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	files, err := LoadCheckpointDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0].Carrier != "OpX" {
		t.Fatalf("loaded %+v, want exactly the valid OpX checkpoint", files)
	}

	// A missing directory is an empty load, not an error.
	if files, err := LoadCheckpointDir(filepath.Join(dir, "nope")); err != nil || files != nil {
		t.Errorf("missing dir: files=%v err=%v", files, err)
	}
}

func TestReadCheckpointRejectsWrongVersion(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v0.ckpt.json")
	if err := os.WriteFile(path, []byte(`{"version":0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(path); err == nil {
		t.Fatal("version 0 accepted")
	}
}

// TestSnapshotExportAllocs pins the cost and the order of the learner
// export a server takes at every warm push: one allocation per live
// pattern (its Seq copy) plus a constant, and the same patterns, in the
// same order, with the same checkpoint bytes as a sort by Key().
func TestSnapshotExportAllocs(t *testing.T) {
	p := warmPrognos(t)
	keys := []string{"A1", "A2", "A3", "A5", "B1"}
	hos := []cellular.HOType{cellular.HOLTEH, cellular.HOSCGA, cellular.HOSCGM}
	x := uint32(1)
	for phase := 0; phase < 60; phase++ {
		seq := make([]string, 4)
		for i := range seq {
			x = x*1664525 + 1013904223
			seq[i] = keys[x>>16%uint32(len(keys))]
		}
		p.Learner().ObservePhase(seq, hos[phase%len(hos)])
	}
	_, _, _, live := p.Learner().Stats()
	if live < 100 {
		t.Fatalf("%d live patterns, want at least 100", live)
	}

	snap := p.Snapshot()
	var oracle []Pattern
	for _, pat := range p.Learner().patterns {
		oracle = append(oracle, *pat)
	}
	sort.Slice(oracle, func(i, j int) bool { return oracle[i].Key() < oracle[j].Key() })
	if !reflect.DeepEqual(snap.Learner.Patterns, oracle) {
		t.Fatalf("export differs from the sort by Key():\n%v\nwant\n%v", snap.Learner.Patterns, oracle)
	}
	want := snap
	want.Learner.Patterns = oracle
	b1, err := EncodeCheckpoint(CheckpointFile{Version: SnapshotVersion, Carrier: "OpX", Arch: "LTE", Snapshot: snap})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := EncodeCheckpoint(CheckpointFile{Version: SnapshotVersion, Carrier: "OpX", Arch: "LTE", Snapshot: want})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("checkpoint bytes differ from the sort by Key()")
	}
	// The export owns its sequences: editing one leaves the learner as it was.
	snap.Learner.Patterns[0].Seq[0] = "edited"
	if reflect.DeepEqual(p.Snapshot().Learner.Patterns, snap.Learner.Patterns) {
		t.Error("the export shares a Seq with the learner")
	}

	if allocs := testing.AllocsPerRun(20, func() { p.Snapshot() }); allocs > float64(live+8) {
		t.Errorf("Snapshot allocates %.0f times at %d live patterns, want at most %d", allocs, live, live+8)
	}
}
