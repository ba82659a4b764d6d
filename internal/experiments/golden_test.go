package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update regenerates the report goldens in testdata/ from the current
// implementation:
//
//	go test ./internal/experiments -run 'DeterministicAcrossJobs' -update
//
// Only do this when a change is meant to alter what a policy sweep or the
// closed loop reports. The goldens are where the sweep's F1 and
// re-convergence figures and the closed loop's ping-pong figures are
// tracked, so every change to them shows in review.
var update = flag.Bool("update", false, "rewrite the sweep and holoop report golden hashes")

// checkReportGolden compares the SHA-256 of a report's bytes with
// testdata/<name>.sha256, or rewrites that file under -update. summary is
// printed on a mismatch so the failure shows what the numbers now are.
func checkReportGolden(t *testing.T, name string, report []byte, summary any) {
	t.Helper()
	sum := sha256.Sum256(report)
	got := hex.EncodeToString(sum[:])
	path := filepath.Join("testdata", name+".sha256")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if want := strings.TrimSpace(string(raw)); got != want {
		t.Errorf("%s: report hash drifted:\n  got  %s\n  want %s\nsummary now %+v\n"+
			"regenerate with -update only if the change is meant to alter the report",
			path, got, want, summary)
	}
}
