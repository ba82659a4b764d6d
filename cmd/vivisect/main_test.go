package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"testing"
)

// TestMain makes the test binary run vivisect itself when the vivisect
// helper tests re-execute it, so they see the command's real stdout and
// exit code.
func TestMain(m *testing.M) {
	if os.Getenv("VIVISECT_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// vivisect runs the command with args and returns its stdout and exit code.
func vivisect(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "VIVISECT_TEST_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), 0
	case errors.As(err, &exit):
		t.Logf("vivisect %q exited %d; stderr:\n%s", args, exit.ExitCode(), stderr.String())
		return stdout.String(), exit.ExitCode()
	}
	t.Fatalf("vivisect %q: %v", args, err)
	return "", 0
}

// TestTraceFlagsAfterSubcommand checks that a flag placed after `trace`
// takes effect exactly as it does before it.
func TestTraceFlagsAfterSubcommand(t *testing.T) {
	after, code := vivisect(t, "-length", "2000", "trace", "-seed", "3")
	if code != 0 {
		t.Fatalf("trace -seed 3 exited %d", code)
	}
	before, _ := vivisect(t, "-length", "2000", "-seed", "3", "trace")
	if after != before {
		t.Error("`trace -seed 3` and `-seed 3 trace` print different traces")
	}
	if seed1, _ := vivisect(t, "-length", "2000", "trace"); after == seed1 {
		t.Error("`trace -seed 3` printed the seed-1 trace")
	}
}

// TestSubcommandRejectsLeftoverArguments checks that trace, sweep and
// holoop exit 2 instead of dropping an argument they cannot use.
func TestSubcommandRejectsLeftoverArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-length", "2000", "trace", "-seed", "3", "bogus"},
		{"sweep", "-carriers", "1", "-drive-seconds", "10", "extra"},
		{"holoop", "-ues", "1", "-drive-seconds", "10", "extra"},
	} {
		if _, code := vivisect(t, args...); code != 2 {
			t.Errorf("vivisect %q exited %d, want 2", args, code)
		}
	}
}
