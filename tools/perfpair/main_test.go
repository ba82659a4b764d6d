package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fakeBenchmark is a BENCHMARK.json with the three workloads, both gated
// metrics and one end-to-end metric that is better lower.
const fakeBenchmark = `{
  "run_seconds": 20,
  "workloads": [{"name": "serve_closed"}, {"name": "offline_repro"}, {"name": "cluster_repl"}],
  "end_to_end": [
    {"name": "predictions_per_s", "better": "higher"},
    {"name": "sim_km_per_s", "better": "higher"},
    {"name": "replay_samples_per_s", "better": "higher"},
    {"name": "latency_p99_ms", "better": "lower"}
  ]
}`

// fakeRunSh stands in for perfbench/run.sh: it appends the checkout's name
// and its arguments to ../calls.log, prints the canned result line for its
// workload ($2) and seed ($4), and exits with the canned code.
const fakeRunSh = `set -eu
echo "$(basename "$PWD") $*" >> ../calls.log
echo "# perfbench $2 seed=$4"
cat "canned/$2-$4.json"
exit "$(cat "canned/$2-$4.code")"
`

// fakeRun is one canned perfbench run.
type fakeRun struct {
	pps, kmps, replay, p99 float64
	correct                bool
	failed                 int
	code                   int
}

func ok(pps float64) fakeRun { return fakeRun{pps: pps, kmps: 300, replay: 1e6, p99: 1, correct: true} }

// checkout writes a fake checkout root named name under dir. canned gives
// the run for each workload and seed.
func checkout(t *testing.T, dir, name string, canned func(workload string, seed int) fakeRun) string {
	t.Helper()
	root := filepath.Join(dir, name)
	for _, d := range []string{"perfbench", "canned"} {
		if err := os.MkdirAll(filepath.Join(root, d), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	files := map[string]string{
		"BENCHMARK.json":   fakeBenchmark,
		"perfbench/run.sh": fakeRunSh,
	}
	for _, w := range []string{"serve_closed", "offline_repro", "cluster_repl"} {
		for seed := 1; seed <= seeds; seed++ {
			r := canned(w, seed)
			key := fmt.Sprintf("canned/%s-%d", w, seed)
			files[key+".json"] = fmt.Sprintf(
				`{"correct": %v, "attempted": 100, "failed": %d, "metrics": {"predictions_per_s": {"value": %g, "unit": "1/s"}, "sim_km_per_s": {"value": %g, "unit": "km/s"}, "replay_samples_per_s": {"value": %g, "unit": "1/s"}, "latency_p99_ms": {"value": %g, "unit": "ms"}}}`+"\n",
				r.correct, r.failed, r.pps, r.kmps, r.replay, r.p99)
			files[key+".code"] = fmt.Sprint(r.code)
		}
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(root, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// pair writes a base checkout whose every run reports 1000 predictions/s
// and a head checkout from canned, and runs the gate over them.
func pair(t *testing.T, canned func(workload string, seed int) fakeRun) (string, error) {
	t.Helper()
	dir := t.TempDir()
	base := checkout(t, dir, "base", func(string, int) fakeRun { return ok(1000) })
	head := checkout(t, dir, "head", canned)
	var out bytes.Buffer
	err := run(base, head, &out)
	return out.String(), err
}

// TestGateMedian checks the gate's rule on each gated pair:
// predictions_per_s on serve_closed and cluster_repl, and sim_km_per_s and
// replay_samples_per_s on offline_repro. A median head/base of 0.84 fails,
// 0.86 passes. Outliers on either side of the median do not decide it.
func TestGateMedian(t *testing.T) {
	for _, g := range []gate{
		{"serve_closed", "predictions_per_s"},
		{"cluster_repl", "predictions_per_s"},
		{"offline_repro", "sim_km_per_s"},
		{"offline_repro", "replay_samples_per_s"},
	} {
		for _, tc := range []struct {
			ratio    [seeds]float64
			wantFail bool
		}{
			{[seeds]float64{1.2, 0.84, 0.5, 0.84, 1.1}, true},
			{[seeds]float64{1.2, 0.86, 0.5, 0.86, 1.1}, false},
		} {
			out, err := pair(t, func(workload string, seed int) fakeRun {
				r := ok(1000)
				if workload == g.workload {
					switch g.metric {
					case "sim_km_per_s":
						r.kmps *= tc.ratio[seed-1]
					case "replay_samples_per_s":
						r.replay *= tc.ratio[seed-1]
					default:
						r.pps *= tc.ratio[seed-1]
					}
				}
				return r
			})
			if gotFail := err != nil; gotFail != tc.wantFail {
				t.Fatalf("%s head/base %v: err = %v, want failure %v\n%s", g, tc.ratio, err, tc.wantFail, out)
			}
			if tc.wantFail && !strings.Contains(err.Error(), g.String()+" median head/base 0.840") {
				t.Errorf("%s: gate error %q does not name the pair and median", g, err)
			}
		}
	}
}

// TestTailGate checks the tail gates: latency_p99_ms on serve_closed and
// cluster_repl, which is better lower. A median head/base of 1.6 fails,
// 1.4 passes, and a median that is not a number (base and head both 0)
// fails.
func TestTailGate(t *testing.T) {
	for _, g := range []gate{
		{"serve_closed", "latency_p99_ms"},
		{"cluster_repl", "latency_p99_ms"},
	} {
		for _, tc := range []struct {
			name     string
			base     float64
			ratio    [seeds]float64
			wantFail string
		}{
			{"1.6", 1, [seeds]float64{0.8, 1.6, 3, 1.6, 1.1}, " median head/base 1.600 > 1.50"},
			{"1.4", 1, [seeds]float64{0.8, 1.4, 3, 1.4, 1.1}, ""},
			{"NaN", 0, [seeds]float64{1, 1, 1, 1, 1}, " median head/base NaN > 1.50"},
		} {
			dir := t.TempDir()
			base := checkout(t, dir, "base", func(w string, _ int) fakeRun {
				r := ok(1000)
				if w == g.workload {
					r.p99 = tc.base
				}
				return r
			})
			head := checkout(t, dir, "head", func(w string, seed int) fakeRun {
				r := ok(1000)
				if w == g.workload {
					r.p99 = tc.base * tc.ratio[seed-1]
				}
				return r
			})
			var out bytes.Buffer
			err := run(base, head, &out)
			if gotFail := err != nil; gotFail != (tc.wantFail != "") {
				t.Fatalf("%s head/base %s: err = %v, want failure %v\n%s", g, tc.name, err, tc.wantFail != "", out.String())
			}
			if err != nil && !strings.Contains(err.Error(), g.String()+tc.wantFail) {
				t.Errorf("%s head/base %s: gate error %q does not name the pair and median", g, tc.name, err)
			}
		}
	}
}

// TestGateRunFailures checks that a run exiting non-zero, reporting
// correct:false or reporting failed>0 fails the gate, on either side,
// even when every ratio is 1.
func TestGateRunFailures(t *testing.T) {
	for name, bad := range map[string]fakeRun{
		"exit code":     {pps: 1000, p99: 1, correct: true, code: 1},
		"correct false": {pps: 1000, p99: 1, correct: false},
		"failed > 0":    {pps: 1000, p99: 1, correct: true, failed: 2},
	} {
		for _, side := range []string{"base", "head"} {
			dir := t.TempDir()
			canned := func(good string) func(string, int) fakeRun {
				return func(w string, seed int) fakeRun {
					if side != good && w == "offline_repro" && seed == 3 {
						return bad
					}
					return ok(1000)
				}
			}
			base := checkout(t, dir, "base", canned("head"))
			head := checkout(t, dir, "head", canned("base"))
			err := run(base, head, &bytes.Buffer{})
			if err == nil || !strings.Contains(err.Error(), side+" run of offline_repro seed 3") {
				t.Errorf("%s on %s: err = %v, want the failing run named", name, side, err)
			}
		}
	}
}

// TestUngatedMetricsNeverFail halves predictions/s and triples p99 on the
// workload where they are ungated, and halves sim km/s and replay
// samples/s on the workloads where they are ungated: the gate still
// passes.
func TestUngatedMetricsNeverFail(t *testing.T) {
	out, err := pair(t, func(w string, _ int) fakeRun {
		r := ok(1000)
		if w == "offline_repro" {
			r.pps = 500
			r.p99 = 3
		} else {
			r.kmps = 150
			r.replay = 5e5
		}
		return r
	})
	if err != nil {
		t.Fatalf("ungated regressions failed the gate: %v\n%s", err, out)
	}
	for _, want := range []string{
		"summary offline_repro  predictions_per_s      median head/base 0.500, head won 0/5",
		"summary offline_repro  latency_p99_ms         median head/base 3.000, head won 0/5",
		"summary cluster_repl   sim_km_per_s           median head/base 0.500, head won 0/5",
		"summary serve_closed   replay_samples_per_s   median head/base 0.500, head won 0/5",
		"gate passed",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestSeedsAlternateFirstSide checks the run order and arguments: base runs
// first on odd seeds and head on even ones, seeds 1..5 per workload, with
// BENCHMARK.json's run length and tracing off.
func TestSeedsAlternateFirstSide(t *testing.T) {
	dir := t.TempDir()
	canned := func(string, int) fakeRun { return ok(1000) }
	base := checkout(t, dir, "base", canned)
	head := checkout(t, dir, "head", canned)
	if err := run(base, head, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join(dir, "calls.log"))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, w := range []string{"serve_closed", "offline_repro", "cluster_repl"} {
		for seed := 1; seed <= seeds; seed++ {
			sides := []string{"base", "head"}
			if seed%2 == 0 {
				sides = []string{"head", "base"}
			}
			for _, s := range sides {
				want = append(want, fmt.Sprintf("%s -workload %s -seed %d -seconds 20 -trace 0", s, w, seed))
			}
		}
	}
	if got := strings.Split(strings.TrimSpace(string(log)), "\n"); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("run order:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestSummarize checks the summary statistics on one metric: the median
// ratio, wins by direction with ties for neither side, and base's IQR over
// its median.
func TestSummarize(t *testing.T) {
	vals := [][2]float64{{900, 900}, {950, 1900}, {1000, 500}, {1050, 525}, {1100, 2200}}
	for _, higher := range []bool{true, false} {
		med, won, spread := summarize(vals, higher)
		if med != 1 || won != 2 || spread != 0.1 {
			t.Errorf("higher is better %v: median %v won %d spread %v, want 1 2 0.1", higher, med, won, spread)
		}
	}
}

// TestBenchmarkMustNameTheGate checks that a BENCHMARK.json without a gated
// workload or metric, or with an unknown direction, is refused instead of
// gating less than it should.
func TestBenchmarkMustNameTheGate(t *testing.T) {
	for _, edit := range [][2]string{
		{`, {"name": "cluster_repl"}`, ``},
		{`, {"name": "offline_repro"}`, ``},
		{`{"name": "predictions_per_s", "better": "higher"},`, ``},
		{`{"name": "sim_km_per_s", "better": "higher"},`, ``},
		{`{"name": "replay_samples_per_s", "better": "higher"},`, ``},
		{`,
    {"name": "latency_p99_ms", "better": "lower"}`, ``},
		{`"better": "lower"`, `"better": "less"`},
	} {
		body := strings.Replace(fakeBenchmark, edit[0], edit[1], 1)
		if body == fakeBenchmark {
			t.Fatalf("edit %q matches nothing", edit[0])
		}
		path := filepath.Join(t.TempDir(), "BENCHMARK.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadBenchmark(path); err == nil || strings.Contains(err.Error(), "parse") {
			t.Errorf("edit %q: err = %v, want a refusal of valid JSON", edit[0], err)
		}
	}
}
