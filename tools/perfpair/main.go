// Command perfpair is the nightly performance gate. It runs the repository
// benchmark (perfbench/run.sh) in two checkouts, BASE and HEAD, in
// alternating pairs on every workload BENCHMARK.json lists, prints each
// pair's end-to-end metrics side by side, and fails when serve-path
// throughput, simulator speed or offline replay speed at HEAD drops more
// than 15% below BASE, or when serve-path p99 latency at HEAD grows past
// 1.5 times BASE's.
//
// Usage:
//
//	go run ./tools/perfpair BASE HEAD
//
// BASE and HEAD are checkout roots; each builds its own perfbench, so on a
// commit that changes perfbench/ the two sides run different benchmarks.
// HEAD's BENCHMARK.json names the workloads, the end-to-end metrics with
// their direction, and the run length. Each workload runs seeds 1 to 5.
// BASE runs first on odd seeds and HEAD on even ones, so drift of a shared
// host falls on both sides alike.
//
// It prints one row per (workload, seed, metric) with base, head and
// head/base. Then it prints one summary line per (workload, metric): the
// median head/base, the pairs HEAD won (ties count for neither side), and
// the interquartile range of BASE's runs as a fraction of their median.
//
// It exits non-zero when a run exits non-zero, reports correct:false or
// reports failed>0; when a median head/base is below 0.85 on a throughput
// gate: predictions_per_s on serve_closed or cluster_repl, or sim_km_per_s
// or replay_samples_per_s on offline_repro; and when a median head/base is
// above 1.5 on a tail
// gate: latency_p99_ms on serve_closed or cluster_repl. A median that is
// not a number fails either kind. Nothing else gates.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

const (
	// seeds is the number of pairs per workload (seeds 1..seeds).
	seeds = 5
	// gateRatio is the lowest median head/base a throughput gate may keep:
	// the old nightly gate's −15% bound on serve-path predictions/s.
	gateRatio = 0.85
	// tailRatio is the highest median head/base a tail gate may reach.
	tailRatio = 1.5
)

// gate is one gated (workload, metric) pair.
type gate struct{ workload, metric string }

func (g gate) String() string { return g.workload + " " + g.metric }

// gates are the pairs held to gateRatio: serve-path throughput, and the
// simulator's and Prognos's replay speed on the paper-reproduction path.
// Replay speed gates only there: on the serve workloads the reference
// replay advances by the samples served, so it moves with server
// throughput.
var gates = []gate{
	{"serve_closed", "predictions_per_s"},
	{"cluster_repl", "predictions_per_s"},
	{"offline_repro", "sim_km_per_s"},
	{"offline_repro", "replay_samples_per_s"},
}

// tailGates are the pairs held to tailRatio: serve-path p99 latency. A
// stall in the session loop can make it several times worse while
// throughput stays inside gateRatio.
var tailGates = []gate{
	{"serve_closed", "latency_p99_ms"},
	{"cluster_repl", "latency_p99_ms"},
}

// benchmark is the part of BENCHMARK.json the gate reads.
type benchmark struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"end_to_end"`
}

// result is perfbench's final stdout line.
type result struct {
	Correct bool  `json:"correct"`
	Failed  int64 `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: perfpair BASE HEAD")
		os.Exit(2)
	}
	if err := run(os.Args[1], os.Args[2], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfpair: %v\n", err)
		os.Exit(1)
	}
}

// run plays every pair, prints the table and the summaries to out, and
// returns an error when a run fails or the gate does.
func run(base, head string, out io.Writer) error {
	b, err := loadBenchmark(filepath.Join(head, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	roots := [2]string{base, head}
	sides := [2]string{"base", "head"}
	var gateFailures []string
	fmt.Fprintf(out, "%-14s %4s  %-22s %14s %14s %9s\n", "workload", "seed", "metric", "base", "head", "head/base")
	for _, w := range b.Workloads {
		vals := make(map[string][][2]float64) // metric -> per-seed (base, head)
		for seed := 1; seed <= seeds; seed++ {
			var res [2]result
			first := (seed + 1) % 2 // base (0) on odd seeds, head (1) on even
			for _, i := range [2]int{first, 1 - first} {
				if res[i], err = runBench(roots[i], w.Name, seed, b.RunSeconds); err != nil {
					return fmt.Errorf("%s run of %s seed %d: %w", sides[i], w.Name, seed, err)
				}
			}
			for _, m := range b.EndToEnd {
				v := [2]float64{res[0].Metrics[m.Name].Value, res[1].Metrics[m.Name].Value}
				vals[m.Name] = append(vals[m.Name], v)
				fmt.Fprintf(out, "%-14s %4d  %-22s %14.6g %14.6g %9.3f\n", w.Name, seed, m.Name, v[0], v[1], v[1]/v[0])
			}
		}
		for _, m := range b.EndToEnd {
			med, won, spread := summarize(vals[m.Name], m.Better == "higher")
			fmt.Fprintf(out, "summary %-14s %-22s median head/base %.3f, head won %d/%d, base IQR %.1f%% of median\n",
				w.Name, m.Name, med, won, seeds, 100*spread)
			// Written as !(>=) and !(<=) so that a NaN median (no base
			// value) fails.
			g := gate{w.Name, m.Name}
			if slices.Contains(gates, g) && !(med >= gateRatio) {
				gateFailures = append(gateFailures, fmt.Sprintf("%s median head/base %.3f < %.2f", g, med, gateRatio))
			}
			if slices.Contains(tailGates, g) && !(med <= tailRatio) {
				gateFailures = append(gateFailures, fmt.Sprintf("%s median head/base %.3f > %.2f", g, med, tailRatio))
			}
		}
	}
	if len(gateFailures) > 0 {
		return fmt.Errorf("gate failed: %s", strings.Join(gateFailures, "; "))
	}
	fmt.Fprintf(out, "gate passed: median head/base >= %.2f on %s; <= %.2f on %s\n",
		gateRatio, join(gates), tailRatio, join(tailGates))
	return nil
}

// join lists gs, comma-separated.
func join(gs []gate) string {
	s := make([]string, len(gs))
	for i, g := range gs {
		s[i] = g.String()
	}
	return strings.Join(s, ", ")
}

// loadBenchmark reads BENCHMARK.json and checks that it still names what
// the gate reads, so that an edit to it cannot switch the gate off.
func loadBenchmark(path string) (benchmark, error) {
	var b benchmark
	raw, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return b, fmt.Errorf("parse %s: %w", path, err)
	}
	names := map[string]bool{}
	for _, w := range b.Workloads {
		names[w.Name] = true
	}
	for _, m := range b.EndToEnd {
		if m.Better != "higher" && m.Better != "lower" {
			return b, fmt.Errorf("%s: metric %s: better must be higher or lower, not %q", path, m.Name, m.Better)
		}
		names[m.Name] = true
	}
	for _, g := range slices.Concat(gates, tailGates) {
		for _, n := range []string{g.workload, g.metric} {
			if !names[n] {
				return b, fmt.Errorf("%s does not list %s, which the gate reads", path, n)
			}
		}
	}
	return b, nil
}

// runBench runs one untraced perfbench run from root and returns its
// result line.
func runBench(root, workload string, seed int, seconds float64) (result, error) {
	var r result
	var stdout bytes.Buffer
	cmd := exec.Command("bash", "perfbench/run.sh", "-workload", workload, "-seed", strconv.Itoa(seed),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Dir = root
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	parseErr := json.Unmarshal([]byte(lines[len(lines)-1]), &r)
	switch {
	case err != nil:
	case parseErr != nil:
		err = fmt.Errorf("last stdout line is not a result: %w", parseErr)
	case !r.Correct || r.Failed > 0:
		err = fmt.Errorf("correct=%v failed=%d", r.Correct, r.Failed)
	}
	if err != nil {
		os.Stderr.Write(stdout.Bytes()) // perfbench's metric table and notes say why
	}
	return r, err
}

// summarize returns the median head/base ratio, the pairs head won, and
// base's interquartile range over its median.
func summarize(vals [][2]float64, higherIsBetter bool) (median float64, won int, spread float64) {
	ratios := make([]float64, len(vals))
	bases := make([]float64, len(vals))
	for i, v := range vals {
		ratios[i], bases[i] = v[1]/v[0], v[0]
		if (higherIsBetter && v[1] > v[0]) || (!higherIsBetter && v[1] < v[0]) {
			won++
		}
	}
	sort.Float64s(ratios)
	sort.Float64s(bases)
	bm := quantile(bases, 0.5)
	return quantile(ratios, 0.5), won, (quantile(bases, 0.75) - quantile(bases, 0.25)) / bm
}

// quantile interpolates linearly between the order statistics of sorted.
func quantile(sorted []float64, p float64) float64 {
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
