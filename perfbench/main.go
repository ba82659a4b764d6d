// Command perfbench is the repository benchmark: one process that runs a
// named workload from inputs generated from a seed, checks that the
// program's outputs are correct, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is split into an untraced and a traced half and the metrics are the
// per-layer ones, measured by spans around the benchmark's calls into each
// layer. Spans are written to the -out directory. See README.md for the
// workloads, the metrics and which layer metric should move which
// end-to-end metric.
//
//	go run . -workload serve_closed -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

// window returns the untraced and traced measuring times: the whole run
// untraced, or half and half when tracing.
func (c config) window() (untraced, traced time.Duration) {
	total := time.Duration(c.seconds * float64(time.Second))
	if !c.trace {
		return total, 0
	}
	return total / 2, total - total/2
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median. A traced run sets up once.
const setupRepeats = 5

type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics of an untraced run, as BENCHMARK.json names
// them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"predictions_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"sim_km_per_s", "km/s"},
	{"replay_samples_per_s", "1/s"},
	{"f1", "ratio"},
	{"rss_peak_mb", "MB"},
}

// perLayer lists the metrics of a traced run, as BENCHMARK.json names
// them. A workload reports 0 for a layer it does not drive (README.md
// lists which).
var perLayer = []metricDef{
	{"failed_frac", "ratio"},
	{"loadgen.latency_samples", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.send_us", "us"},
	{"loadgen.read_us", "us"},
	{"wire.bin_decode_ns", "ns"},
	{"wire.bin_encode_ns", "ns"},
	{"wire.jsonl_decode_ns", "ns"},
	{"wire.jsonl_encode_ns", "ns"},
	{"wire.bytes_in_per_pred", "B"},
	{"wire.bytes_out_per_pred", "B"},
	{"wire.allocs_per_record", "count"},
	{"server.span_p50_us", "us"},
	{"server.span_p99_us", "us"},
	{"server.outside_span_p50_us", "us"},
	{"server.reads_per_pred", "ratio"},
	{"server.session_errors", "count"},
	{"core.on_sample_ns", "ns"},
	{"core.predict_ns", "ns"},
	{"core.on_report_ns", "ns"},
	{"core.on_handover_ns", "ns"},
	{"core.snapshot_us", "us"},
	{"core.allocs_per_pred", "count"},
	{"core.patterns_live", "count"},
	{"core.actionable_frac", "ratio"},
	{"cluster.repl_pushes_per_s", "1/s"},
	{"cluster.repl_bytes_per_s", "B/s"},
	{"cluster.repl_lag_ms", "ms"},
	{"cluster.ship_replica_us", "us"},
	{"cluster.ship_migrate_us", "us"},
	{"cluster.state_bytes", "B"},
	{"cluster.probe_us", "us"},
	{"cluster.redirects", "count"},
	{"topology.deploy_ms", "ms"},
	{"sim.freeway.tick_us", "us"},
	{"sim.city.tick_us", "us"},
	{"sim.allocs_per_km", "count"},
	{"sim.ho_per_km", "1/km"},
	{"sim.reports_per_km", "1/km"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.heap_live_mb", "MB"},
	{"trace.overhead_frac", "ratio"},
	{"trace.stage_coverage", "ratio"},
}

// coverageMargin is the stage coverage below which a traced run reports
// that its spans miss a large part of the per-prediction cost. It is a
// finding, not a failure.
const coverageMargin = 0.5

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the final line of the benchmark's output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	defs      []metricDef
	notes     []string
}

func newResult(traced bool) *Result {
	r := &Result{Metrics: make(map[string]Metric), defs: endToEnd}
	if traced {
		r.defs = perLayer
	}
	return r
}

// set records a metric of the run's set; values for the other set are
// ignored, so workload code can compute both unconditionally.
func (r *Result) set(name string, v float64) {
	for _, d := range r.defs {
		if d.name == name {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				r.note("%s is not a number (%v); reported as 0", name, v)
				v = 0
			}
			r.Metrics[name] = Metric{Value: v, Unit: d.unit}
			return
		}
	}
}

func (r *Result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// complete fills every metric of the set the workload did not report with
// 0, noting which.
func (r *Result) complete() {
	var missing []string
	for _, d := range r.defs {
		if _, ok := r.Metrics[d.name]; !ok {
			r.Metrics[d.name] = Metric{Value: 0, Unit: d.unit}
			missing = append(missing, d.name)
		}
	}
	if len(missing) > 0 {
		r.note("not driven by this workload (reported as 0): %v", missing)
	}
}

// workloads maps each workload name to its runner. serve_open runs but is
// not in BENCHMARK.json: its spreads on the reference box exceed any
// allowed bound (README.md, Steadiness and bounds).
var workloads = map[string]func(config) (*Result, error){
	"serve_closed":  func(c config) (*Result, error) { return runServe(c, serveClosed) },
	"serve_open":    func(c config) (*Result, error) { return runServe(c, serveOpen) },
	"cluster_repl":  func(c config) (*Result, error) { return runServe(c, clusterRepl) },
	"offline_repro": runOffline,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: serve_closed, serve_open, offline_repro or cluster_repl")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measuring time of the run")
	flag.IntVar(&traceFlag, "trace", 0, "1: report per-layer metrics from a traced run")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench-spans"), "directory for span files")
	flag.Parse()
	cfg.trace = traceFlag == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %v), -seconds > 0 and -trace 0 or 1\n", names)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs())

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	res.complete()
	if res.Failed > 0 {
		res.Correct = false
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# perfbench %s seed=%d seconds=%g trace=%d procs=%d\n", cfg.workload, cfg.seed, cfg.seconds, traceFlag, procs())
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-30s %16.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range res.notes {
		fmt.Printf("# %s\n", n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(3)
	}
}
