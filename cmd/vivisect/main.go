// Command vivisect regenerates the paper's tables and figures from the
// simulated substrate.
//
// Usage:
//
//	vivisect list                 # list available experiments
//	vivisect <id> [...]           # run one or more experiments (e.g. fig8)
//	vivisect all                  # run everything in paper order
//	vivisect trace                # emit one drive's handover event trace
//	vivisect sweep                # fuzz generated carrier-policy portfolios
//	vivisect holoop               # adaptive-vs-static closed-loop comparison
//
// Flags come before the subcommand; trace, sweep and holoop also accept
// them after it, and take no other arguments.
//
// Flags:
//
//	-seed N         random seed (default 1)
//	-scale F        drive-length scale factor (default 1.0)
//	-jobs N         worker-pool size (default GOMAXPROCS; 1 = sequential)
//	-report FILE    write a per-experiment metrics report as JSON
//	-failfast       stop scheduling experiments after the first error
//	-cpuprofile F   write a pprof CPU profile of the run to F
//	-memprofile F   write a pprof heap profile (taken at exit) to F
//
// Trace mode (`vivisect trace`) runs a single simulated drive with an
// obs.Tracer attached and writes its handover-trigger event stream as
// JSONL — the same schema the serving daemon exposes at /events, so one
// toolchain debugs both the simulator's mobility decisions and the live
// serving pipeline. -carrier/-arch/-route/-length shape the drive and
// -trace-file picks the output (stdout by default). The stream carries
// sim-time coordinates only (no wall clock), so equal seeds give
// byte-identical traces.
//
// Sweep mode (`vivisect sweep`) generates -carriers policy portfolios from
// -seed (internal/policygen), drives each under an online Prognos learner,
// and reports time-to-F1-threshold, the F1 floor, and — with -drift — the
// post-rewrite re-convergence time. -report writes the full JSON report
// (byte-identical at any -jobs); -ops-addr serves live sweep progress on
// the ops plane while the run is underway.
//
// Holoop mode (`vivisect holoop`) closes the prediction loop: -ues city
// drives are each simulated twice over identical seed/route/deployment —
// once under the static carrier policy, once with Prognos forecasts steering
// a ran.AdaptiveController (early-prep, skip-ahead, TTT/hysteresis
// adaptation; -early-prep/-skip-ahead/-adapt-ttt toggle them) — and the
// ping-pong rate, interruption time, QoE and in-loop F1 of the two arms are
// compared. -gate turns the comparison into a CI check: exit non-zero unless
// the adaptive arm's ping-pong rate is below the static arm's while its F1
// stays within -f1-epsilon. -report writes the full JSON report
// (byte-identical at any -jobs).
//
// Tables are printed to stdout in registry order and are byte-identical
// for any -jobs value at the same seed; live progress and the run summary
// go to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"repro/internal/cellular"
	"repro/internal/experiments"
	"repro/internal/geo"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/ran"
	"repro/internal/sim"
	"repro/internal/topology"
)

func main() {
	seed := flag.Int64("seed", 1, "random seed")
	scale := flag.Float64("scale", 1.0, "experiment scale factor")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "worker-pool size (1 = sequential)")
	report := flag.String("report", "", "write a JSON metrics report to this file")
	failfast := flag.Bool("failfast", false, "cancel pending experiments after the first error")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile (at exit) to this file")
	carrier := flag.String("carrier", "OpX", "trace mode: carrier profile (OpX/OpY/OpZ)")
	archName := flag.String("arch", "NSA", "trace mode: architecture (LTE/NSA/SA)")
	routeName := flag.String("route", "freeway", "trace mode: drive route kind (freeway/city-loop)")
	lengthM := flag.Float64("length", 20000, "trace mode: route length in metres")
	traceFile := flag.String("trace-file", "", "trace mode: write the event JSONL here (default stdout)")
	carriers := flag.Int("carriers", 100, "sweep mode: number of generated carrier portfolios")
	drift := flag.Bool("drift", false, "sweep mode: rewrite each carrier's policy mid-run")
	driveSeconds := flag.Float64("drive-seconds", 600, "sweep mode: minimum sim seconds per carrier")
	f1Threshold := flag.Float64("f1-threshold", 0.6, "sweep mode: convergence F1 bar")
	opsAddr := flag.String("ops-addr", "", "sweep mode: serve live sweep metrics on this address")
	ues := flag.Int("ues", 64, "holoop mode: number of UE drive pairs")
	gate := flag.Bool("gate", false, "holoop mode: exit non-zero unless adaptive beats static on ping-pong with F1 within -f1-epsilon")
	f1Epsilon := flag.Float64("f1-epsilon", 0.05, "holoop mode: max tolerated adaptive F1 shortfall under -gate")
	earlyPrep := flag.Bool("early-prep", true, "holoop mode: enable predictive early preparation")
	skipAhead := flag.Bool("skip-ahead", true, "holoop mode: enable skip-ahead target selection")
	adaptTTT := flag.Bool("adapt-ttt", true, "holoop mode: enable adaptive TTT/hysteresis")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}

	switch args[0] {
	case "trace", "sweep", "holoop":
		// Accept flags after the subcommand too (`vivisect trace -seed 3`):
		// flag.Parse stops at the first positional argument, so re-parse
		// the remainder into the same flag set. These subcommands take no
		// positional arguments.
		if err := flag.CommandLine.Parse(args[1:]); err != nil {
			os.Exit(2)
		}
		if flag.NArg() > 0 {
			fmt.Fprintf(os.Stderr, "vivisect: %s: unexpected argument %q\n", args[0], flag.Arg(0))
			usage()
			os.Exit(2)
		}
	}

	opts := experiments.Options{Seed: *seed, Scale: *scale}
	var specs []experiments.Spec
	switch args[0] {
	case "list":
		for _, s := range experiments.All() {
			fmt.Printf("%-8s %s\n", s.ID, s.Paper)
		}
		return
	case "trace":
		os.Exit(runTrace(*seed, *carrier, *archName, *routeName, *lengthM, *traceFile))
	case "sweep":
		os.Exit(runSweep(experiments.SweepConfig{
			Carriers: *carriers, Seed: *seed, Drift: *drift, Jobs: *jobs,
			DriveSeconds: *driveSeconds, F1Threshold: *f1Threshold,
		}, *report, *opsAddr))
	case "holoop":
		adaptive := *ran.DefaultAdaptive()
		adaptive.EarlyPrep, adaptive.SkipAhead, adaptive.AdaptTTT = *earlyPrep, *skipAhead, *adaptTTT
		os.Exit(runHOLoop(experiments.HOLoopConfig{
			UEs: *ues, Seed: *seed, Jobs: *jobs, DriveSeconds: *driveSeconds,
			Adaptive: adaptive,
		}, *report, *gate, *f1Epsilon))
	case "all":
		specs = experiments.All()
	default:
		bad := 0
		for _, id := range args {
			s, err := experiments.ByID(id)
			if err != nil {
				fmt.Fprintf(os.Stderr, "vivisect: %v\n", err)
				bad++
				continue
			}
			specs = append(specs, s)
		}
		if bad > 0 {
			os.Exit(1)
		}
	}

	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vivisect: %v\n", err)
		os.Exit(1)
	}
	code := run(specs, opts, *jobs, *failfast, *report)
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "vivisect: %v\n", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// runTrace simulates one drive with an event tracer attached and writes
// the handover-trigger stream as JSONL. The tracer's wall clock is
// disabled so the output is a pure function of the configuration — equal
// seeds diff clean.
func runTrace(seed int64, carrierName, archName, routeName string, lengthM float64, outPath string) int {
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "vivisect: trace: %v\n", err)
		return 1
	}
	carrier, err := topology.CarrierByName(carrierName)
	if err != nil {
		return fail(err)
	}
	arch, err := cellular.ParseArch(archName)
	if err != nil {
		return fail(err)
	}
	route, err := geo.ParseRouteKind(routeName)
	if err != nil {
		return fail(err)
	}

	// Size the ring to the drive: handover counts grow with route length
	// (roughly one HO per 100 m in dense city deployments), so 1<<16
	// comfortably holds any configurable drive without ever dropping.
	tracer := obs.NewTracer(1 << 16)
	tracer.SetWallClock(nil)
	log, err := sim.Run(sim.Config{
		Carrier:      carrier,
		Arch:         arch,
		RouteKind:    route,
		RouteLengthM: lengthM,
		Seed:         seed,
		Tracer:       tracer,
	})
	if err != nil {
		return fail(err)
	}

	var w io.Writer = os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		w = f
	}
	if err := tracer.WriteJSONL(w); err != nil {
		return fail(err)
	}
	fmt.Fprintf(os.Stderr, "trace: %s/%s %s drive, seed %d: %d samples, %d reports, %d handovers, %d events\n",
		carrier.Name, arch, route, seed,
		len(log.Samples), len(log.Reports), len(log.Handovers), tracer.Total())
	return 0
}

// runSweep executes a carrier-policy portfolio sweep: generate a seeded
// population, drive each carrier under an online learner, and report the
// convergence statistics. The JSON report (and the stdout summary) are
// byte-identical at any -jobs value. With opsAddr set, the ops plane
// serves the sweep's progress while it runs.
func runSweep(cfg experiments.SweepConfig, reportPath, opsAddr string) int {
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "vivisect: sweep: %v\n", err)
		return 1
	}
	var stats metrics.SweepStats
	stats.Start(cfg.Carriers)
	if opsAddr != "" {
		reg := obs.NewRegistry()
		obs.RegisterSweepMetrics(reg, stats.Snapshot)
		plane, err := obs.Listen(opsAddr, obs.Config{Registry: reg})
		if err != nil {
			return fail(err)
		}
		defer plane.Close()
		fmt.Fprintf(os.Stderr, "sweep: ops plane on http://%s/metrics\n", plane.Addr())
	}

	start := time.Now()
	var done atomic.Int64
	cfg.OnCarrier = func(c metrics.SweepCarrier) {
		stats.Observe(c)
		n := done.Add(1)
		status := "converged"
		switch {
		case c.Error != "":
			status = "FAILED: " + c.Error
		case !c.Converged:
			status = "did not converge"
		}
		fmt.Fprintf(os.Stderr, "[%d/%d] %s %s\n", n, cfg.Carriers, c.Name, status)
	}
	rep, err := experiments.RunSweep(context.Background(), cfg)
	if err != nil {
		return fail(err)
	}
	wall := time.Since(start)

	s := rep.Summary
	fmt.Printf("policy sweep: seed %d, %d carriers, drift=%v, F1 bar %.2f\n",
		rep.Seed, s.Carriers, rep.Drift, rep.F1Threshold)
	fmt.Printf("  converged        %d/%d (median %.0fs to F1, p90 %.0fs)\n",
		s.Converged, s.Carriers-s.Errors, s.MedianTimeToF1S, s.P90TimeToF1S)
	if rep.Drift {
		fmt.Printf("  re-converged     %d/%d after drift at %.0fs (median %.0fs, p90 %.0fs)\n",
			s.Reconverged, s.Carriers-s.Errors, rep.DriftAtS, s.MedianReconvergeS, s.P90ReconvergeS)
	}
	fmt.Printf("  F1 floor         %.3f (p10 %.3f, median %.3f)\n", s.F1Floor, s.F1FloorP10, s.F1FloorMedian)
	fmt.Printf("  median final F1  %.3f\n", s.MedianFinalF1)
	if s.Errors > 0 {
		fmt.Printf("  errors           %d\n", s.Errors)
	}
	fmt.Fprintf(os.Stderr, "sweep: %d carriers in %v wall\n", s.Carriers, wall.Round(time.Millisecond))

	if reportPath != "" {
		if err := metrics.WriteJSON(reportPath, rep); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "sweep report written to %s\n", reportPath)
	}
	if s.Errors > 0 {
		return 1
	}
	return 0
}

// startProfiles begins CPU profiling (when requested) and returns a stop
// function that finishes the CPU profile and snapshots the heap profile.
// Profiles are written on normal exit only, matching `go test`'s
// -cpuprofile/-memprofile behaviour.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("cpuprofile: %w", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("memprofile: %w", err)
			}
			defer f.Close()
			runtime.GC() // capture the settled live heap, as `go test` does
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("memprofile: %w", err)
			}
		}
		return nil
	}, nil
}

// run executes the batch and prints tables (stdout), progress and summary
// (stderr). It returns the process exit code.
func run(specs []experiments.Spec, opts experiments.Options, jobs int, failfast bool, reportPath string) int {
	var done atomic.Int64
	progress := func(res experiments.Result) {
		n, id := done.Add(1), res.Spec.ID
		switch {
		case res.Skipped:
			fmt.Fprintf(os.Stderr, "[%d/%d] %-8s skipped\n", n, len(specs), id)
		case res.Err != nil:
			fmt.Fprintf(os.Stderr, "[%d/%d] %-8s FAILED: %v\n", n, len(specs), id, res.Err)
		default:
			wall := time.Duration(res.Metrics.WallMS * float64(time.Millisecond))
			fmt.Fprintf(os.Stderr, "[%d/%d] %-8s ok  %8s  %3d rows  (%s)\n",
				n, len(specs), id, wall.Round(time.Millisecond), res.Metrics.Rows, res.Spec.Paper)
		}
	}

	r := experiments.Runner{Jobs: jobs, Options: opts, FailFast: failfast, OnResult: progress}
	start := time.Now()
	results, err := r.Run(context.Background(), specs)
	wall := time.Since(start)

	// Tables in spec order: stdout stays byte-identical across -jobs.
	for _, res := range results {
		if res.Err != nil {
			fmt.Fprintf(os.Stderr, "vivisect: %s: %v\n", res.Spec.ID, res.Err)
			continue
		}
		fmt.Print(res.Table.Render())
		fmt.Println()
	}

	summarize(results, wall)

	if reportPath != "" {
		rep := experiments.BuildReport(opts, jobs, wall, results)
		if werr := metrics.WriteJSON(reportPath, rep); werr != nil {
			fmt.Fprintf(os.Stderr, "vivisect: %v\n", werr)
			return 1
		}
		fmt.Fprintf(os.Stderr, "metrics report written to %s\n", reportPath)
	}

	if err != nil {
		return 1
	}
	return 0
}

// summarize prints the per-experiment summary table to stderr.
func summarize(results []experiments.Result, wall time.Duration) {
	t := experiments.Table{
		ID:     "summary",
		Title:  "run summary",
		Header: []string{"id", "paper", "wall", "rows", "drives", "HOs", "status"},
	}
	var drives, hos int64
	failed, skipped := 0, 0
	for _, res := range results {
		m := res.Metrics
		status := "ok"
		switch {
		case res.Skipped:
			status, skipped = "skipped", skipped+1
		case res.Err != nil:
			status, failed = "FAILED", failed+1
		}
		drives += m.Drives
		hos += m.HOEvents
		t.Rows = append(t.Rows, []string{
			m.ID, m.Paper,
			(time.Duration(m.WallMS * float64(time.Millisecond))).Round(time.Millisecond).String(),
			fmt.Sprint(m.Rows), fmt.Sprint(m.Drives), fmt.Sprint(m.HOEvents), status,
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"%d experiments in %v wall (%d drives, %d handover events; %d failed, %d skipped)",
		len(results), wall.Round(time.Millisecond), drives, hos, failed, skipped))
	fmt.Fprint(os.Stderr, t.Render())
}

func usage() {
	fmt.Fprintf(os.Stderr, `vivisect regenerates the paper's tables and figures.

usage: vivisect [flags] list | all | <experiment-id> [...]
       vivisect [flags] trace | sweep | holoop [flags]

flags:
`)
	flag.PrintDefaults()
}
