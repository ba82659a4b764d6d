package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Event is one completion notice streamed by Runner.Run while a batch is
// executing: enough for a live progress line without waiting for the whole
// run to finish. Events arrive in completion order, which under -jobs N is
// generally not registry order.
type Event struct {
	// ID and Paper identify the finished experiment.
	ID    string
	Paper string
	// Done is how many specs have finished (including this one) out of
	// Total.
	Done  int
	Total int
	// Duration is the experiment's wall-clock time (zero when skipped).
	Duration time.Duration
	// Rows counts the rendered table rows produced.
	Rows int
	// Err is the experiment's failure, nil on success.
	Err error
	// Skipped marks specs cancelled before they started (fail-fast or
	// context cancellation).
	Skipped bool
}

// Result pairs a spec with its output table and run metrics. Runner.Run
// returns results in spec order regardless of completion order, so callers
// can render parallel runs byte-identically to sequential ones.
type Result struct {
	// Spec is the experiment that ran.
	Spec Spec
	// Table is the experiment's output (zero value on error/skip).
	Table Table
	// Metrics records wall time, drives, handover events and allocations.
	Metrics metrics.Experiment
	// Err is the experiment's failure, nil on success.
	Err error
	// Skipped marks specs cancelled before they started.
	Skipped bool
}

// Runner executes experiment specs on a bounded worker pool.
//
// Determinism: every spec receives its own copy of Options and derives all
// of its randomness from Options.Seed plus per-experiment salts
// (Options.RNG and the per-drive seeds), so no PRNG state is shared
// between workers and a parallel run produces tables byte-identical to a
// sequential run with the same seed. The race-enabled tests in this
// package hold that property honest.
type Runner struct {
	// Jobs bounds the worker pool; <= 0 means runtime.GOMAXPROCS(0).
	// Jobs == 1 reproduces the historical strictly-sequential behaviour.
	Jobs int
	// Options is the base configuration handed to every spec.
	Options Options
	// FailFast cancels the specs not yet started after the first error.
	// Experiments already in flight run to completion (specs take no
	// context), so cancellation is between experiments, not within one.
	FailFast bool
	// Events, when non-nil, receives one Event per spec as it completes.
	// Run blocks sending on it and does not close it; the caller must
	// drain the channel until Run returns.
	Events chan<- Event
}

// Run executes specs and returns one Result per spec, in spec order. The
// returned error is the first experiment failure (or ctx's error), with
// the remaining results still populated; fail-fast skips are reported via
// Result.Skipped rather than as run errors.
func (r *Runner) Run(ctx context.Context, specs []Spec) ([]Result, error) {
	opts := r.Options.withDefaults()
	jobs := r.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(specs) {
		jobs = len(specs)
	}
	if len(specs) == 0 {
		return nil, ctx.Err()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]Result, len(specs))
	var mu sync.Mutex // guards done and firstErr
	var done int
	var firstErr error

	// Every spec must yield a Result, skipped or not, so the pool itself
	// is never cancelled; runOne sees ctx and marks late specs skipped.
	fanOut(context.Background(), len(specs), jobs, func(i int) {
		res := runOne(ctx, specs[i], opts)
		results[i] = res

		mu.Lock()
		done++
		ev := Event{
			ID:       res.Spec.ID,
			Paper:    res.Spec.Paper,
			Done:     done,
			Total:    len(specs),
			Duration: time.Duration(res.Metrics.WallMS * float64(time.Millisecond)),
			Rows:     res.Metrics.Rows,
			Err:      res.Err,
			Skipped:  res.Skipped,
		}
		if res.Err != nil && !res.Skipped && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", res.Spec.ID, res.Err)
			if r.FailFast {
				cancel()
			}
		}
		mu.Unlock()

		if r.Events != nil {
			r.Events <- ev
		}
	})

	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return results, firstErr
}

// fanOut hands the indices [0, n) to jobs workers running do, stops
// feeding once ctx is done, and waits for the workers to finish. It
// returns ctx's error when cancellation left indices unhanded.
func fanOut(ctx context.Context, n, jobs int, do func(i int)) error {
	work := make(chan int)
	var wg sync.WaitGroup
	wg.Add(jobs)
	for w := 0; w < jobs; w++ {
		go func() {
			defer wg.Done()
			for i := range work {
				do(i)
			}
		}()
	}
	defer func() {
		close(work)
		wg.Wait()
	}()
	for i := 0; i < n; i++ {
		select {
		case work <- i:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// runOne executes a single spec with its own metrics probe, or marks it
// skipped when the run was already cancelled.
func runOne(ctx context.Context, spec Spec, opts Options) Result {
	if err := ctx.Err(); err != nil {
		return Result{
			Spec:    spec,
			Err:     err,
			Skipped: true,
			Metrics: metrics.Experiment{ID: spec.ID, Paper: spec.Paper, Err: err.Error(), Skipped: true},
		}
	}

	probe := new(metrics.Probe)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	tab, err := spec.Run(opts.WithProbe(probe))
	wall := time.Since(start)
	runtime.ReadMemStats(&after)

	m := metrics.Experiment{
		ID:         spec.ID,
		Paper:      spec.Paper,
		WallMS:     float64(wall) / float64(time.Millisecond),
		Rows:       len(tab.Rows),
		Drives:     probe.Drives(),
		HOEvents:   probe.HOEvents(),
		Allocs:     after.Mallocs - before.Mallocs,
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
	}
	if err != nil {
		m.Err = err.Error()
	}
	return Result{Spec: spec, Table: tab, Metrics: m, Err: err}
}

// BuildReport assembles the machine-readable run report for a finished
// batch: the run configuration plus every result's metrics, in spec order.
func BuildReport(opts Options, jobs int, wall time.Duration, results []Result) metrics.Report {
	opts = opts.withDefaults()
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	rep := metrics.Report{
		Seed:       opts.Seed,
		Scale:      opts.Scale,
		Jobs:       jobs,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		WallMS:     float64(wall) / float64(time.Millisecond),
	}
	for _, res := range results {
		rep.Experiments = append(rep.Experiments, res.Metrics)
	}
	return rep
}
