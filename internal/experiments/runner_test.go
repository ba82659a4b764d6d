package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/cellular"
	"repro/internal/topology"
)

// determinismOpts is the configuration the acceptance criteria pin down:
// every registered experiment at Scale 0.1 must render byte-identically
// whether run sequentially or on the worker pool.
func determinismOpts() Options { return Options{Seed: 11, Scale: 0.1} }

// determinismSpecs returns the registry, trimmed of the slow experiments
// under -short and under the race detector (which multiplies CPU time).
func determinismSpecs(t *testing.T) []Spec {
	specs := All()
	if !testing.Short() && !raceEnabled {
		return specs
	}
	var fast []Spec
	for _, s := range specs {
		if !trimmed(s.ID) {
			fast = append(fast, s)
		}
	}
	t.Logf("trimmed suite: running %d/%d experiments", len(fast), len(specs))
	return fast
}

// TestRunnerDeterminism renders every experiment through a sequential
// runner and a parallel runner and requires byte-identical tables.
func TestRunnerDeterminism(t *testing.T) {
	specs := determinismSpecs(t)

	// Neither run may fail as a whole, but an individual experiment is
	// allowed to error at this tiny scale (e.g. a drive too short to
	// observe a rare event) — determinism then means the parallel run
	// reproduces the exact same error.
	seq := Runner{Jobs: 1, Options: determinismOpts()}
	seqRes, _ := seq.Run(context.Background(), specs)
	par := Runner{Jobs: 4, Options: determinismOpts()}
	parRes, _ := par.Run(context.Background(), specs)

	for i := range specs {
		if seqRes[i].Spec.ID != specs[i].ID || parRes[i].Spec.ID != specs[i].ID {
			t.Fatalf("result %d out of spec order: seq=%s par=%s want %s",
				i, seqRes[i].Spec.ID, parRes[i].Spec.ID, specs[i].ID)
		}
		if se, pe := fmt.Sprint(seqRes[i].Err), fmt.Sprint(parRes[i].Err); se != pe {
			t.Errorf("%s: parallel error differs from sequential: %q vs %q", specs[i].ID, pe, se)
			continue
		}
		s, p := seqRes[i].Table.Render(), parRes[i].Table.Render()
		if s != p {
			t.Errorf("%s: parallel output differs from sequential:\n--- sequential\n%s\n--- parallel\n%s",
				specs[i].ID, s, p)
		}
		if seqRes[i].Metrics.Drives != parRes[i].Metrics.Drives ||
			seqRes[i].Metrics.HOEvents != parRes[i].Metrics.HOEvents {
			t.Errorf("%s: work attribution differs: seq %d drives/%d HOs, par %d drives/%d HOs",
				specs[i].ID, seqRes[i].Metrics.Drives, seqRes[i].Metrics.HOEvents,
				parRes[i].Metrics.Drives, parRes[i].Metrics.HOEvents)
		}
	}
}

// fakeSpec builds a spec around an arbitrary run function.
func fakeSpec(id string, run func(Options) (Table, error)) Spec {
	return Spec{ID: id, Paper: "test", Run: run}
}

// runLog records which fake specs executed. Specs run on pool workers,
// so the appends must be synchronized.
type runLog struct {
	mu  sync.Mutex
	ids []string
}

func (l *runLog) add(id string) {
	l.mu.Lock()
	l.ids = append(l.ids, id)
	l.mu.Unlock()
}

func (l *runLog) list() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.ids...)
}

func okSpec(id string, ran *runLog) Spec {
	return fakeSpec(id, func(Options) (Table, error) {
		ran.add(id)
		return Table{ID: id, Header: []string{"x"}, Rows: [][]string{{"1"}}}, nil
	})
}

// TestRunnerFailFast checks that the first error cancels every spec not
// yet started, and that the error is surfaced with the experiment id.
func TestRunnerFailFast(t *testing.T) {
	boom := errors.New("boom")
	ran := &runLog{}
	specs := []Spec{
		okSpec("a", ran),
		fakeSpec("bad", func(Options) (Table, error) { return Table{}, boom }),
		okSpec("b", ran),
		okSpec("c", ran),
	}
	r := Runner{Jobs: 1, FailFast: true}
	res, err := r.Run(context.Background(), specs)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if got := ran.list(); len(got) != 1 || got[0] != "a" {
		t.Errorf("executed %v, want only [a] (fail-fast must skip b and c)", got)
	}
	if res[1].Err == nil || res[1].Skipped {
		t.Errorf("bad spec: err=%v skipped=%v, want real error", res[1].Err, res[1].Skipped)
	}
	for _, i := range []int{2, 3} {
		if !res[i].Skipped {
			t.Errorf("spec %s not marked skipped", res[i].Spec.ID)
		}
		if !res[i].Metrics.Skipped || res[i].Metrics.Err == "" {
			t.Errorf("spec %s metrics %+v must record the skip", res[i].Spec.ID, res[i].Metrics)
		}
	}
}

// TestRunnerKeepsGoingWithoutFailFast checks the default mode matches the
// historical `vivisect all` behaviour: every experiment runs, errors are
// collected.
func TestRunnerKeepsGoingWithoutFailFast(t *testing.T) {
	boom := errors.New("boom")
	ran := &runLog{}
	specs := []Spec{
		fakeSpec("bad", func(Options) (Table, error) { return Table{}, boom }),
		okSpec("a", ran),
		okSpec("b", ran),
	}
	r := Runner{Jobs: 1}
	res, err := r.Run(context.Background(), specs)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if got := ran.list(); len(got) != 2 {
		t.Errorf("executed %v, want both a and b despite the earlier error", got)
	}
	for _, re := range res {
		if re.Skipped {
			t.Errorf("spec %s skipped without FailFast", re.Spec.ID)
		}
	}
}

// TestRunnerEvents checks the completion stream: one event per spec with
// coherent progress counters.
func TestRunnerEvents(t *testing.T) {
	ran := &runLog{}
	specs := []Spec{okSpec("a", ran), okSpec("b", ran), okSpec("c", ran)}
	events := make(chan Event, len(specs))
	r := Runner{Jobs: 2, Events: events}
	if _, err := r.Run(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	close(events)
	var dones []int
	ids := map[string]bool{}
	for ev := range events {
		if ev.Total != len(specs) {
			t.Errorf("event total %d, want %d", ev.Total, len(specs))
		}
		if ev.Err != nil || ev.Skipped {
			t.Errorf("unexpected failure event %+v", ev)
		}
		if ev.Rows != 1 {
			t.Errorf("event rows %d, want 1", ev.Rows)
		}
		dones = append(dones, ev.Done)
		ids[ev.ID] = true
	}
	sort.Ints(dones)
	if len(dones) != 3 || dones[0] != 1 || dones[2] != 3 {
		t.Errorf("done counters %v, want a permutation of 1..3", dones)
	}
	if !ids["a"] || !ids["b"] || !ids["c"] {
		t.Errorf("event ids %v incomplete", ids)
	}
}

// TestRunnerCancelledContext checks that a dead context skips everything.
func TestRunnerCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := &runLog{}
	r := Runner{Jobs: 2}
	res, err := r.Run(ctx, []Spec{okSpec("a", ran), okSpec("b", ran)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.list(); len(got) != 0 {
		t.Errorf("executed %v, want nothing on a cancelled context", got)
	}
	for _, re := range res {
		if !re.Skipped {
			t.Errorf("spec %s not skipped", re.Spec.ID)
		}
	}
}

// TestRunnerMetricsAttribution runs a real (tiny) drive through the probe
// plumbing and checks the per-experiment counters.
func TestRunnerMetricsAttribution(t *testing.T) {
	spec := fakeSpec("drive", func(opts Options) (Table, error) {
		log, err := opts.freewayDrive(topology.OpX(), cellular.ArchLTE, 2000, opts.Seed, true)
		if err != nil {
			return Table{}, err
		}
		return Table{
			ID:     "drive",
			Header: []string{"hos"},
			Rows:   [][]string{{fmtF(float64(len(log.Handovers)), 0)}},
		}, nil
	})
	r := Runner{Jobs: 1, Options: Options{Seed: 5, Scale: 1}}
	res, err := r.Run(context.Background(), []Spec{spec})
	if err != nil {
		t.Fatal(err)
	}
	m := res[0].Metrics
	if m.Drives != 1 {
		t.Errorf("Drives = %d, want 1", m.Drives)
	}
	if m.HOEvents < 0 {
		t.Errorf("HOEvents = %d", m.HOEvents)
	}
	if m.WallMS <= 0 {
		t.Errorf("WallMS = %v, want > 0", m.WallMS)
	}
	if m.Rows != 1 {
		t.Errorf("Rows = %d, want 1", m.Rows)
	}
	if m.ID != "drive" || m.Paper != "test" {
		t.Errorf("identity %q/%q", m.ID, m.Paper)
	}

	rep := BuildReport(r.Options, r.Jobs, 0, res)
	if rep.Seed != 5 || rep.Jobs != 1 || len(rep.Experiments) != 1 {
		t.Errorf("report %+v", rep)
	}
	var drives, hos int64
	for _, e := range rep.Experiments {
		drives, hos = drives+e.Drives, hos+e.HOEvents
	}
	if drives != 1 || hos != m.HOEvents {
		t.Errorf("report totals drives=%d hos=%d", drives, hos)
	}
}
