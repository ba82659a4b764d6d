package obs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TestExpositionGolden pins the exposition encoder's exact output for a
// seeded registry: one counter, one gauge, one histogram with known
// observations. Series are sorted by name; histogram buckets are
// cumulative with second-valued le bounds.
func TestExpositionGolden(t *testing.T) {
	var h metrics.Histogram
	h.Observe(1000 * time.Nanosecond)
	h.Observe(3000 * time.Nanosecond)

	r := obs.NewRegistry()
	r.Counter("requests_total", "Requests served.", func() float64 { return 42 })
	r.Gauge("queue_depth", "Items in queue.", func() float64 { return 3.5 })
	r.Histogram("test_latency_seconds", "Request latency.", h.Snapshot)

	const want = `# HELP queue_depth Items in queue.
# TYPE queue_depth gauge
queue_depth 3.5
# HELP requests_total Requests served.
# TYPE requests_total counter
requests_total 42
# HELP test_latency_seconds Request latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="1.023e-06"} 1
test_latency_seconds_bucket{le="3.0710000000000003e-06"} 2
test_latency_seconds_bucket{le="+Inf"} 2
test_latency_seconds_sum 4e-06
test_latency_seconds_count 2
`
	var b strings.Builder
	if err := r.Render(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestExpositionLabeledGolden pins the labeled exposition: registry-wide
// const labels land on every sample (including each histogram bucket,
// before le), per-series labels merge in sorted key order, and the
// build_info identity gauge renders the version pair over a constant 1.
func TestExpositionLabeledGolden(t *testing.T) {
	var h metrics.Histogram
	h.Observe(1000 * time.Nanosecond)

	r := obs.NewRegistry()
	r.SetConstLabels(map[string]string{"node": "127.0.0.1:9000"})
	r.Counter("requests_total", "Requests served.", func() float64 { return 42 })
	r.Histogram("test_latency_seconds", "Request latency.", h.Snapshot)
	obs.RegisterBuildInfoValues(r, "go1.24", "abc123def456")

	const want = `# HELP prognos_build_info Build identity of this binary: constant 1 with the version labels.
# TYPE prognos_build_info gauge
prognos_build_info{go_version="go1.24",node="127.0.0.1:9000",revision="abc123def456"} 1
# HELP requests_total Requests served.
# TYPE requests_total counter
requests_total{node="127.0.0.1:9000"} 42
# HELP test_latency_seconds Request latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{node="127.0.0.1:9000",le="1.023e-06"} 1
test_latency_seconds_bucket{node="127.0.0.1:9000",le="+Inf"} 1
test_latency_seconds_sum{node="127.0.0.1:9000"} 1e-06
test_latency_seconds_count{node="127.0.0.1:9000"} 1
`
	var b strings.Builder
	if err := r.Render(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != want {
		t.Errorf("labeled exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Clearing the const labels restores bare per-series output.
	r.SetConstLabels(nil)
	b.Reset()
	if err := r.Render(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); !strings.Contains(got, "\nrequests_total 42\n") {
		t.Errorf("clearing const labels did not restore bare samples:\n%s", got)
	}
	if !strings.Contains(b.String(), `prognos_build_info{go_version="go1.24",revision="abc123def456"} 1`) {
		t.Errorf("per-series labels lost after clearing const labels:\n%s", b.String())
	}
}

// TestRegisterBuildInfo exercises the debug.ReadBuildInfo path: under go
// test the revision is unknown, but the go_version label must match the
// running toolchain and the value must be 1.
func TestRegisterBuildInfo(t *testing.T) {
	r := obs.NewRegistry()
	obs.RegisterBuildInfo(r)
	var b strings.Builder
	if err := r.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `go_version="`+runtime.Version()+`"`) {
		t.Errorf("build_info missing toolchain version %s:\n%s", runtime.Version(), b.String())
	}
	if !strings.Contains(b.String(), "prognos_build_info{") {
		t.Errorf("build_info series missing:\n%s", b.String())
	}
}

// TestServerMetricsRoundTrip renders the full prognosd metric family over
// a canned snapshot and checks the parsed values land on the snapshot's
// fields — the same path the fleet's end-of-run cross-check takes.
func TestServerMetricsRoundTrip(t *testing.T) {
	snap := metrics.ServerSnapshot{
		UptimeMS:           12_000,
		Sessions:           7,
		Active:             2,
		Samples:            140,
		Reports:            9,
		Handovers:          4,
		Predictions:        140,
		Rejected:           1,
		SessionErrors:      3,
		Oversized:          1,
		Interrupted:        5,
		Resumed:            4,
		Parked:             1,
		ParkedExpired:      1,
		CheckpointSaves:    2,
		CheckpointRestores: 1,
		CheckpointBytes:    2048,
		Redirected:         6,
		MigratedOut:        3,
		MigratedIn:         2,
		MigratedResumes:    2,
		MigrationBytesOut:  4096,
		MigrationBytesIn:   1024,
		MigrationPasses:    1,
		MigrationLastUS:    1_500_000,

		ReplicationPushes:   11,
		ReplicationBytesOut: 8192,
		ReplicationBytesIn:  512,
		ReplicationLagUS:    250_000,
		ReplicaSessions:     5,
		PeerSuspects:        1,
		Failovers:           2,
	}
	r := obs.NewRegistry()
	obs.RegisterServerMetrics(r, func() metrics.ServerSnapshot { return snap })

	var b strings.Builder
	if err := r.Render(&b); err != nil {
		t.Fatal(err)
	}
	got, err := obs.ParseMetrics(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"prognos_uptime_seconds":                            12,
		"prognos_sessions_total":                            7,
		"prognos_active_sessions":                           2,
		"prognos_samples_total":                             140,
		"prognos_reports_total":                             9,
		"prognos_handovers_total":                           4,
		"prognos_predictions_total":                         140,
		"prognos_rejected_sessions_total":                   1,
		"prognos_session_errors_total":                      3,
		"prognos_oversized_records_total":                   1,
		"prognos_interrupted_sessions_total":                5,
		"prognos_resumed_sessions_total":                    4,
		"prognos_parked_sessions":                           1,
		"prognos_expired_parked_sessions_total":             1,
		"prognos_checkpoint_saves_total":                    2,
		"prognos_checkpoint_restores_total":                 1,
		"prognos_checkpoint_bytes":                          2048,
		"prognos_redirected_sessions_total":                 6,
		"prognos_migrated_out_sessions_total":               3,
		"prognos_migrated_in_sessions_total":                2,
		"prognos_migrated_resumes_total":                    2,
		"prognos_migration_bytes_out_total":                 4096,
		"prognos_migration_bytes_in_total":                  1024,
		"prognos_migration_passes_total":                    1,
		"prognos_migration_last_seconds":                    1.5,
		"prognos_replication_pushes_total":                  11,
		"prognos_replication_bytes_total":                   8192,
		"prognos_replication_bytes_in_total":                512,
		"prognos_replication_lag_seconds":                   0.25,
		"prognos_replica_sessions":                          5,
		"prognos_peer_suspect":                              1,
		"prognos_failovers_total":                           2,
		"prognos_request_latency_seconds_count":             0,
		`prognos_request_latency_seconds_bucket{le="+Inf"}`: 0,
	} {
		if got[name] != want {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
}

var update = flag.Bool("update", false, "rewrite the server exposition and stats JSON goldens")

// cannedSnapshot is a server snapshot with a distinct value in every
// field, so a swapped selector, name or divisor changes the goldens. Its
// µs fields are chosen so dividing by 1e6 and multiplying by 1e-6 render
// differently (5e-06 against 4.9999999999999996e-06).
func cannedSnapshot() metrics.ServerSnapshot {
	var h metrics.Histogram
	h.Observe(3 * time.Microsecond)
	h.Observe(40 * time.Microsecond)
	h.Observe(40 * time.Microsecond)
	h.Observe(2 * time.Millisecond)
	return metrics.ServerSnapshot{
		UptimeMS:            12_345.5,
		Sessions:            101,
		Active:              2,
		Samples:             14_003,
		Reports:             904,
		Handovers:           405,
		Predictions:         14_006,
		Rejected:            7,
		SessionErrors:       8,
		Oversized:           9,
		Interrupted:         10,
		Resumed:             11,
		Parked:              12,
		ParkedExpired:       13,
		CheckpointSaves:     14,
		CheckpointRestores:  15,
		CheckpointBytes:     2_016,
		Redirected:          17,
		MigratedOut:         18,
		MigratedIn:          19,
		MigratedResumes:     20,
		MigrationBytesOut:   4_021,
		MigrationBytesIn:    1_022,
		MigrationPasses:     23,
		MigrationLastUS:     5,
		ReplicationPushes:   25,
		ReplicationBytesOut: 8_026,
		ReplicationBytesIn:  527,
		ReplicationLagUS:    250_028,
		ReplicaSessions:     29,
		PeerSuspects:        30,
		Failovers:           31,
		Latency:             h.Snapshot(),
	}
}

// checkGolden compares got with testdata/name, rewriting the file under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := "testdata/" + name
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestServerExpositionGolden pins the whole prognosd metric family byte
// for byte: every HELP and TYPE line, the series order and each value's
// rendering, over the canned snapshot.
func TestServerExpositionGolden(t *testing.T) {
	snap := cannedSnapshot()
	r := obs.NewRegistry()
	obs.RegisterServerMetrics(r, func() metrics.ServerSnapshot { return snap })
	var b strings.Builder
	if err := r.Render(&b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "server_metrics.prom", []byte(b.String()))
}

// TestServerMetricsOneSnapshotPerRender pins that a render reads the whole
// prognosd family from one server snapshot: one snap call per Render, and
// under concurrent renders every series of one exposition comes from the
// same snapshot (each snapshot stamps its ordinal into two counters, which
// must render equal).
func TestServerMetricsOneSnapshotPerRender(t *testing.T) {
	var calls atomic.Int64
	r := obs.NewRegistry()
	obs.RegisterServerMetrics(r, func() metrics.ServerSnapshot {
		snap := cannedSnapshot()
		n := calls.Add(1)
		snap.Samples, snap.Predictions = n, n
		return snap
	})
	render := func() map[string]float64 {
		var b strings.Builder
		if err := r.Render(&b); err != nil {
			t.Error(err)
			return nil
		}
		got, err := obs.ParseMetrics(strings.NewReader(b.String()))
		if err != nil {
			t.Error(err)
		}
		return got
	}
	for i := 1; i <= 3; i++ {
		render()
		if got := calls.Load(); got != int64(i) {
			t.Fatalf("%d renders took %d snapshots, want %d", i, got, i)
		}
	}

	const workers, renders = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < renders; i++ {
				got := render()
				if s, p := got["prognos_samples_total"], got["prognos_predictions_total"]; s != p {
					t.Errorf("one exposition mixes snapshots: samples %v, predictions %v", s, p)
				}
			}
		}()
	}
	wg.Wait()
	if got, want := calls.Load(), int64(3+workers*renders); got != want {
		t.Errorf("%d renders took %d snapshots, want one each", want, got)
	}
}

// TestStatsHelloJSONGolden pins the stats hello's answer for the canned
// snapshot: the server writes it with a json.Encoder, so this is the byte
// stream a {"stats":true} client reads.
func TestStatsHelloJSONGolden(t *testing.T) {
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(cannedSnapshot()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "stats_hello.json", b.Bytes())
}

// TestTracerRingOverwrite pins the ring semantics: past the capacity the
// oldest events are overwritten FIFO, Seq keeps counting globally, and
// Events() returns the surviving window oldest-first.
func TestTracerRingOverwrite(t *testing.T) {
	tr := obs.NewTracer(4)
	tr.SetWallClock(func() int64 { return 99 })
	for i := 0; i < 10; i++ {
		tr.Emit(obs.Event{Kind: obs.EvHOTrigger, MRSeq: int64(i)})
	}
	if got := tr.Total(); got != 10 {
		t.Errorf("Total() = %d, want 10", got)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("Events() returned %d events, want 4", len(evs))
	}
	// Seq counts past overwrites, so the oldest survivor's seq shows how
	// many events the ring dropped.
	if dropped := evs[0].Seq - 1; dropped != 6 {
		t.Errorf("oldest retained seq %d shows %d dropped events, want 6", evs[0].Seq, dropped)
	}
	for i, e := range evs {
		wantSeq := uint64(7 + i)
		if e.Seq != wantSeq || e.MRSeq != int64(6+i) {
			t.Errorf("event %d = seq %d mr %d, want seq %d mr %d", i, e.Seq, e.MRSeq, wantSeq, 6+i)
		}
		if e.WallNS != 99 {
			t.Errorf("event %d wall %d, want pinned 99", i, e.WallNS)
		}
	}
}

// TestTracerMirror checks the -trace-file hook: every emitted event is
// written through as one JSON line at emit time, including ones the ring
// later overwrites.
func TestTracerMirror(t *testing.T) {
	var sink strings.Builder
	tr := obs.NewTracer(2)
	tr.SetWallClock(nil)
	tr.MirrorTo(&sink)
	for i := 0; i < 5; i++ {
		tr.Emit(obs.Event{Kind: obs.EvSessionOpen, Session: "s"})
	}
	if got := strings.Count(sink.String(), "\n"); got != 5 {
		t.Errorf("mirror captured %d lines, want 5 (ring cap must not bound the mirror)", got)
	}
}

// TestPlaneEndpoints drives the handler through httptest: /healthz,
// /metrics content type, /events JSONL with kind filtering, and the pprof
// index.
func TestPlaneEndpoints(t *testing.T) {
	tr := obs.NewTracer(16)
	tr.SetWallClock(nil)
	tr.Emit(obs.Event{Kind: obs.EvSessionOpen, Session: "a"})
	tr.Emit(obs.Event{Kind: obs.EvHOScore, Session: "a", Score: 0.4})
	reg := obs.NewRegistry()
	reg.Counter("x_total", "X.", func() float64 { return 1 })

	ts := httptest.NewServer(obs.NewHandler(obs.Config{Registry: reg, Tracer: tr}))
	defer ts.Close()

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 32<<10)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp, b.String()
	}

	resp, body := get("/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", resp.StatusCode, body)
	}
	resp, body = get("/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/readyz with nil Ready = %d %q", resp.StatusCode, body)
	}
	resp, body = get("/metrics")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != obs.ContentType {
		t.Errorf("/metrics = %d, content type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if !strings.Contains(body, "x_total 1") {
		t.Errorf("/metrics body missing series:\n%s", body)
	}
	_, body = get("/events")
	if got := strings.Count(body, "\n"); got != 2 {
		t.Errorf("/events returned %d lines, want 2:\n%s", got, body)
	}
	_, body = get("/events?kind=" + obs.EvHOScore)
	if got := strings.Count(body, "\n"); got != 1 || !strings.Contains(body, `"ho_score"`) {
		t.Errorf("/events?kind=ho_score = %q", body)
	}
	resp, _ = get("/debug/pprof/")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ = %d", resp.StatusCode)
	}
	resp, _ = get("/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/nope = %d, want 404", resp.StatusCode)
	}
}

// TestReadyzFlipsDuringDrain wires /readyz to a live server's Draining
// probe, exactly as prognosd does, and checks the flip: ready while
// serving, 503 the moment a drain begins.
func TestReadyzFlipsDuringDrain(t *testing.T) {
	srv, err := server.ListenWith("127.0.0.1:0", server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ts := httptest.NewServer(obs.NewHandler(obs.Config{
		Ready: func() bool { return !srv.Draining() },
	}))
	defer ts.Close()

	status := func() int {
		t.Helper()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status(); got != http.StatusOK {
		t.Fatalf("/readyz while serving = %d, want 200", got)
	}
	if err := srv.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := status(); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after drain = %d, want 503", got)
	}
}

// TestServerTracerEvents runs one real prediction session against a
// tracer-equipped server and checks the lifecycle events arrive with
// their deployment context.
func TestServerTracerEvents(t *testing.T) {
	tr := obs.NewTracer(64)
	srv, err := server.ListenWith("127.0.0.1:0", server.Options{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := server.Dial(srv.Addr(), wire.Hello{Carrier: "OpX", Arch: cellular.ArchNSA})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.SendSample(trace.Sample{Arch: cellular.ArchNSA, ServingLTE: trace.CellObs{PCI: 1, Valid: true, RSRP: -85}}); err != nil {
		t.Fatal(err)
	}
	client.Close()

	deadline := time.Now().Add(2 * time.Second)
	for {
		kinds := make(map[string]obs.Event)
		for _, e := range tr.Events() {
			kinds[e.Kind] = e
		}
		open, haveOpen := kinds[obs.EvSessionOpen]
		_, haveClose := kinds[obs.EvSessionClose]
		if haveOpen && haveClose {
			if open.Carrier != "OpX" || open.Arch != "NSA" {
				t.Errorf("session_open context = %q/%q, want OpX/NSA", open.Carrier, open.Arch)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("session events never arrived; have %v", kinds)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestParseMetricsErrors covers the parser's failure modes.
func TestParseMetricsErrors(t *testing.T) {
	if _, err := obs.ParseMetrics(strings.NewReader("busted\n")); err == nil {
		t.Error("malformed line parsed")
	}
	if _, err := obs.ParseMetrics(strings.NewReader("name notafloat\n")); err == nil {
		t.Error("bad value parsed")
	}
	m, err := obs.ParseMetrics(strings.NewReader("# HELP a b\n\na 1\n"))
	if err != nil || m["a"] != 1 {
		t.Errorf("ParseMetrics = %v, %v", m, err)
	}
}
