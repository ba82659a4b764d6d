package fleet

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
	}{{"open", ModeOpen}, {"closed", ModeClosed}} {
		got, err := ParseMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseMode(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Errorf("Mode round trip %q -> %q", tc.in, got)
		}
	}
	if _, err := ParseMode("laps"); err == nil {
		t.Error("ParseMode accepted garbage")
	}
}

func TestReplayWrapsMonotonically(t *testing.T) {
	log, err := sim.Run(sim.Config{
		Carrier:      topology.OpX(),
		Arch:         cellular.ArchNSA,
		RouteLengthM: 1000,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := replay{log: log}
	steps := 2*len(log.Samples) + 10 // force at least two wraps
	last := time.Duration(-1)
	var reports, hos int
	for i := 0; i < steps; i++ {
		smp, mrs, hs, off := r.step()
		if smp.Time <= last {
			t.Fatalf("step %d: time %v not after %v (wrap broke monotonicity)", i, smp.Time, last)
		}
		last = smp.Time
		for _, mr := range mrs {
			if shifted := mr.Time + off; shifted > smp.Time {
				t.Fatalf("report due at %v delivered with sample at %v", shifted, smp.Time)
			}
		}
		reports += len(mrs)
		hos += len(hs)
	}
	// Two full passes must deliver each control record twice.
	if want := 2 * len(log.Reports); reports < want {
		t.Errorf("replayed %d reports across two wraps, want >= %d", reports, want)
	}
	if want := 2 * len(log.Handovers); hos < want {
		t.Errorf("replayed %d handovers across two wraps, want >= %d", hos, want)
	}
}

// TestFleetOpenLoopSelfServe runs a small open-loop fleet against an
// in-process server and checks the report invariants end to end.
func TestFleetOpenLoopSelfServe(t *testing.T) {
	rep, err := Run(Config{
		UEs:      4,
		Duration: 600 * time.Millisecond,
		Mode:     ModeOpen,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FailedUEs != 0 || len(rep.Errors) != 0 {
		t.Fatalf("fleet errors: %+v", rep.Errors)
	}
	// 600ms at 20 Hz = 12 samples per UE, every one answered.
	wantSamples := int64(4 * 12)
	if rep.Samples != wantSamples || rep.Predictions != wantSamples {
		t.Errorf("samples/predictions = %d/%d, want %d", rep.Samples, rep.Predictions, wantSamples)
	}
	if rep.Latency.Count != wantSamples {
		t.Errorf("histogram count %d, want %d", rep.Latency.Count, wantSamples)
	}
	if rep.Latency.P50US <= 0 || rep.Latency.P999US < rep.Latency.P50US || rep.Latency.MaxUS < rep.Latency.P999US {
		t.Errorf("implausible latency snapshot %+v", rep.Latency)
	}
	if rep.PredictionsPerSec <= 0 {
		t.Errorf("throughput %v", rep.PredictionsPerSec)
	}
	if rep.Mode != "open" || rep.UEs != 4 || rep.Carrier != "OpX" || rep.Arch != "NSA" {
		t.Errorf("config echo %+v", rep)
	}
	if rep.Server == nil {
		t.Fatal("self-serve run lost the server snapshot")
	}
	if rep.Server.Predictions != wantSamples || rep.Server.SessionErrors != 0 || rep.Server.Rejected != 0 {
		t.Errorf("server snapshot %+v", rep.Server)
	}
}

func TestFleetClosedLoopAgainstExternalServer(t *testing.T) {
	srv, err := server.ListenWith("127.0.0.1:0", server.Options{MaxSessions: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rep, err := Run(Config{
		Addrs:    []string{srv.Addr()},
		UEs:      3,
		Duration: 300 * time.Millisecond,
		Mode:     ModeClosed,
		Carrier:  "OpY",
		Arch:     cellular.ArchSA,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FailedUEs != 0 {
		t.Fatalf("fleet errors: %+v", rep.Errors)
	}
	if rep.Samples == 0 || rep.Samples != rep.Predictions {
		t.Errorf("samples/predictions = %d/%d", rep.Samples, rep.Predictions)
	}
	// Closed loop must push far past the 20 Hz open-loop rate per UE.
	perUEHz := float64(rep.Samples) / 3 / (float64(rep.WallMS) / 1000)
	if perUEHz < 2*trace.SampleHz {
		t.Errorf("closed loop managed only %.0f Hz per UE", perUEHz)
	}
	if rep.Server == nil || rep.Server.Sessions != 3 {
		t.Errorf("server snapshot %+v", rep.Server)
	}
}

// TestFleetSurfacesRejections drives more UEs than the server admits and
// checks that over-limit rejections surface as per-UE errors in the report.
func TestFleetSurfacesRejections(t *testing.T) {
	rep, err := Run(Config{
		UEs:      3,
		Duration: 300 * time.Millisecond,
		Mode:     ModeOpen,
		Seed:     5,
		Server:   server.Options{MaxSessions: 1},
		Ramp:     150 * time.Millisecond, // serialize arrivals so exactly one UE wins the slot
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FailedUEs == 0 {
		t.Fatal("over-limit fleet reported no failed UEs")
	}
	if len(rep.Errors) == 0 {
		t.Fatal("failed UEs left no error messages")
	}
	if rep.Server == nil || rep.Server.Rejected == 0 {
		t.Errorf("server snapshot lost the rejections: %+v", rep.Server)
	}
}

func TestFleetReportJSONRoundTrip(t *testing.T) {
	rep, err := Run(Config{UEs: 1, Duration: 200 * time.Millisecond, Mode: ModeOpen, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.UEs != rep.UEs || back.Samples != rep.Samples || back.Latency.Count != rep.Latency.Count {
		t.Errorf("round trip lost fields: %+v vs %+v", back, rep)
	}
}

func TestFleetRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{Carrier: "OpQ", UEs: 1, Duration: time.Millisecond}); err == nil {
		t.Error("unknown carrier accepted")
	}
	if _, err := Run(Config{Carrier: "OpX", Arch: cellular.ArchSA, UEs: 1, Duration: time.Millisecond}); err == nil {
		t.Error("OpX+SA accepted (OpX does not deploy SA)")
	}
}

// TestOpsScrapeMatchesReport is the acceptance cross-check for the ops
// plane: a self-serve run that starts one must end with scraped counters
// exactly matching the fleet's own report. Any drift here means /metrics
// is lying about the serving path.
func TestOpsScrapeMatchesReport(t *testing.T) {
	rep, err := Run(Config{
		UEs:      4,
		Duration: 600 * time.Millisecond,
		Mode:     ModeOpen,
		Seed:     11,
		OpsAddr:  "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OpsMetrics == nil {
		t.Fatal("report carries no ops metrics despite OpsAddr being set")
	}
	if rep.Server == nil {
		t.Fatal("self-serve run lost its server snapshot")
	}
	for name, want := range map[string]float64{
		"prognos_samples_total":     float64(rep.Server.Samples),
		"prognos_sessions_total":    float64(rep.Server.Sessions),
		"prognos_predictions_total": float64(rep.Server.Predictions),
	} {
		got, ok := rep.OpsMetrics[name]
		if !ok {
			t.Errorf("scrape is missing %s", name)
			continue
		}
		if got != want {
			t.Errorf("%s scraped %v, server counted %v", name, got, want)
		}
	}
	// The fleet's client-side sample count must agree with the scrape too:
	// every sample a UE sent was answered and counted exactly once.
	if got := rep.OpsMetrics["prognos_samples_total"]; got != float64(rep.Samples) {
		t.Errorf("scraped samples_total %v != fleet-side samples %d", got, rep.Samples)
	}
	// Each answered sample observes one request latency.
	if got := rep.OpsMetrics["prognos_request_latency_seconds_count"]; got != float64(rep.Server.Samples) {
		t.Errorf("latency histogram count %v != samples %d", got, rep.Server.Samples)
	}
}

// TestSingleNodeReportOmitsClusterKeys pins the single-server report
// shape: a one-node rig and a single external server both route over a
// one-member ring, but their reports carry no cluster keys, and the
// server snapshot keeps its latency histogram.
func TestSingleNodeReportOmitsClusterKeys(t *testing.T) {
	srv, err := server.ListenWith("127.0.0.1:0", server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for name, cfg := range map[string]Config{
		"rig":      {UEs: 1, Duration: 200 * time.Millisecond, Seed: 2},
		"external": {UEs: 1, Duration: 200 * time.Millisecond, Seed: 2, Addrs: []string{srv.Addr()}},
	} {
		rep, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// A summed snapshot would carry an empty histogram. The server
		// counts a sample on receipt but observes its latency only after
		// flushing the response, and the report is read as soon as the UE
		// has its last response, so each session may still owe the
		// histogram one observation.
		if rep.Server == nil {
			t.Fatalf("%s: report lost its server snapshot", name)
		}
		if c := rep.Server.Latency.Count; c == 0 || c > rep.Server.Samples || c < rep.Server.Samples-rep.Server.Sessions {
			t.Errorf("%s: server snapshot lost its latency histogram: %+v", name, rep.Server)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(b, &keys); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"addrs", "cluster_size", "per_node", "redirects"} {
			if _, ok := keys[k]; ok {
				t.Errorf("%s: single-node report carries %q", name, k)
			}
		}
	}
}
