// Command prognosload drives a UE fleet against a Prognos server and
// reports serving latency and throughput (internal/fleet).
//
// Each of the -ues synthetic UEs replays an independent simulated drive
// (per-UE seed) through the real client protocol. In -mode open every UE
// paces its samples at the paper's fixed 20 Hz and the histogram measures
// how late predictions come back relative to the schedule (queueing); in
// -mode closed every UE streams as fast as the round trip allows and the
// run measures capacity.
//
// Usage:
//
//	prognosload [-addr 127.0.0.1:7015 | -selfserve] [-ues 64]
//	            [-duration 10s] [-mode open|closed] [-carrier OpX]
//	            [-arch NSA] [-route freeway] [-seed 1] [-ramp 1s]
//	            [-framing jsonl|binary|mixed] [-window 1]
//	            [-dial-timeout 5s] [-reconnect 8] [-report fleet.json]
//	            [-ops-addr 127.0.0.1:0]
//	            [-chaos] [-chaos-seed 1] [-chaos-reset 0.05] ...
//	            [-addrs h:7015,h:7016,h:7017 | -cluster 3]
//	            [-rolling-restart | -node-kill] [-min-warm-resume 0.9]
//
// Cluster mode: -addrs points the fleet at an external prognosd cluster
// (each UE dials its token's consistent-hash owner, with the remaining
// members as fallbacks, and follows ownership redirects); -cluster N
// starts an in-process N-node cluster instead. The two fault flags pick a
// fault schedule for that in-process cluster and fail the run without
// -cluster N, N > 1; at most one may be set. -rolling-restart drain-
// restarts every node once under load — the zero-loss warm migration
// acceptance run `make cluster` gates on, together with -min-warm-resume.
// -node-kill instead hard-crashes one node mid-load (no drain —
// connections RST, local state lost) and starts it again later: survival
// rides on async warm-state replication and detector-confirmed failover
// (docs/ARCHITECTURE.md §Failure model), and the same zero-loss and
// warm-resume gates apply — the `make crashtest` run.
//
// -framing selects the wire framing the UEs negotiate (docs/PROTOCOL.md):
// jsonl (default), binary, or mixed (even UEs binary, odd JSONL — the
// interop smoke `make protocol-compat` runs). -window sets the closed-loop
// pipelining window: with -window W > 1 each UE keeps W samples in flight
// and batches its write flushes, which is how the serving path's peak
// predictions/s is measured (see EXPERIMENTS.md).
//
// Chaos mode (-chaos) routes the fleet through a deterministic fault-
// injecting proxy (internal/chaos): every connection draws a seeded fault
// plan — latency, stalls, partial writes, RST-style resets, accept
// failures — and the resilient clients must reconnect and resume without
// losing a sample. The run exits non-zero if any sample is lost or (for
// -selfserve runs) the server counted session errors, so `make chaos` can
// gate on it.
//
// The text summary goes to stdout; -report writes the machine-readable
// fleet report as JSON.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cellular"
	"repro/internal/chaos"
	"repro/internal/fleet"
	"repro/internal/geo"
	"repro/internal/metrics"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7015", "Prognos server to load")
	selfServe := flag.Bool("selfserve", false, "start an in-process server instead of dialing -addr")
	ues := flag.Int("ues", 64, "fleet size (concurrent synthetic UEs)")
	duration := flag.Duration("duration", 10*time.Second, "per-UE streaming duration")
	mode := flag.String("mode", "open", "load mode: open (20 Hz pacing) or closed (max rate)")
	carrier := flag.String("carrier", "OpX", "carrier profile (OpX/OpY/OpZ)")
	archName := flag.String("arch", "NSA", "architecture (LTE/NSA/SA)")
	routeName := flag.String("route", "freeway", "drive route kind (freeway/city-loop)")
	seed := flag.Int64("seed", 1, "fleet seed; UE i drives seed+i*7919+1")
	framing := flag.String("framing", "jsonl", "wire framing: jsonl, binary, or mixed (even UEs binary)")
	window := flag.Int("window", 1, "closed-loop pipelining window (samples in flight per UE)")
	ramp := flag.Duration("ramp", time.Second, "window over which session starts are staggered")
	reportPath := flag.String("report", "", "write the machine-readable fleet report JSON here")
	opsAddr := flag.String("ops-addr", "", "ops plane to scrape into the report at end of run (self-serve runs start one here; 127.0.0.1:0 picks a port)")
	dialTimeout := flag.Duration("dial-timeout", 0, "per-connect dial timeout (0 = client default, 5s)")
	reconnect := flag.Int("reconnect", 0, "reconnect attempts per fault (0 = default 8, negative = no retry)")
	chaosOn := flag.Bool("chaos", false, "route the fleet through a deterministic fault-injecting proxy")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed for the chaos fault plans (replayable)")
	chaosReset := flag.Float64("chaos-reset", 0.05, "per-connection probability of an RST-style reset")
	chaosPartial := flag.Float64("chaos-partial", 0.25, "per-connection probability of fragmented (1..16 byte) writes")
	chaosStall := flag.Float64("chaos-stall", 0.1, "per-connection probability of a mid-stream stall")
	chaosLatency := flag.Float64("chaos-latency", 0.25, "per-connection probability of added first-byte latency")
	chaosAccept := flag.Float64("chaos-accept", 0.02, "probability an accept is refused outright")
	addrs := flag.String("addrs", "", "comma-separated external cluster member list; UEs route by consistent hash")
	clusterNodes := flag.Int("cluster", 0, "start an in-process cluster of N nodes and load it (N > 1)")
	rollingRestart := flag.Bool("rolling-restart", false, "with -cluster: drain-restart every node once under load")
	nodeKill := flag.Bool("node-kill", false, "with -cluster: hard-crash one node mid-load (no drain) and start it again later")
	minWarmResume := flag.Float64("min-warm-resume", 0, "fail the run if the warm-resume ratio falls below this (0 = off)")
	flag.Parse()

	m, err := fleet.ParseMode(*mode)
	if err != nil {
		fatal(err)
	}
	arch, err := cellular.ParseArch(*archName)
	if err != nil {
		fatal(err)
	}
	route, err := geo.ParseRouteKind(*routeName)
	if err != nil {
		fatal(err)
	}

	cfg := fleet.Config{
		Nodes:         *clusterNodes,
		UEs:           *ues,
		Duration:      *duration,
		Mode:          m,
		Carrier:       *carrier,
		Arch:          arch,
		Route:         route,
		Seed:          *seed,
		Ramp:          *ramp,
		Framing:       *framing,
		ClosedWindow:  *window,
		DialTimeout:   *dialTimeout,
		MaxReconnects: *reconnect,
		OpsAddr:       *opsAddr,
	}
	switch {
	case *addrs != "":
		for _, a := range strings.Split(*addrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				cfg.Addrs = append(cfg.Addrs, a)
			}
		}
	case !*selfServe && *clusterNodes <= 1:
		cfg.Addrs = []string{*addr}
	}
	// Forwarded unconditionally: fleet.Run rejects a fault schedule
	// without an in-process cluster rather than silently dropping it.
	switch {
	case *rollingRestart && *nodeKill:
		fatal(fmt.Errorf("-rolling-restart and -node-kill are mutually exclusive"))
	case *rollingRestart:
		cfg.Faults = fleet.RollingRestart
	case *nodeKill:
		cfg.Faults = fleet.NodeKill
	}
	if *chaosOn {
		cfg.Chaos = &chaos.Config{
			Seed:           *chaosSeed,
			ResetProb:      *chaosReset,
			PartialProb:    *chaosPartial,
			StallProb:      *chaosStall,
			LatencyProb:    *chaosLatency,
			AcceptFailProb: *chaosAccept,
		}
	}

	fmt.Printf("prognosload: %d UEs × %v, %s loop (%s framing, window %d), %s/%s on %s\n",
		cfg.UEs, cfg.Duration, m, *framing, *window, cfg.Carrier, arch, route)
	rep, err := fleet.Run(cfg)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("generated %d drives in %.1fs; load phase %.1fs\n",
		rep.UEs, rep.GenMS/1000, rep.WallMS/1000)
	fmt.Printf("samples %d  predictions %d  reports %d  handovers %d\n",
		rep.Samples, rep.Predictions, rep.Reports, rep.Handovers)
	fmt.Printf("throughput %.0f predictions/s\n", rep.PredictionsPerSec)
	l := rep.Latency
	fmt.Printf("latency µs: p50 %.0f  p90 %.0f  p99 %.0f  p999 %.0f  max %.0f (n=%d)\n",
		l.P50US, l.P90US, l.P99US, l.P999US, l.MaxUS, l.Count)
	if rep.Server != nil {
		fmt.Printf("server: sessions %d  rejected %d  session errors %d  oversized %d\n",
			rep.Server.Sessions, rep.Server.Rejected, rep.Server.SessionErrors, rep.Server.Oversized)
	}
	if rep.OpsMetrics != nil {
		fmt.Printf("ops plane: %d series scraped  samples_total %.0f  sessions_total %.0f  latency p99 via histogram buckets\n",
			len(rep.OpsMetrics), rep.OpsMetrics["prognos_samples_total"], rep.OpsMetrics["prognos_sessions_total"])
	}
	if *chaosOn {
		fmt.Printf("chaos: seed %d  faults %d  reconnects %d  resumed %d  cold %d  lost samples %d\n",
			rep.ChaosSeed, rep.ChaosFaults, rep.Reconnects, rep.ResumedSessions, rep.ColdResumes, rep.LostSamples)
	}
	if rep.ClusterSize > 0 {
		var srv metrics.ServerSnapshot // zero when no member answered the stats fetch
		if rep.Server != nil {
			srv = *rep.Server
		}
		fmt.Printf("cluster: %d nodes  restarts %d  migrated %d sessions (%d bytes)  redirects %d  warm-resume %.2f  lost samples %d\n",
			rep.ClusterSize, rep.RollingRestarts, srv.MigratedOut, srv.MigrationBytesOut,
			rep.Redirects, rep.WarmResumeRatio, rep.LostSamples)
		for _, n := range rep.PerNode {
			fmt.Printf("  node %s: sessions %d  samples %d  restarts %d  migrated out/in %d/%d  resumed %d\n",
				n.Addr, n.Sessions, n.Samples, n.Restarts, n.MigratedOut, n.MigratedIn, n.Resumed)
		}
		if rep.NodeKills > 0 || srv.Failovers > 0 {
			fmt.Printf("crash: kills %d  failovers %d  replication pushes %d (%d bytes)  reconnects %d  resumed %d  cold %d\n",
				rep.NodeKills, srv.Failovers, srv.ReplicationPushes, srv.ReplicationBytesOut,
				rep.Reconnects, rep.ResumedSessions, rep.ColdResumes)
		}
	}
	if rep.FailedUEs > 0 {
		fmt.Printf("FAILED UEs: %d\n", rep.FailedUEs)
		for _, e := range rep.Errors {
			fmt.Printf("  %s\n", e)
		}
	}

	if *reportPath != "" {
		if err := metrics.WriteJSON(*reportPath, rep); err != nil {
			fatal(err)
		}
		fmt.Printf("report written to %s\n", *reportPath)
	}
	// Gate hard on fleet health: any failed UE, any lost sample, or (when we
	// own the server) any session error fails the run — `make chaos` and CI
	// depend on this exit code.
	failed := rep.FailedUEs > 0 || rep.LostSamples > 0
	if rep.Server != nil && rep.Server.SessionErrors > 0 {
		failed = true
		fmt.Printf("FAILED: server counted %d session errors\n", rep.Server.SessionErrors)
	}
	if rep.LostSamples > 0 {
		fmt.Printf("FAILED: %d samples lost\n", rep.LostSamples)
	}
	if *minWarmResume > 0 && rep.WarmResumeRatio < *minWarmResume {
		failed = true
		fmt.Printf("FAILED: warm-resume ratio %.2f below -min-warm-resume %.2f (resumed %d, cold %d)\n",
			rep.WarmResumeRatio, *minWarmResume, rep.ResumedSessions, rep.ColdResumes)
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "prognosload: %v\n", err)
	os.Exit(1)
}
