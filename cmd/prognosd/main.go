// Command prognosd serves Prognos handover predictions over TCP.
//
// A UE-side agent connects, sends one hello line identifying its carrier
// and architecture, then streams its cross-layer observations as JSONL
// records ({"sample":...}, {"report":...}, {"ho":...}); the daemon answers
// every sample with a prediction line carrying the expected handover type
// and its ho_score. A hello carrying "framing":"binary" switches the rest
// of the session to the length-prefixed binary framing high-rate fleets
// use; docs/PROTOCOL.md is the normative wire specification for both
// framings, and the daemon serves JSONL and binary sessions side by side.
//
// Hardening: -max-sessions bounds concurrent prediction sessions (extra
// sessions receive a structured {"error":...} line and are closed),
// -session-timeout expires idle or stuck sessions, and on SIGINT/SIGTERM
// the daemon drains gracefully — it stops accepting immediately and gives
// in-flight sessions up to -drain-timeout to finish before cutting them.
//
// Resilience: -resume-grace lets a client that lost its connection resume
// its session warm — the daemon parks the Prognos instance of an
// interrupted tokened session and replays the responses the client missed
// (see docs/ARCHITECTURE.md §Resilience). -checkpoint persists the learned
// pattern state to versioned snapshot files (periodically per
// -checkpoint-interval, and on drain) so a restarted daemon predicts warm
// from its first session.
//
// Run metrics: a client that sends {"stats":true} as its hello receives a
// one-line JSON snapshot (sessions, streamed observations, predictions,
// error counters, uptime) and the connection closes — the hook dashboards
// poll. The same snapshot is printed at -stats-interval (when set) and at
// shutdown.
//
// Observability: -ops-addr starts the out-of-band HTTP ops plane
// (internal/obs) — Prometheus text-format /metrics over every internal
// counter plus the per-request latency histogram, /healthz and a
// drain-aware /readyz, the serving-pipeline event trace at /events
// (JSONL), and net/http/pprof under /debug/pprof/. -trace-file
// additionally mirrors every trace event to a JSONL file as it is
// emitted. The ops plane outlives the session listener during shutdown:
// it stays scrapeable through the drain and stops only after the last
// session finishes.
//
// Clustering: -cluster takes the full member list (comma-separated) and
// -advertise this node's address within it (default -addr). A clustered
// node owns the session tokens the consistent-hash ring assigns it and
// answers sessions for other owners with a structured redirect; at
// shutdown it drains warm — parked sessions and learned context state
// ship to the ring successors over migration streams so resumed sessions
// start warm on their new node (docs/ARCHITECTURE.md §Cluster,
// docs/PROTOCOL.md §State-transfer frames). -replication-interval additionally
// streams warm state to the ring successors ahead of any failure, so a
// peer that crashes without draining loses at most the samples since its
// last push: the surviving nodes' heartbeat detector confirms it down and
// they serve its sessions from replicated state
// (docs/ARCHITECTURE.md §Failure model).
//
// Usage:
//
//	prognosd [-addr 127.0.0.1:7015] [-stats-interval 30s]
//	         [-max-sessions 0] [-session-timeout 0] [-drain-timeout 10s]
//	         [-resume-grace 30s] [-checkpoint dir] [-checkpoint-interval 10s]
//	         [-ops-addr 127.0.0.1:9090] [-trace-file events.jsonl]
//	         [-cluster host:7015,host:7016,host:7017] [-advertise host:7015]
//	         [-replication-interval 100ms] [-heartbeat-interval 50ms]
//
// Try it against a simulated drive with examples/livepredict, or load it
// with a synthetic UE fleet via cmd/prognosload.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7015", "listen address")
	statsEvery := flag.Duration("stats-interval", 0, "print a stats snapshot at this interval (0 = off)")
	maxSessions := flag.Int("max-sessions", 0, "max concurrent prediction sessions (0 = unlimited)")
	sessionTimeout := flag.Duration("session-timeout", 0, "per-session read/write deadline (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-drain budget for in-flight sessions at shutdown")
	resumeGrace := flag.Duration("resume-grace", 30*time.Second, "window in which an interrupted tokened session may resume warm (0 = resume off)")
	checkpointDir := flag.String("checkpoint", "", "directory for learner state checkpoints (empty = off)")
	checkpointEvery := flag.Duration("checkpoint-interval", 10*time.Second, "periodic checkpoint interval when -checkpoint is set")
	opsAddr := flag.String("ops-addr", "", "HTTP ops plane address (/metrics, /healthz, /readyz, /events, /debug/pprof); empty = off")
	traceFile := flag.String("trace-file", "", "mirror serving-pipeline trace events to this JSONL file")
	clusterList := flag.String("cluster", "", "comma-separated cluster member list (must include this node's advertised address); empty = single node")
	advertise := flag.String("advertise", "", "this node's address within -cluster (defaults to -addr)")
	replicationEvery := flag.Duration("replication-interval", 0, "with -cluster: push warm state to ring successors at this interval for crash failover (0 = off)")
	heartbeatEvery := flag.Duration("heartbeat-interval", 0, "with -cluster: peer failure-detector probe interval (0 = default when replicating)")
	flag.Parse()

	// Cluster wiring: the member list plus this node's advertised identity
	// turn on consistent-hash ownership (sessions for tokens another node
	// owns are redirected there) and warm drain-to-cluster at shutdown.
	var ring *cluster.Ring
	nodeAddr := *advertise
	if nodeAddr == "" {
		nodeAddr = *addr
	}
	if *clusterList != "" {
		members := strings.Split(*clusterList, ",")
		for i := range members {
			members[i] = strings.TrimSpace(members[i])
		}
		var err error
		ring, err = cluster.New(members, cluster.NewRingPolicy())
		if err != nil {
			fmt.Fprintf(os.Stderr, "prognosd: -cluster: %v\n", err)
			os.Exit(1)
		}
		if !ring.Contains(nodeAddr) {
			fmt.Fprintf(os.Stderr, "prognosd: advertised address %s is not in the cluster member list %v\n", nodeAddr, ring.Members())
			os.Exit(1)
		}
	}

	// The tracer exists whenever anything consumes it; a nil tracer makes
	// every instrumentation site in the server a no-op.
	var tracer *obs.Tracer
	var traceSink *os.File
	if *opsAddr != "" || *traceFile != "" {
		tracer = obs.NewTracer(0)
		if *traceFile != "" {
			f, err := os.Create(*traceFile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "prognosd: trace-file: %v\n", err)
				os.Exit(1)
			}
			traceSink = f
			tracer.MirrorTo(f)
		}
	}

	srv, err := server.ListenWith(*addr, server.Options{
		MaxSessions:         *maxSessions,
		SessionTimeout:      *sessionTimeout,
		ResumeGrace:         *resumeGrace,
		CheckpointDir:       *checkpointDir,
		CheckpointInterval:  *checkpointEvery,
		Tracer:              tracer,
		Cluster:             ring,
		NodeAddr:            nodeAddr,
		ReplicationInterval: *replicationEvery,
		HeartbeatInterval:   *heartbeatEvery,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "prognosd: %v\n", err)
		os.Exit(1)
	}
	if ring != nil {
		fmt.Printf("prognosd listening on %s (cluster node %s of %d)\n", srv.Addr(), nodeAddr, ring.Size())
	} else {
		fmt.Printf("prognosd listening on %s\n", srv.Addr())
	}

	// ListenWith has already restored checkpoints synchronously, so by the
	// time the ops plane is reachable the daemon is genuinely ready; the
	// probe then only needs to watch for the drain.
	var plane *obs.Plane
	if *opsAddr != "" {
		reg := obs.NewRegistry()
		if ring != nil {
			// One scraper watching N nodes tells them apart by the node
			// identity label rather than by scrape target alone.
			reg.SetConstLabels(map[string]string{"node": nodeAddr})
		}
		obs.RegisterBuildInfo(reg)
		obs.RegisterServerMetrics(reg, srv.Stats)
		plane, err = obs.Listen(*opsAddr, obs.Config{
			Registry: reg,
			Tracer:   tracer,
			Ready:    func() bool { return !srv.Draining() },
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "prognosd: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("prognosd ops plane on %s\n", plane.Addr())
	}

	stop := make(chan struct{})
	if *statsEvery > 0 {
		go func() {
			t := time.NewTicker(*statsEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					printStats(srv)
				case <-stop:
					return
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	close(stop)
	fmt.Printf("prognosd: %v received, draining (up to %v)\n", s, *drainTimeout)
	// Shutdown order matters: Drain flips /readyz to 503 the moment it
	// starts (stop-accept), the ops plane keeps answering scrapes while
	// in-flight sessions finish, and only after the drain completes does
	// the plane itself go away. A cluster node drains its warm state to
	// its peers instead of waiting sessions out, so the fleet's resilient
	// clients resume warm on the ring successors (zero lost samples).
	if ring != nil {
		ds, err := srv.DrainToCluster(*drainTimeout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prognosd: drain-to-cluster: %v\n", err)
		}
		fmt.Printf("prognosd: %s\n", ds.Summary())
	} else if err := srv.Drain(*drainTimeout); err != nil {
		fmt.Fprintf(os.Stderr, "prognosd: %v\n", err)
	}
	if plane != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		plane.Shutdown(ctx)
		cancel()
	}
	if traceSink != nil {
		traceSink.Close()
	}
	printStats(srv)
}

// printStats writes one JSON snapshot line to stdout.
func printStats(srv *server.Server) {
	b, err := json.Marshal(srv.Stats())
	if err != nil {
		fmt.Fprintf(os.Stderr, "prognosd: stats: %v\n", err)
		return
	}
	fmt.Printf("stats %s\n", b)
}
