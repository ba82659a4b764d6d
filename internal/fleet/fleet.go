// Package fleet is the UE-fleet load-generation subsystem: it spins up N
// concurrent synthetic UEs, each replaying an independent simulated drive
// (internal/sim with a per-UE seed) through the real server.Client
// protocol, and measures the serving path the way the paper's deployment
// sketch would be measured in production — per-sample prediction latency
// into a log-bucketed histogram (internal/metrics.Histogram) plus a
// machine-readable Report.
//
// Two load modes mirror the two questions one asks of a serving stack:
//
//   - ModeOpen paces every UE at the paper's fixed 20 Hz sample rate and
//     measures latency from each sample's *scheduled* send time, so server
//     queueing (and coordinated omission) shows up in the tail instead of
//     silently shifting the send schedule.
//   - ModeClosed sends as fast as the round trip allows and measures
//     capacity: how many predictions per second the server sustains.
//
// A run loads running servers (Config.Addrs) or an in-process rig of
// Config.Nodes servers, one by default. Every UE routes over a
// consistent-hash ring of its targets — a single server is a one-member
// ring — and follows redirects when its picture of ownership is stale;
// an in-process cluster can also play a fault schedule (Config.Faults).
package fleet

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cellular"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/geo"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Mode selects how UEs pace their sample stream.
type Mode int

const (
	// ModeOpen is fixed 20 Hz pacing per UE (measures queueing).
	ModeOpen Mode = iota
	// ModeClosed is as-fast-as-possible round trips (measures capacity).
	ModeClosed
)

// String returns the mode name used in flags and reports.
func (m Mode) String() string {
	switch m {
	case ModeOpen:
		return "open"
	case ModeClosed:
		return "closed"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode is the inverse of Mode.String, for command-line flags.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "open":
		return ModeOpen, nil
	case "closed":
		return ModeClosed, nil
	default:
		return 0, fmt.Errorf("fleet: unknown mode %q (want open or closed)", s)
	}
}

// Config describes one fleet run.
type Config struct {
	// Addrs points the fleet at running servers, in any order: one address
	// is a single server, several are the full member list of an external
	// cluster. Empty serves the run from an in-process rig of Nodes
	// servers on loopback ports instead — the self-contained shape `make
	// loadtest` uses. Either way each UE routes over a consistent-hash ring
	// of its targets, the same ring the servers use, dialing its token's
	// owner first with the rest as fallbacks; a single server is a
	// one-member ring.
	Addrs []string
	// Nodes is the in-process rig's node count (default 1): one node is a
	// plain server with Server options, more start a cluster whose nodes
	// carry Server options plus their ring wiring. Nodes > 1 excludes Addrs.
	Nodes int
	// Faults is the fault schedule played against the rig's nodes under
	// load (default NoFaults). A schedule needs Nodes > 1.
	Faults Fault
	// UEs is the fleet size (default 8).
	UEs int
	// Duration is how long each UE streams (default 10s).
	Duration time.Duration
	// Mode picks open- or closed-loop pacing.
	Mode Mode
	// Framing selects the record framing the UEs speak: "jsonl" (or "",
	// the default), "binary" (negotiated per docs/PROTOCOL.md), or
	// "mixed" — even-indexed UEs binary, odd-indexed JSONL — which is how
	// the protocol-compat suite exercises both framings against one
	// server in one run.
	Framing string
	// ClosedWindow is the closed-loop pipelining window (default 1: the
	// strict one-in-flight round trip). With a window W > 1 each UE
	// sends a burst of W samples before reading the W predictions back,
	// batching write flushes (ClientOptions.NoAutoFlush) so the syscall
	// cost amortises across the window. Ignored in open loop.
	ClosedWindow int
	// Carrier ("OpX"/"OpY"/"OpZ", default "OpX") and Arch (default NSA)
	// shape the drives and the per-session Prognos instances.
	Carrier string
	Arch    cellular.Arch
	// Route selects the drive route kind (default freeway); SpeedMPS the
	// travel speed (default 29 ≈ 105 km/h).
	Route    geo.RouteKind
	SpeedMPS float64
	// Seed makes the whole fleet deterministic: UE i drives the trace of
	// seed Seed + i*7919 + 1.
	Seed int64
	// Ramp staggers session starts uniformly across this window so a
	// large fleet does not arrive as a thundering herd (default 0: all
	// UEs start at once).
	Ramp time.Duration
	// DialTimeout bounds each UE's TCP connect (default: the client's
	// own 5s).
	DialTimeout time.Duration
	// MaxReconnects bounds each recovery's connect attempts (0 = the
	// resilient client's default of 8; negative = a single attempt, i.e.
	// no retries). Structured server rejections always fail fast.
	MaxReconnects int
	// OpsAddr wires the run to an HTTP ops plane (internal/obs). For a
	// self-serve run it is the address the fleet starts one on ("127.0.0.1:0"
	// picks a free port); for an external server it is the address of that
	// server's existing ops plane. Either way the run scrapes /metrics when
	// the load finishes and folds the counters into Report.OpsMetrics, so a
	// report carries both sides of the ledger: what the fleet sent and what
	// the server says it served. Empty disables the scrape.
	OpsAddr string
	// Chaos, when set, interposes a fault-injecting proxy (internal/chaos)
	// between the fleet and its single target: UEs dial the proxy, the
	// proxy forwards to the real server through seeded per-connection
	// fault plans. In-process runs default the server's ResumeGrace to 5s
	// so cut sessions resume instead of erroring.
	Chaos *chaos.Config
	// Server configures every in-process node (runs without Addrs).
	Server server.Options
}

// withDefaults fills the documented defaults.
func (c Config) withDefaults() Config {
	if c.UEs <= 0 {
		c.UEs = 8
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.Carrier == "" {
		c.Carrier = "OpX"
		if c.Arch == 0 { // ArchLTE zero value: default the pair to OpX/NSA
			c.Arch = cellular.ArchNSA
		}
	}
	if c.SpeedMPS <= 0 {
		c.SpeedMPS = 29
	}
	if c.ClosedWindow <= 0 {
		c.ClosedWindow = 1
	}
	if c.Nodes <= 0 {
		c.Nodes = 1
	}
	// Chaos cuts and cluster faults are survivable only if the cut
	// sessions can resume: chaos parks them on the one server, migration
	// parks shipped sessions on the successor.
	if (c.Chaos != nil || c.Nodes > 1) && c.Server.ResumeGrace == 0 {
		c.Server.ResumeGrace = 5 * time.Second
	}
	// A node-kill run is only survivable with replication streaming warm
	// state ahead of the crash; 100ms keeps the staleness bound (two
	// intervals + ship latency) well under the default resume grace.
	if c.Faults == NodeKill && c.Server.ReplicationInterval == 0 {
		c.Server.ReplicationInterval = 100 * time.Millisecond
	}
	return c
}

// ueSeed derives UE i's drive seed from the fleet seed.
func (c Config) ueSeed(i int) int64 { return c.Seed + int64(i)*7919 + 1 }

// ueToken is UE i's deterministic session token — the identity the ring
// places and a reconnect resumes.
func (c Config) ueToken(i int) string { return fmt.Sprintf("fleet-%d-ue-%d", c.Seed, i) }

// ueFraming picks UE i's wire framing under the fleet framing policy.
func (c Config) ueFraming(i int) wire.Framing {
	switch c.Framing {
	case "binary":
		return wire.FramingBinary
	case "mixed":
		if i%2 == 0 {
			return wire.FramingBinary
		}
	}
	return wire.FramingJSONL
}

// routeLengthM sizes each UE's route so an open-loop run of Duration never
// wraps, within the simulator's bounds.
func (c Config) routeLengthM() float64 {
	m := c.SpeedMPS*c.Duration.Seconds()*1.1 + 200
	if m < 1000 {
		m = 1000
	}
	if m > 25000 {
		m = 25000
	}
	return m
}

// Report is the machine-readable result of a fleet run: the run
// configuration, aggregate stream counters, the latency histogram, and
// (when reachable) the server's own snapshot for cross-checking.
type Report struct {
	// UEs..Ramp echo the configuration the run used.
	UEs  int    `json:"ues"`
	Mode string `json:"mode"`
	// Framing echoes the fleet framing policy ("jsonl"/"binary"/"mixed");
	// ClosedWindow the closed-loop pipelining window when it was >1.
	Framing      string  `json:"framing,omitempty"`
	ClosedWindow int     `json:"closed_window,omitempty"`
	Carrier      string  `json:"carrier"`
	Arch         string  `json:"arch"`
	Route        string  `json:"route"`
	Seed         int64   `json:"seed"`
	DurationMS   float64 `json:"duration_ms"`
	RampMS       float64 `json:"ramp_ms,omitempty"`
	// GenMS is the wall time spent generating the fleet's drive traces
	// (before any load was applied); WallMS the wall time of the load
	// phase itself.
	GenMS  float64 `json:"gen_ms"`
	WallMS float64 `json:"wall_ms"`
	// Samples counts radio samples sent, Predictions the prediction lines
	// read back; Reports/Handovers are the one-way control-plane records
	// interleaved into the streams.
	Samples     int64 `json:"samples"`
	Predictions int64 `json:"predictions"`
	Reports     int64 `json:"reports"`
	Handovers   int64 `json:"handovers"`
	// FailedUEs counts UEs whose session ended in error; Errors lists up
	// to eight distinct error messages for diagnosis.
	FailedUEs int      `json:"failed_ues"`
	Errors    []string `json:"errors,omitempty"`
	// LostSamples counts samples that never earned a prediction across
	// the whole fleet (sent minus received, summed per UE). A healthy
	// run — even through chaos — is exactly zero.
	LostSamples int64 `json:"lost_samples"`
	// Reconnects counts successful session re-establishments after
	// transport faults; ResumedSessions how many re-attached server-side
	// warm state, ColdResumes how many had to start fresh.
	Reconnects      int64 `json:"reconnects,omitempty"`
	ResumedSessions int64 `json:"resumed_sessions,omitempty"`
	ColdResumes     int64 `json:"cold_resumes,omitempty"`
	// ChaosSeed/ChaosFaults describe the injected fault load when the
	// run went through a chaos proxy: the seed that replays it and how
	// many of the drawn per-connection plans carried at least one fault.
	ChaosSeed   int64 `json:"chaos_seed,omitempty"`
	ChaosFaults int   `json:"chaos_faults,omitempty"`
	// Cluster fields. Addrs is the member list the UEs routed over;
	// ClusterSize its length; RollingRestarts how many node restarts the
	// run performed under load. Redirects counts client-followed
	// ownership redirects; WarmResumeRatio is resumed/(resumed+cold)
	// across the fleet — the zero-loss acceptance bar wants it near 1.
	// The server-side migration, replication and failover counters are
	// in Server.
	Addrs           []string `json:"addrs,omitempty"`
	ClusterSize     int      `json:"cluster_size,omitempty"`
	RollingRestarts int      `json:"rolling_restarts,omitempty"`
	Redirects       int64    `json:"redirects,omitempty"`
	WarmResumeRatio float64  `json:"warm_resume_ratio,omitempty"`
	// NodeKills counts the hard node crashes the run inflicted (the
	// NodeKill schedule).
	NodeKills int          `json:"node_kills,omitempty"`
	PerNode   []NodeReport `json:"per_node,omitempty"`
	// PredictionsPerSec is the fleet-wide serving throughput over the
	// load phase.
	PredictionsPerSec float64 `json:"predictions_per_sec"`
	// Latency is the per-sample prediction latency histogram. In open
	// loop it is measured from each sample's scheduled send time; in
	// closed loop it is the blocking round-trip time.
	Latency metrics.LatencySnapshot `json:"latency"`
	// Server is the server side's own snapshot: a single server's whole, a
	// cluster's counters summed (always present for in-process runs;
	// best-effort via each member's stats endpoint otherwise).
	Server *metrics.ServerSnapshot `json:"server,omitempty"`
	// OpsMetrics is the end-of-run /metrics scrape of the ops plane
	// (Config.OpsAddr), keyed by exposition sample name. Healthy runs
	// satisfy prognos_samples_total == Samples and
	// prognos_predictions_total == Predictions.
	OpsMetrics map[string]float64 `json:"ops_metrics,omitempty"`
}

// replay cycles one drive log as an endless, time-monotone stream: when
// the trace runs out it restarts with all timestamps shifted past the
// previous pass.
type replay struct {
	log       *trace.Log
	i, ri, hi int
	tOff      time.Duration
}

// step returns the next sample (time-shifted) plus the index bounds of the
// control records due at or before it; the caller shifts their times by
// off when sending.
func (r *replay) step() (smp trace.Sample, reports []cellular.MeasurementReport, hos []cellular.HandoverEvent, off time.Duration) {
	if r.i >= len(r.log.Samples) {
		r.tOff += r.log.Duration() + trace.SamplePeriod
		r.i, r.ri, r.hi = 0, 0, 0
	}
	base := r.log.Samples[r.i]
	r.i++
	r0 := r.ri
	for r.ri < len(r.log.Reports) && r.log.Reports[r.ri].Time <= base.Time {
		r.ri++
	}
	h0 := r.hi
	for r.hi < len(r.log.Handovers) && r.log.Handovers[r.hi].Time <= base.Time {
		r.hi++
	}
	smp = base
	smp.Time += r.tOff
	return smp, r.log.Reports[r0:r.ri], r.log.Handovers[h0:r.hi], r.tOff
}

// counters aggregates the fleet-wide stream totals.
type counters struct {
	samples     atomic.Int64
	predictions atomic.Int64
	reports     atomic.Int64
	handovers   atomic.Int64
	lost        atomic.Int64
	reconnects  atomic.Int64
	resumed     atomic.Int64
	cold        atomic.Int64
	redirects   atomic.Int64
}

// Run executes one fleet load-generation run and returns its report.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	switch cfg.Framing {
	case "", "jsonl", "binary", "mixed":
	default:
		return nil, fmt.Errorf("fleet: unknown framing %q (want jsonl, binary or mixed)", cfg.Framing)
	}
	carrier, err := topology.CarrierByName(cfg.Carrier)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	if !carrier.Has(cfg.Arch) {
		return nil, fmt.Errorf("fleet: carrier %s does not offer %s", carrier.Name, cfg.Arch)
	}
	if len(cfg.Addrs) > 0 && cfg.Nodes > 1 {
		return nil, fmt.Errorf("fleet: set Addrs or Nodes > 1, not both")
	}
	if cfg.Chaos != nil && (len(cfg.Addrs) > 1 || cfg.Nodes > 1) {
		return nil, fmt.Errorf("fleet: Chaos needs a single target")
	}
	if cfg.Faults != NoFaults && cfg.Nodes <= 1 {
		return nil, fmt.Errorf("fleet: Faults need an in-process cluster (Nodes > 1)")
	}

	members := cfg.Addrs
	var local *rig
	if len(members) == 0 {
		local, err = newRig(cfg.Nodes, cfg.Server)
		if err != nil {
			return nil, err
		}
		defer local.close()
		members = local.addrs
	}
	// An in-process run with an OpsAddr gets its own ops plane over the
	// rig's counters, exactly as prognosd -ops-addr would serve them;
	// against external servers the configured address is assumed to be
	// that daemon's already-running plane.
	scrapeAddr := cfg.OpsAddr
	if cfg.OpsAddr != "" && local != nil {
		reg := obs.NewRegistry()
		obs.RegisterServerMetrics(reg, func() metrics.ServerSnapshot {
			snaps, _ := local.report()
			return aggregate(snaps)
		})
		plane, err := obs.Listen(cfg.OpsAddr, obs.Config{
			Registry: reg,
			Ready:    local.ready,
		})
		if err != nil {
			return nil, fmt.Errorf("fleet: ops plane: %w", err)
		}
		defer plane.Close()
		scrapeAddr = plane.Addr()
	}
	// With chaos enabled, UEs dial the fault-injecting proxy; stats still
	// come from the server directly.
	route := members
	var proxy *chaos.Proxy
	if cfg.Chaos != nil {
		proxy, err = chaos.NewProxy("127.0.0.1:0", members[0], *cfg.Chaos)
		if err != nil {
			return nil, fmt.Errorf("fleet: chaos proxy: %w", err)
		}
		defer proxy.Close()
		route = []string{proxy.Addr()}
	}
	ring, err := cluster.New(route, nil)
	if err != nil {
		return nil, fmt.Errorf("fleet: ring: %w", err)
	}

	// Phase 1: generate every UE's drive up front (bounded parallelism),
	// so trace generation cost never pollutes the latency measurements.
	genStart := time.Now()
	logs := make([]*trace.Log, cfg.UEs)
	genErrs := make([]error, cfg.UEs)
	var wg sync.WaitGroup
	genSlots := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := 0; i < cfg.UEs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			genSlots <- struct{}{}
			defer func() { <-genSlots }()
			logs[i], genErrs[i] = sim.Run(sim.Config{
				Carrier:      carrier,
				Arch:         cfg.Arch,
				RouteKind:    cfg.Route,
				RouteLengthM: cfg.routeLengthM(),
				SpeedMPS:     cfg.SpeedMPS,
				Seed:         cfg.ueSeed(i),
			})
		}(i)
	}
	wg.Wait()
	for i, err := range genErrs {
		if err != nil {
			return nil, fmt.Errorf("fleet: generating UE %d drive: %w", i, err)
		}
		if len(logs[i].Samples) == 0 {
			return nil, fmt.Errorf("fleet: UE %d drive produced no samples", i)
		}
	}
	genWall := time.Since(genStart)

	// Phase 2: apply the load.
	var (
		hist  metrics.Histogram
		tot   counters
		errMu sync.Mutex
		errs  []string
	)
	failed := atomic.Int64{}
	addErr := func(err error) {
		errMu.Lock()
		defer errMu.Unlock()
		msg := err.Error()
		for _, e := range errs {
			if e == msg {
				return
			}
		}
		if len(errs) < 8 {
			errs = append(errs, msg)
		}
	}
	recordErr := func(err error) {
		failed.Add(1)
		addErr(err)
	}

	loadStart := time.Now()
	// One goroutine plays the fault schedule against the rig under load,
	// timing each step from loadStart (Faults needs Nodes > 1, so only a
	// rig run has steps).
	faultsDone := make(chan struct{})
	go func() {
		defer close(faultsDone)
		for _, s := range cfg.Faults.schedule(cfg.Nodes, cfg.Duration) {
			if d := time.Until(loadStart.Add(s.at)); d > 0 {
				time.Sleep(d)
			}
			if err := local.nodes[s.node].apply(s.op); err != nil {
				addErr(fmt.Errorf("node %d %s: %w", s.node, s.op, err))
			}
		}
	}()
	for i := 0; i < cfg.UEs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if cfg.Ramp > 0 && cfg.UEs > 1 {
				time.Sleep(cfg.Ramp * time.Duration(i) / time.Duration(cfg.UEs))
			}
			ue := &ueRunner{
				id:     i,
				cfg:    cfg,
				route:  ring.Candidates(cfg.ueToken(i)),
				replay: replay{log: logs[i]},
				hist:   &hist,
				tot:    &tot,
			}
			if err := ue.run(); err != nil {
				recordErr(fmt.Errorf("ue %d: %w", i, err))
			}
		}(i)
	}
	wg.Wait()
	loadWall := time.Since(loadStart)
	<-faultsDone
	if local != nil {
		// Every rig counter below, the ops scrape included, must see
		// the sessions' last latency observations.
		if err := local.settle(5 * time.Second); err != nil {
			addErr(err)
		}
	}

	rep := &Report{
		UEs:        cfg.UEs,
		Mode:       cfg.Mode.String(),
		Framing:    cfg.Framing,
		Carrier:    cfg.Carrier,
		Arch:       cfg.Arch.String(),
		Route:      cfg.Route.String(),
		Seed:       cfg.Seed,
		DurationMS: float64(cfg.Duration) / float64(time.Millisecond),
		RampMS:     float64(cfg.Ramp) / float64(time.Millisecond),
		GenMS:      float64(genWall) / float64(time.Millisecond),
		WallMS:     float64(loadWall) / float64(time.Millisecond),

		Samples:         tot.samples.Load(),
		Predictions:     tot.predictions.Load(),
		Reports:         tot.reports.Load(),
		Handovers:       tot.handovers.Load(),
		FailedUEs:       int(failed.Load()),
		Errors:          errs,
		LostSamples:     tot.lost.Load(),
		Reconnects:      tot.reconnects.Load(),
		ResumedSessions: tot.resumed.Load(),
		ColdResumes:     tot.cold.Load(),
		Latency:         hist.Snapshot(),
	}
	if cfg.Mode == ModeClosed && cfg.ClosedWindow > 1 {
		rep.ClosedWindow = cfg.ClosedWindow
	}
	if proxy != nil {
		rep.ChaosSeed = cfg.Chaos.Seed
		for _, p := range proxy.History() {
			if p.Active() {
				rep.ChaosFaults++
			}
		}
	}
	sort.Strings(rep.Errors)
	if secs := loadWall.Seconds(); secs > 0 {
		rep.PredictionsPerSec = float64(rep.Predictions) / secs
	}
	if denom := tot.resumed.Load() + tot.cold.Load(); denom > 0 {
		rep.WarmResumeRatio = float64(tot.resumed.Load()) / float64(denom)
	}
	var snaps []metrics.ServerSnapshot
	var rows []NodeReport
	if local != nil {
		snaps, rows = local.report()
	} else {
		// Best-effort: a member mid-restart just drops out of this pass.
		for _, a := range members {
			if snap, err := server.FetchStats(a); err == nil {
				snaps = append(snaps, snap)
				rows = append(rows, snapshotReport(a, snap))
			}
		}
	}
	agg := aggregate(snaps)
	if len(snaps) > 0 {
		rep.Server = &agg
	}
	if len(members) > 1 {
		rep.Addrs = ring.Members()
		rep.ClusterSize = ring.Size()
		rep.Redirects = tot.redirects.Load()
		rep.PerNode = rows
		for _, r := range rows {
			rep.RollingRestarts += r.Restarts
			rep.NodeKills += r.Kills
		}
	}
	if scrapeAddr != "" {
		m, err := obs.Scrape(scrapeAddr)
		if err != nil {
			return nil, fmt.Errorf("fleet: scraping ops plane: %w", err)
		}
		rep.OpsMetrics = m
	}
	return rep, nil
}

// ueRunner is one synthetic UE's session state.
type ueRunner struct {
	id  int
	cfg Config
	// route is the token's candidate list in ring order: route[0] is the
	// owner the UE dials, the rest are the recovery fallbacks (none for a
	// single target), in the same order a drain would migrate the session.
	route  []string
	replay replay
	hist   *metrics.Histogram
	tot    *counters
}

// run dials the server through a resilient client — each UE carries a
// deterministic session token derived from its identity, so a transport
// fault mid-drive reconnects and resumes instead of failing the UE — and
// streams the drive for cfg.Duration.
func (u *ueRunner) run() error {
	retry := server.RetryPolicy{MaxAttempts: u.cfg.MaxReconnects}
	if u.cfg.MaxReconnects < 0 {
		retry.MaxAttempts = 1
	}
	// Windowed closed loop batches write flushes; the open-loop
	// writer/reader goroutine split requires auto-flush (see
	// ClientOptions.NoAutoFlush).
	batched := u.cfg.Mode == ModeClosed && u.cfg.ClosedWindow > 1
	client, err := server.DialResilient(u.route[0], server.ResilientOptions{
		Hello: wire.Hello{
			Carrier:      u.cfg.Carrier,
			Arch:         u.cfg.Arch,
			SessionToken: u.cfg.ueToken(u.id),
		},
		Dial: server.ClientOptions{
			DialTimeout: u.cfg.DialTimeout,
			Framing:     u.cfg.ueFraming(u.id),
			NoAutoFlush: batched,
		},
		Retry:     retry,
		Seed:      u.cfg.ueSeed(u.id),
		Fallbacks: u.route[1:],
	})
	if err != nil {
		return err
	}
	defer func() {
		st := client.Stats()
		u.tot.lost.Add(st.Lost())
		u.tot.reconnects.Add(st.Reconnects)
		u.tot.resumed.Add(st.Resumed)
		u.tot.cold.Add(st.ColdResumes)
		u.tot.redirects.Add(st.Redirects)
		client.Close()
	}()
	if u.cfg.Mode == ModeClosed {
		return u.runClosed(client)
	}
	return u.runOpen(client)
}

// sendControl streams the control-plane records due before a sample.
func (u *ueRunner) sendControl(client *server.ResilientClient, reports []cellular.MeasurementReport, hos []cellular.HandoverEvent, off time.Duration) error {
	for _, mr := range reports {
		mr.Time += off
		if err := client.SendReport(mr); err != nil {
			return err
		}
		u.tot.reports.Add(1)
	}
	for _, ho := range hos {
		ho.Time += off
		if err := client.SendHandover(ho); err != nil {
			return err
		}
		u.tot.handovers.Add(1)
	}
	return nil
}

// runClosed measures capacity. Each iteration pipelines a burst of
// ClosedWindow samples and then reads their predictions back; per-sample
// latency is measured from that sample's own send time, so queueing
// behind the rest of the burst shows up honestly. Window 1 is the strict
// blocking round trip, back to back: the client auto-flushes each send.
func (u *ueRunner) runClosed(client *server.ResilientClient) error {
	deadline := time.Now().Add(u.cfg.Duration)
	win := u.cfg.ClosedWindow
	t0s := make([]time.Time, 0, win)
	for time.Now().Before(deadline) {
		t0s = t0s[:0]
		for k := 0; k < win; k++ {
			smp, reports, hos, off := u.replay.step()
			if err := u.sendControl(client, reports, hos, off); err != nil {
				return err
			}
			t0s = append(t0s, time.Now())
			if err := client.SendSampleAsync(smp); err != nil {
				return err
			}
			u.tot.samples.Add(1)
		}
		for _, t0 := range t0s {
			if _, err := client.ReadResponse(); err != nil {
				return err
			}
			u.hist.Observe(time.Since(t0))
			u.tot.predictions.Add(1)
		}
	}
	return nil
}

// runOpen measures queueing: a writer goroutine keeps the fixed 20 Hz
// schedule no matter how the server is doing, while the reader matches
// every prediction to its sample's *scheduled* send time — late responses
// therefore accumulate in the histogram tail rather than stretching the
// send schedule (no coordinated omission).
func (u *ueRunner) runOpen(client *server.ResilientClient) error {
	n := int(u.cfg.Duration / trace.SamplePeriod)
	if n < 1 {
		n = 1
	}
	sendTimes := make(chan time.Time, n)
	var writeErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(sendTimes)
		start := time.Now()
		for i := 0; i < n; i++ {
			due := start.Add(time.Duration(i) * trace.SamplePeriod)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			smp, reports, hos, off := u.replay.step()
			if err := u.sendControl(client, reports, hos, off); err != nil {
				writeErr = err
				return
			}
			if err := client.SendSampleAsync(smp); err != nil {
				writeErr = err
				return
			}
			u.tot.samples.Add(1)
			sendTimes <- due
		}
		// Half-close so the server finishes the session cleanly and the
		// reader sees every in-flight prediction before EOF (Finish
		// re-half-closes after any later recovery too).
		if err := client.Finish(); err != nil {
			writeErr = err
		}
	}()

	var readErr error
	for t0 := range sendTimes {
		if readErr != nil {
			continue // drain so the writer's channel sends never block
		}
		if _, err := client.ReadResponse(); err != nil {
			readErr = err
			client.Close() // unblock the writer
			continue
		}
		u.hist.Observe(time.Since(t0))
		u.tot.predictions.Add(1)
	}
	wg.Wait()
	if readErr != nil {
		return readErr
	}
	return writeErr
}
