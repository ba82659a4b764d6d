package main

import (
	"fmt"
	"net"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/wire"
)

// serveShape is one network workload: how many servers, which framing,
// and how the connections load them.
type serveShape struct {
	binary        bool
	window        int     // closed loop: samples pipelined per round trip
	rate          float64 // open loop (when > 0): aggregate samples/s
	nodes         int     // 1: one server; >1: replicated ring
	driveKM       float64 // length of each freeway drive
	drivesPerConn int
}

func (sh serveShape) open() bool { return sh.rate > 0 }

// rig is a running workload: servers, connected clients and the record
// stream each connection replays.
type rig struct {
	servers []*server.Server
	addrs   []string
	ring    *cluster.Ring
	conns   []*client
	streams []*stream
	drives  driveTotals
	// simRates is each drive's km per second of its own deploy + sim.
	simRates []float64
	// simAllocsPerKM is the heap allocations per simulated km during setup.
	simAllocsPerKM float64
}

func (r *rig) close() {
	for _, c := range r.conns {
		c.close()
	}
	for _, s := range r.servers {
		s.Close()
	}
}

// stats returns the counters of every server in the rig.
func (r *rig) stats() []metrics.ServerSnapshot {
	out := make([]metrics.ServerSnapshot, len(r.servers))
	for i, s := range r.servers {
		out[i] = s.Stats()
	}
	return out
}

// driveSeed derives a distinct drive seed per workload seed, connection and
// drive.
func driveSeed(seed int64, conn, k int) int64 {
	return seed*1_000_003 + int64(conn)*7919 + int64(k)*104_729 + 1
}

// setup generates every connection's drives, starts the servers and opens
// the sessions. All of it happens outside the timed rounds and counts in
// setup_s.
func (sh serveShape) setup(seed int64, tracers []*Tracer) (*rig, error) {
	conns := procs()
	var specs []driveSpec
	for c := 0; c < conns; c++ {
		for k := 0; k < sh.drivesPerConn; k++ {
			specs = append(specs, freeway(driveSeed(seed, c, k), sh.driveKM))
		}
	}
	m0 := mallocs()
	ds, err := simulateAll(specs, tracers)
	if err != nil {
		return nil, err
	}
	r := &rig{drives: totals(ds)}
	r.simAllocsPerKM = float64(mallocs()-m0) / r.drives.km
	for _, d := range ds {
		r.simRates = append(r.simRates, d.kmPerSecond())
	}
	for c := 0; c < conns; c++ {
		r.streams = append(r.streams, newStream(ds[c*sh.drivesPerConn:(c+1)*sh.drivesPerConn]))
	}
	if err := r.start(sh, seed); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// start brings the servers up and dials one session per connection. On a
// ring, each connection's token is picked so that its owner differs from
// the other connections' owners, and the client dials the owner directly.
func (r *rig) start(sh serveShape, seed int64) error {
	if sh.nodes <= 1 {
		s, err := server.ListenWith("127.0.0.1:0", server.Options{})
		if err != nil {
			return err
		}
		r.servers = []*server.Server{s}
		r.addrs = []string{s.Addr()}
	} else {
		lns := make([]net.Listener, 0, sh.nodes)
		for i := 0; i < sh.nodes; i++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				for _, l := range lns {
					l.Close()
				}
				return err
			}
			lns = append(lns, ln)
			r.addrs = append(r.addrs, ln.Addr().String())
		}
		ring, err := cluster.New(r.addrs, nil)
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return err
		}
		r.ring = ring
		for i, ln := range lns {
			r.servers = append(r.servers, server.Serve(ln, server.Options{
				Cluster:             ring,
				NodeAddr:            r.addrs[i],
				ResumeGrace:         time.Minute,
				ReplicationInterval: 100 * time.Millisecond,
			}))
		}
	}
	used := make(map[string]bool)
	for c := range r.streams {
		token, addr := fmt.Sprintf("perfbench-%d-%d", seed, c), r.addrs[0]
		if r.ring != nil {
			for k := 0; ; k++ {
				token = fmt.Sprintf("perfbench-%d-%d-%d", seed, c, k)
				addr = r.ring.Owner(token)
				if !used[addr] || len(used) == len(r.addrs) {
					break
				}
			}
			used[addr] = true
		}
		cl, err := dial(addr, token, sh.binary)
		if err != nil {
			return err
		}
		r.conns = append(r.conns, cl)
	}
	return nil
}

// round is how long the network workloads serve between reference
// replays. The window is a sequence of rounds, so every rate a run reports
// is sampled across the whole run: the reference replay after each round,
// the extra setups between rounds, the traced rounds between untraced
// ones. The machine's speed drifts over seconds; a rate measured once, at
// one end of the run, would carry that drift into the run-to-run spread.
const round = time.Second

// roundStat is what one connection measured in one round.
type roundStat struct {
	traced bool
	preds  int64
	dur    time.Duration // round start to the last response
	lat    latency
	err    error // too few samples for a p99
}

// connRun is what one connection measured over all rounds.
type connRun struct {
	sent    int64
	answers *answerLog
	gate    *seqGate
	exp     *stream // the samples the responses answer, in order
	err     error
	rounds  []roundStat
	lat     []uint32 // the current round's latencies, ns
	// Traced rounds only: send lateness in ns, reads returning data.
	late  []int64
	reads int64
}

func newConnRun(st *stream) *connRun {
	return &connRun{gate: newSeqGate(), answers: newAnswerLog(st.cycleLen), exp: st.clone()}
}

func (cr *connRun) fail(err error) {
	if cr.err == nil {
		cr.err = err
	}
}

// check runs one response through the gate and the answer log.
func (cr *connRun) check(resp wire.Response) {
	var sp step
	cr.exp.next(&sp)
	cr.gate.observe(resp, sp.smp.Time)
	cr.answers.add(answerOf(resp))
}

// endRound summarizes the round that started at start.
func (cr *connRun) endRound(traced bool, preds int64, start, last time.Time) {
	l, err := summarize(cr.lat)
	cr.rounds = append(cr.rounds, roundStat{traced: traced, preds: preds, dur: last.Sub(start), lat: l, err: err})
	cr.lat = cr.lat[:0]
}

// runClosed drives one connection in closed loop until end: pipeline
// window samples, flush, read the window's responses back, repeat.
// Latency runs from the flush that put a sample on the wire to its
// response.
func runClosed(ci int, c *client, st *stream, window int, end time.Time, t *Tracer, cr *connRun) {
	var sp step
	var resp wire.Response
	start, reads0 := time.Now(), c.cr.reads
	last := start
	var preds int64
	for now := start; now.Before(end); now = time.Now() {
		id := sampleID(ci, cr.sent+1)
		t.Begin("loadgen.send", id)
		for k := 0; k < window; k++ {
			st.next(&sp)
			if err := c.send(&sp); err != nil {
				cr.fail(err)
				return
			}
		}
		if err := c.flush(); err != nil {
			cr.fail(err)
			return
		}
		t.End(window)
		sent := time.Now()
		cr.sent += int64(window)
		if t != nil {
			cr.late = append(cr.late, int64(sent.Sub(now)))
		}
		t.Begin("loadgen.wait", id)
		if err := c.wait(); err != nil {
			cr.fail(fmt.Errorf("waiting for responses: %w", err))
			return
		}
		t.End(window)
		t.Begin("loadgen.read", id)
		for k := 0; k < window; k++ {
			if err := c.read(&resp); err != nil {
				cr.fail(err)
				return
			}
			last = time.Now()
			cr.lat = append(cr.lat, nsOf(last.Sub(sent)))
			cr.check(resp)
		}
		t.End(window)
		preds += int64(window)
	}
	if t != nil {
		cr.reads += c.cr.reads - reads0
	}
	cr.endRound(t != nil, preds, start, last)
}

// schedule is an open-loop send schedule: sample i (0-based) is due at
// start + i·period, for every due time before end.
type schedule struct {
	start, end time.Time
	period     time.Duration
}

func (s schedule) due(i int64) time.Time { return s.start.Add(time.Duration(i) * s.period) }

// dueBy returns the index after the last sample, from index from on, that
// is due at or before now and before the end. Samples [from, dueBy) go out
// in one flush; a sender that fell behind catches up in one batch.
func (s schedule) dueBy(from int64, now time.Time) int64 {
	i := from
	for d := s.due(i); !d.After(now) && d.Before(s.end); d = s.due(i) {
		i++
	}
	return i
}

// latency is the time from the due time of sample i (0-based) to t: a
// stall delays every later sample's response past its due time, so it
// shows in their latencies too (no coordinated omission).
func (s schedule) latency(i int64, t time.Time) time.Duration { return t.Sub(s.due(i)) }

// sleepUntil blocks the calling thread until t on the kernel timer.
// time.Sleep rounds sub-millisecond waits up to about a millisecond when
// the process is otherwise idle, which at a 0.5 ms send period would make
// the generator, not the server, the largest part of open-loop latency;
// nanosleep overshoots by the kernel's timer slack (~60 µs) instead.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep only wakes the sender early; it re-checks the schedule
	}
}

// batch is the samples [first, first+n) of a round that went out in one
// flush.
type batch struct{ first, n int64 }

// runOpen drives one connection in open loop for one round on sc. A
// sender keeps the schedule whatever the server does, sending every due
// sample in one flush; the reader times each response from its sample's
// due time. Send lateness is the flush time minus the due time.
func runOpen(ci int, c *client, st *stream, sc schedule, sendTr, readTr *Tracer, cr *connRun) {
	// One slot per sample of the round, so the sender never blocks on a
	// slow reader and the schedule holds.
	batches := make(chan batch, int(sc.end.Sub(sc.start)/sc.period)+1)
	var sendErr error
	var sent int64
	base := cr.sent
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(batches)
		var sp step
		for due := sc.due(0); due.Before(sc.end); due = sc.due(sent) {
			sleepUntil(due)
			first := sent
			sent = sc.dueBy(first, time.Now())
			sendTr.Begin("loadgen.send", sampleID(ci, base+first+1))
			for j := first; j < sent; j++ {
				st.next(&sp)
				if err := c.send(&sp); err != nil {
					sendErr = err
					sendTr.End(int(j - first))
					return
				}
			}
			err := c.flush()
			sendTr.End(int(sent - first))
			if err != nil {
				sendErr = err
				return
			}
			flushed := time.Now()
			if sendTr != nil {
				for j := first; j < sent; j++ {
					cr.late = append(cr.late, int64(flushed.Sub(sc.due(j))))
				}
			}
			batches <- batch{first, sent - first}
		}
	}()

	var resp wire.Response
	reads0 := c.cr.reads
	last := sc.start
	var preds int64
	var readErr error
	for b := range batches {
		for j := b.first; j < b.first+b.n && readErr == nil; j++ {
			readTr.Begin("loadgen.read", sampleID(ci, int64(cr.answers.n)+1))
			readErr = c.read(&resp)
			readTr.End(1)
			if readErr != nil {
				c.close() // unblocks the sender; keep draining batches
				break
			}
			last = time.Now()
			cr.lat = append(cr.lat, nsOf(sc.latency(j, last)))
			cr.check(resp)
			preds++
		}
	}
	wg.Wait()
	cr.sent += sent
	if readTr != nil {
		cr.reads += c.cr.reads - reads0
	}
	if readErr != nil {
		cr.fail(readErr)
	}
	if sendErr != nil {
		cr.fail(sendErr)
	}
	cr.endRound(readTr != nil, preds, sc.start, last)
}

// serveRound runs every connection of r for one round of length d.
// tracers holds two per connection (sender, reader), all nil in an
// untraced round; the closed loop uses the first.
func (sh serveShape) serveRound(r *rig, runs []*connRun, d time.Duration, tracers []*Tracer) {
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for i, c := range r.conns {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			if sh.open() {
				period := time.Duration(float64(time.Second) * float64(len(r.conns)) / sh.rate)
				sc := schedule{start: start, end: end, period: period}
				runOpen(i, c, r.streams[i], sc, tracers[2*i], tracers[2*i+1], runs[i])
				return
			}
			runClosed(i, c, r.streams[i], sh.window, end, tracers[2*i], runs[i])
		}(i, c)
	}
	wg.Wait()
}

// finish half-closes every session, reads each to EOF and closes the
// gate: responses after the last sample fail, and so do samples without a
// response.
func finish(r *rig, runs []*connRun) {
	for i, c := range r.conns {
		extra, err := c.finish()
		if err != nil {
			runs[i].fail(fmt.Errorf("finishing session: %w", err))
		}
		if extra > 0 {
			runs[i].gate.fail(extra, "%d responses after the last sample", extra)
		}
		runs[i].gate.finish(runs[i].sent)
	}
}
