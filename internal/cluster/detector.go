package cluster

import (
	"bufio"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
)

// DetectorConfig configures a Detector. Zero values pick the defaults
// noted per field.
type DetectorConfig struct {
	// Peers are the addresses to probe — normally the ring members minus
	// the local node.
	Peers []string
	// Interval is the probe cadence per peer (default 50ms). Timeout
	// bounds one probe round trip (default Interval, floored at 10ms).
	Interval time.Duration
	Timeout  time.Duration
	// OnChange, if set, is called once per confirmed transition: down=true
	// when a peer reaches confirmMisses misses, down=false when a
	// confirmed-down peer answers again. Called from the probe loop; keep
	// it cheap.
	OnChange func(peer string, down bool)
	// Probe overrides the probe implementation (tests). The default is
	// ProbeStats: a full stats-hello round trip, so "up" means "serving
	// the session protocol", not merely "port open".
	Probe func(addr string, timeout time.Duration) error
}

// confirmMisses is the number of consecutive failed probes that confirms a
// peer down. With the default interval a crash is confirmed in ~100–150ms
// — fast enough that a redirected client still has recovery attempts left
// when the successor starts serving replicas (see docs/ARCHITECTURE.md
// §Failure model) — while a single lost probe never is.
const confirmMisses = 2

// Detector is a lightweight crash-failure detector: it probes the
// configured peers on a fixed interval and confirms a peer down after
// confirmMisses consecutive probe failures. Confirmation is deliberately the
// only signal the serving path trusts — replicated session state outranks
// ring ownership solely for peers the detector currently holds down — so
// a slow peer costs redirects, never split-brain serving.
type Detector struct {
	cfg DetectorConfig

	mu   sync.Mutex
	miss map[string]int
	down map[string]bool

	done chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

// NewDetector builds a detector; call Start to begin probing.
func NewDetector(cfg DetectorConfig) *Detector {
	if cfg.Interval <= 0 {
		cfg.Interval = 50 * time.Millisecond
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = cfg.Interval
	}
	if cfg.Timeout < 10*time.Millisecond {
		cfg.Timeout = 10 * time.Millisecond
	}
	if cfg.Probe == nil {
		cfg.Probe = ProbeStats
	}
	return &Detector{
		cfg:  cfg,
		miss: make(map[string]int, len(cfg.Peers)),
		down: make(map[string]bool, len(cfg.Peers)),
		done: make(chan struct{}),
	}
}

// Start launches the probe loop. Idempotent with Stop: Start-Stop pairs
// once per detector.
func (d *Detector) Start() {
	d.wg.Add(1)
	go d.loop()
}

// Stop halts probing and waits for in-flight probes to finish.
func (d *Detector) Stop() {
	d.once.Do(func() { close(d.done) })
	d.wg.Wait()
}

// Down reports whether peer is currently confirmed down.
func (d *Detector) Down(peer string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.down[peer]
}

func (d *Detector) loop() {
	defer d.wg.Done()
	t := time.NewTicker(d.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-d.done:
			return
		case <-t.C:
		}
		var wg sync.WaitGroup
		for _, peer := range d.cfg.Peers {
			wg.Add(1)
			go func(peer string) {
				defer wg.Done()
				d.record(peer, d.cfg.Probe(peer, d.cfg.Timeout) == nil)
			}(peer)
		}
		wg.Wait()
	}
}

// record folds one probe verdict into the per-peer miss counter and fires
// OnChange on confirmed transitions.
func (d *Detector) record(peer string, ok bool) {
	var changed, down bool
	d.mu.Lock()
	if ok {
		d.miss[peer] = 0
		if d.down[peer] {
			d.down[peer] = false
			changed, down = true, false
		}
	} else {
		d.miss[peer]++
		if d.miss[peer] >= confirmMisses && !d.down[peer] {
			d.down[peer] = true
			changed, down = true, true
		}
	}
	d.mu.Unlock()
	if changed && d.cfg.OnChange != nil {
		d.cfg.OnChange(peer, down)
	}
}

// ProbeStats performs one liveness probe against a prognosd node: dial,
// send a {"stats":true} hello, read the one-line answer. A full protocol
// round trip — rather than a bare TCP connect — both proves the node is
// actually serving and keeps the probe invisible to the peer's session
// accounting (stats queries are never counted as sessions or errors;
// a half-open connect would be logged as a bad hello).
func ProbeStats(addr string, timeout time.Duration) error {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	if _, err := conn.Write([]byte("{\"stats\":true}\n")); err != nil {
		return err
	}
	_, err = wire.ReadLine(bufio.NewReader(conn), wire.MaxLineBytes)
	return err
}
