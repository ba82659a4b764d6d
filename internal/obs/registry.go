// Package obs is the out-of-band observability layer of the serving stack:
// a dependency-free HTTP ops plane (Prometheus text-format /metrics,
// /healthz, /readyz, /events, net/http/pprof) plus a bounded ring-buffer
// event tracer for the serving pipeline and the simulator's handover
// machinery.
//
// The paper's whole method is observation — XCAL and 5G Tracker expose
// every measurement report, handover event and stack transition so §4–§6
// can be measured. This package gives the reproduction's own serving
// daemon the same property: every counter internal/metrics records is
// scrapeable out of band, and the discrete events that drive the analysis
// (session lifecycle, ho_score emissions, HO triggers, checkpoint writes)
// stream through a Tracer that /events exposes as JSONL.
//
// Everything here is hand-rolled on the standard library: the exposition
// encoder speaks `text/plain; version=0.0.4` directly rather than pulling
// in a client library, matching the repo's no-new-dependencies rule.
package obs

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/metrics"
)

// metricKind is the TYPE line vocabulary of the exposition format.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// metric is one registered series: a name, its metadata, and the collect
// closure sampled at scrape time.
type metric struct {
	name string
	help string
	kind metricKind
	// labels are per-series constant labels (e.g. build_info's version
	// pair), rendered merged with the registry's own constant labels.
	labels map[string]string
	// value collects a counter or gauge; hist collects a histogram.
	value func() float64
	hist  func() metrics.LatencySnapshot
}

// Registry holds the metrics the ops plane exposes. Collection is pull
// based: registration stores a closure, and every render samples the live
// value, so the registry adapts the existing atomic counters in
// internal/metrics without any double bookkeeping on the hot path.
//
// A Registry is safe for concurrent registration and rendering.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
	// constLabels are stamped on every rendered sample — the cluster ops
	// plane sets {node="host:port"} so one scraper can tell N prognosd
	// instances apart. Empty means bare sample lines, byte-identical to
	// the pre-cluster exposition.
	constLabels map[string]string
	// prepare holds the onRender hooks. collect serialises renders, so
	// what a hook stores is what the same render's series read.
	prepare []func()
	collect sync.Mutex
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// SetConstLabels sets labels rendered on every sample the registry emits
// (merged with any per-series labels; per-series wins on collision).
// prognosd uses this to stamp its cluster node identity on the /metrics
// exposition. Call before serving scrapes; an empty or nil map restores
// bare output.
func (r *Registry) SetConstLabels(labels map[string]string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(labels) == 0 {
		r.constLabels = nil
		return
	}
	r.constLabels = make(map[string]string, len(labels))
	for k, v := range labels {
		r.constLabels[k] = v
	}
}

// register stores one series, replacing any previous registration of the
// same name (last writer wins, like repeated flag definitions).
func (r *Registry) register(m *metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[m.name] = m
}

// Counter registers a monotonically increasing series. fn is sampled at
// every scrape and must be safe for concurrent use.
func (r *Registry) Counter(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, kind: kindCounter, value: fn})
}

// Gauge registers a series that can go up and down.
func (r *Registry) Gauge(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, kind: kindGauge, value: fn})
}

// LabeledGauge registers a gauge carrying per-series constant labels —
// the identity-series idiom (build_info and friends), where the labels
// are the payload and the value is a constant 1.
func (r *Registry) LabeledGauge(name, help string, labels map[string]string, fn func() float64) {
	ls := make(map[string]string, len(labels))
	for k, v := range labels {
		ls[k] = v
	}
	r.register(&metric{name: name, help: help, kind: kindGauge, labels: ls, value: fn})
}

// onRender registers fn to run at the start of every render, before any
// series is collected. A family of series reads one sample per render
// through it: the hook takes the sample and the series' closures read
// what it stored, which renders, being serialised, never race on.
func (r *Registry) onRender(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.prepare = append(r.prepare, fn)
}

// Histogram registers a latency distribution. fn returns a
// metrics.LatencySnapshot (the log-linear histogram export); the encoder
// renders it as a classic Prometheus cumulative-bucket histogram with
// second-valued `le` bounds.
func (r *Registry) Histogram(name, help string, fn func() metrics.LatencySnapshot) {
	r.register(&metric{name: name, help: help, kind: kindHistogram, hist: fn})
}

// Render writes the registry in Prometheus text exposition format
// (version 0.0.4), series sorted by name so output is deterministic and
// golden-testable.
func (r *Registry) Render(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	ms := make([]*metric, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		ms = append(ms, r.metrics[name])
	}
	constLabels := r.constLabels
	prepare := r.prepare
	r.mu.Unlock()

	// Collect outside the registry lock: collect closures may themselves
	// take locks (e.g. a server stats snapshot) and must not nest inside
	// it. Renders run one at a time, so the onRender hooks can store what
	// this render's closures read; a closure must not render r itself.
	r.collect.Lock()
	defer r.collect.Unlock()
	for _, fn := range prepare {
		fn()
	}
	var b strings.Builder
	for _, m := range ms {
		labels := mergeLabels(constLabels, m.labels)
		fmt.Fprintf(&b, "# HELP %s %s\n", m.name, escapeHelp(m.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.kind)
		if m.kind == kindHistogram {
			renderHistogram(&b, m.name, labels, m.hist())
			continue
		}
		fmt.Fprintf(&b, "%s%s %s\n", m.name, renderLabels(labels, ""), formatValue(m.value()))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// mergeLabels overlays per-series labels on the registry constants
// (per-series wins). Both nil yields nil, keeping bare output bare.
func mergeLabels(base, over map[string]string) map[string]string {
	if len(base) == 0 {
		return over
	}
	out := make(map[string]string, len(base)+len(over))
	for k, v := range base {
		out[k] = v
	}
	for k, v := range over {
		out[k] = v
	}
	return out
}

// renderLabels formats a label set as `{k="v",...}` with keys sorted, or
// "" when there is nothing to render. le, when non-empty, is appended last
// — the histogram bucket convention.
func renderLabels(labels map[string]string, le string) string {
	if len(labels) == 0 && le == "" {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	if le != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "le=%q", le)
	}
	b.WriteByte('}')
	return b.String()
}

// renderHistogram emits the cumulative `le` bucket series plus _sum and
// _count. The log-linear snapshot stores per-bucket counts with
// microsecond upper bounds; the exposition uses cumulative counts with
// second-valued bounds, which is what PromQL's histogram_quantile expects.
func renderHistogram(b *strings.Builder, name string, labels map[string]string, snap metrics.LatencySnapshot) {
	var cum int64
	for _, bk := range snap.Buckets {
		cum += bk.Count
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, renderLabels(labels, formatValue(bk.UpperUS/1e6)), cum)
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, renderLabels(labels, "+Inf"), snap.Count)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, renderLabels(labels, ""), formatValue(snap.SumUS/1e6))
	fmt.Fprintf(b, "%s_count%s %d\n", name, renderLabels(labels, ""), snap.Count)
}

// formatValue renders a sample value the way Prometheus clients do:
// shortest round-trippable float, so integral values print without a
// decimal point.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes the characters the exposition format reserves in
// HELP text.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// RegisterServerMetrics registers the full prognosd metric family over a
// server-stats snapshot function (typically (*server.Server).Stats): one
// series per row of metrics.Counters, plus uptime, replication lag and the
// latency histogram, which are not stored counters. Every render takes one
// fresh snapshot and reads the whole family from it, so a scrape reflects
// the live atomic counters at one instant.
func RegisterServerMetrics(r *Registry, snap func() metrics.ServerSnapshot) {
	var s metrics.ServerSnapshot // the current render's snapshot
	r.onRender(func() { s = snap() })
	r.Gauge("prognos_uptime_seconds", "Seconds since the server started.",
		func() float64 { return s.UptimeMS / 1e3 })
	for _, spec := range metrics.Counters {
		value := func() float64 {
			v := float64(*spec.Field(&s))
			if spec.Div != 0 {
				v /= spec.Div
			}
			return v
		}
		if spec.Gauge {
			r.Gauge(spec.Name, spec.Help, value)
		} else {
			r.Counter(spec.Name, spec.Help, value)
		}
	}
	r.Gauge("prognos_replication_lag_seconds",
		"Age of the most recent outbound replication push: the bounded-staleness window a crash of this node can lose.",
		func() float64 { return float64(s.ReplicationLagUS) / 1e6 })
	r.Histogram("prognos_request_latency_seconds",
		"Server-side per-sample serving latency (OnSample through response flush).",
		func() metrics.LatencySnapshot { return s.Latency })
}

// RegisterBuildInfo registers prognos_build_info, the identity gauge that
// carries the binary's Go toolchain version and VCS revision as labels
// over a constant 1 — the Prometheus convention for joining build
// metadata onto any other series.
func RegisterBuildInfo(r *Registry) {
	revision := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				revision = s.Value
				if len(revision) > 12 {
					revision = revision[:12]
				}
			}
		}
	}
	RegisterBuildInfoValues(r, runtime.Version(), revision)
}

// RegisterBuildInfoValues is RegisterBuildInfo with the label values
// injected — the golden-testable core (build metadata is not available
// under `go test`).
func RegisterBuildInfoValues(r *Registry, goVersion, revision string) {
	r.LabeledGauge("prognos_build_info",
		"Build identity of this binary: constant 1 with the version labels.",
		map[string]string{"go_version": goVersion, "revision": revision},
		func() float64 { return 1 })
}
