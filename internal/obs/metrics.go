// Package obs is the observability layer of sqlts: a process-wide
// metrics registry (counters, gauges, histograms) with a Prometheus
// text-format exporter, and a lightweight span tracer that records the
// phases of the query compile/execute lifecycle.
//
// The package is stdlib-only. Instruments are safe for concurrent use:
// counters and gauges are lock-free atomics; histograms take a short
// mutex per observation. Registries are cheap — the DB type creates one
// per database, and tests create throwaway ones.
package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are ignored (counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// CounterVec is one counter family split by a single label over a fixed
// set of values, each value a Counter of its own.
type CounterVec struct {
	label    string
	values   []string
	counters []Counter
}

// With returns the counter of one label value. It panics on a value the
// family was not registered with: the set is part of the family's
// declaration, not data.
func (v *CounterVec) With(value string) *Counter {
	for i, name := range v.values {
		if name == value {
			return &v.counters[i]
		}
	}
	panic(fmt.Sprintf("obs: counter family has no %s=%q", v.label, value))
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into cumulative buckets, Prometheus
// style: an observation v lands in every bucket with upper bound ≥ v,
// plus the implicit +Inf bucket.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // strictly increasing upper bounds, +Inf implicit
	counts []uint64  // len(bounds)+1; last is the +Inf bucket
	sum    float64
	count  uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v (le is inclusive)
	h.counts[i]++
	h.sum += v
	h.count++
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// snapshot returns cumulative bucket counts (aligned with bounds, then
// +Inf), the sum, and the count.
func (h *Histogram) snapshot() ([]uint64, float64, uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum := make([]uint64, len(h.counts))
	var run uint64
	for i, c := range h.counts {
		run += c
		cum[i] = run
	}
	return cum, h.sum, h.count
}

// DefBuckets are the default latency buckets, in seconds (25µs … 10s).
var DefBuckets = []float64{
	.000025, .0001, .00025, .001, .0025, .01, .025, .1, .25, 1, 2.5, 10,
}

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterVec
)

type metric struct {
	name string
	help string
	kind metricKind
	c    *Counter
	g    *Gauge
	h    *Histogram
	v    *CounterVec
}

// Registry is a set of named metrics. Instrument lookups are idempotent:
// asking twice for the same name returns the same instrument, so
// packages can cheaply re-resolve instruments instead of plumbing them.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]*metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]*metric{}}
}

// Counter returns the named counter, registering it on first use.
// Panics if the name is already registered as a different kind.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.lookup(name, help, kindCounter)
	return m.c
}

// CounterVec returns the named counter family, registering it on first
// use with its label and that label's values; every value is exposed,
// zero or not.
func (r *Registry) CounterVec(name, help, label string, values ...string) *CounterVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kindCounterVec {
			panic(fmt.Sprintf("obs: metric %q re-registered as a different kind", name))
		}
		return m.v
	}
	v := &CounterVec{label: label, values: values, counters: make([]Counter, len(values))}
	r.metrics[name] = &metric{name: name, help: help, kind: kindCounterVec, v: v}
	return v
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.lookup(name, help, kindGauge)
	return m.g
}

// Histogram returns the named histogram, registering it on first use
// with the given bucket upper bounds (nil = DefBuckets). Bounds must be
// strictly increasing; the +Inf bucket is implicit.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kindHistogram {
			panic(fmt.Sprintf("obs: metric %q re-registered as a different kind", name))
		}
		return m.h
	}
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not strictly increasing", name))
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
	r.metrics[name] = &metric{name: name, help: help, kind: kindHistogram, h: h}
	return h
}

func (r *Registry) lookup(name, help string, kind metricKind) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as a different kind", name))
		}
		return m
	}
	m := &metric{name: name, help: help, kind: kind}
	switch kind {
	case kindCounter:
		m.c = &Counter{}
	case kindGauge:
		m.g = &Gauge{}
	}
	r.metrics[name] = m
	return m
}

// Families returns the registered metric names, sorted.
func (r *Registry) Families() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// WriteTo renders the registry in the Prometheus text exposition format
// (version 0.0.4), families sorted by name for deterministic output.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.RLock()
	ms := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, m)
	}
	r.mu.RUnlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })

	var b strings.Builder
	for _, m := range ms {
		if m.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", m.name, escapeHelp(m.help))
		}
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(&b, "# TYPE %s counter\n", m.name)
			fmt.Fprintf(&b, "%s %d\n", m.name, m.c.Value())
		case kindCounterVec:
			fmt.Fprintf(&b, "# TYPE %s counter\n", m.name)
			for i, value := range m.v.values {
				fmt.Fprintf(&b, "%s{%s=%q} %d\n", m.name, m.v.label, value, m.v.counters[i].Value())
			}
		case kindGauge:
			fmt.Fprintf(&b, "# TYPE %s gauge\n", m.name)
			fmt.Fprintf(&b, "%s %d\n", m.name, m.g.Value())
		case kindHistogram:
			fmt.Fprintf(&b, "# TYPE %s histogram\n", m.name)
			cum, sum, count := m.h.snapshot()
			for i, bound := range m.h.bounds {
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", m.name, formatFloat(bound), cum[i])
			}
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", m.name, cum[len(cum)-1])
			fmt.Fprintf(&b, "%s_sum %s\n", m.name, formatFloat(sum))
			fmt.Fprintf(&b, "%s_count %d\n", m.name, count)
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// Handler returns an http.Handler serving the exposition format, for
// mounting at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteTo(w)
	})
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
