// Package obs is the observability layer of sqlts: a metrics registry
// (counters, gauges, latency histograms) with a Prometheus text-format
// exporter, per-statement statistics, wide events with the ring that
// retains them, the flight registry of in-flight executions, and a
// lightweight span tracer that records the phases of the query
// compile/execute lifecycle.
//
// The package is stdlib-only. Instruments are safe for concurrent use
// and lock-free: counters, gauges and histogram buckets are atomics.
// Registries are cheap — the DB type creates one per database, and tests
// create throwaway ones.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
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

// Histogram is the one latency histogram of the package, lock-free: an
// observation of ns nanoseconds lands in the first bucket whose upper
// bound is ≥ ns (le is inclusive, per Prometheus) or in the implicit +Inf
// bucket. It keeps no count of its own — the count is the sum of the
// buckets — so an exposition that races an observation still prints a
// _count equal to its +Inf bucket. The buckets are an array, so a
// histogram embedded in another value costs no allocation of its own. A
// nil receiver is a no-op.
type Histogram struct {
	bounds  []int64                     // strictly increasing upper bounds in ns, at most maxBounds; +Inf implicit
	buckets [maxBounds + 1]atomic.Int64 // the first len(bounds)+1 are used, the last of them +Inf
	sum     atomic.Int64                // ns
	max     atomic.Int64                // ns
}

// maxBounds is the most bounds a Histogram takes: the statement
// histograms' (latBounds).
const maxBounds = 48

// Observe records one duration in nanoseconds (a negative one as 0).
func (h *Histogram) Observe(ns int64) {
	if h == nil {
		return
	}
	ns = max(ns, 0)
	i, _ := slices.BinarySearch(h.bounds, ns) // first bound ≥ ns
	h.buckets[i].Add(1)
	h.sum.Add(ns)
	for m := h.max.Load(); ns > m && !h.max.CompareAndSwap(m, ns); m = h.max.Load() {
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range len(h.bounds) + 1 {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the total observed nanoseconds.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Max returns the largest observation in nanoseconds.
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Quantile estimates the q-th quantile (0 < q ≤ 1) in nanoseconds by
// linear interpolation within the landing bucket, the largest observation
// capping the top. Returns 0 with no observations. Concurrent
// observations may skew an in-flight estimate slightly; each bucket read
// is individually atomic.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	target := min(max(int64(q*float64(total)), 1), total)
	var cum int64
	for i := range len(h.bounds) + 1 {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		if cum+n >= target {
			var lo int64
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.max.Load()
			if i < len(h.bounds) && h.bounds[i] < hi {
				hi = h.bounds[i]
			}
			hi = max(hi, lo)
			frac := float64(target-cum) / float64(n)
			return lo + int64(frac*float64(hi-lo))
		}
		cum += n
	}
	return h.max.Load()
}

// cumulative returns the cumulative bucket counts, aligned with bounds and
// then +Inf, reading each bucket once: the last is the count.
func (h *Histogram) cumulative() []int64 {
	cum := make([]int64, len(h.bounds)+1)
	var run int64
	for i := range cum {
		run += h.buckets[i].Load()
		cum[i] = run
	}
	return cum
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
	collect func() // run at the start of every exposition (nil = none)
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

// Histogram returns the named latency histogram, registering it on first
// use with the given bucket upper bounds in seconds (nil = DefBuckets).
// Bounds must be strictly increasing in whole nanoseconds; the +Inf
// bucket is implicit. It is exposed in seconds.
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
	if len(bounds) > maxBounds {
		panic(fmt.Sprintf("obs: histogram %q has more than %d buckets", name, maxBounds))
	}
	ns := make([]int64, len(bounds))
	for i, b := range bounds {
		ns[i] = int64(math.Round(b * 1e9))
		if i > 0 && ns[i] <= ns[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not strictly increasing", name))
		}
	}
	h := &Histogram{bounds: ns}
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

// OnCollect installs fn to run at the start of every exposition (WriteTo,
// and so Handler), for instruments read from elsewhere at scrape time
// rather than updated as events happen, such as runtime gauges. A later
// call replaces the hook.
func (r *Registry) OnCollect(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collect = fn
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
// (version 0.0.4), families sorted by name for deterministic output,
// after running the collect hook.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.RLock()
	collect := r.collect
	r.mu.RUnlock()
	if collect != nil {
		collect()
	}
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
			cum := m.h.cumulative()
			for i, bound := range m.h.bounds {
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", m.name, seconds(bound), cum[i])
			}
			count := cum[len(cum)-1]
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", m.name, count)
			fmt.Fprintf(&b, "%s_sum %s\n", m.name, seconds(m.h.Sum()))
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

// seconds renders ns nanoseconds as seconds.
func seconds(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
