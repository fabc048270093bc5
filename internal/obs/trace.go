package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Annot is one key/value annotation on a span (e.g. the number of
// implication checks performed while computing the θ/φ matrices).
type Annot struct {
	Key   string
	Value any
}

// Span is one timed phase. A Span is created by Trace.Start and
// finished by End; annotations may be attached at any point in between.
// A literal Span (Name, Duration, Annots) is a valid FormatSpans row.
type Span struct {
	Name     string
	Start    time.Time
	Duration time.Duration
	Annots   []Annot

	tr   *Trace
	done bool
}

// Annotate attaches a key/value pair and returns the span for chaining.
func (s *Span) Annotate(key string, value any) *Span {
	if s == nil {
		return nil
	}
	s.Annots = append(s.Annots, Annot{Key: key, Value: value})
	return s
}

// End records the span's duration and appends it to its trace, if it
// has one. End is idempotent; a second call is a no-op.
func (s *Span) End() {
	if s == nil || s.done {
		return
	}
	s.done = true
	s.Duration = time.Since(s.Start)
	if s.tr == nil {
		return
	}
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, s)
	s.tr.mu.Unlock()
}

// Trace collects the spans of one plan's compile phases, in End order:
// written while the plan compiles, read-only once it is shared.
// A nil *Trace is valid: Start returns a nil span whose methods are
// no-ops, so instrumented code needs no nil checks.
type Trace struct {
	mu    sync.Mutex
	spans []*Span
}

// NewTrace creates an empty trace.
func NewTrace() *Trace { return &Trace{} }

// Start begins a new span. The span is not part of the trace until End.
func (t *Trace) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{Name: name, Start: time.Now(), tr: t}
}

// StartSpan begins a span of no trace: End times it, and a trace lists it
// once Add lends it one.
func StartSpan(name string) *Span { return &Span{Name: name, Start: time.Now()} }

// Add appends finished spans, read-only from then on (a pattern shared by
// several plans lends each its compile spans).
func (t *Trace) Add(spans ...*Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, spans...)
	t.mu.Unlock()
}

// Spans returns the completed spans in completion order.
func (t *Trace) Spans() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// String renders the trace as an aligned phase table:
//
//	parse        41µs
//	analyze     102µs  (elements=9 predicates=12)
func (t *Trace) String() string { return FormatSpans(t.Spans()) }

// FormatSpans renders a span list as an aligned phase table (EXPLAIN
// ANALYZE appends the analysed run's rows to the plan's compile phases).
func FormatSpans(spans []*Span) string {
	width := 0
	for _, s := range spans {
		if len(s.Name) > width {
			width = len(s.Name)
		}
	}
	var b strings.Builder
	for _, s := range spans {
		fmt.Fprintf(&b, "%-*s  %10s", width, s.Name, formatDuration(s.Duration))
		if len(s.Annots) > 0 {
			b.WriteString("  (")
			for i, a := range s.Annots {
				if i > 0 {
					b.WriteByte(' ')
				}
				fmt.Fprintf(&b, "%s=%v", a.Key, a.Value)
			}
			b.WriteByte(')')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// formatDuration rounds a duration to a human scale (ns → µs → ms → s)
// without losing small compile phases to "0s".
func formatDuration(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return d.String()
	case d < time.Millisecond:
		return d.Round(100 * time.Nanosecond).String()
	case d < time.Second:
		return d.Round(time.Microsecond).String()
	default:
		return d.Round(time.Millisecond).String()
	}
}
