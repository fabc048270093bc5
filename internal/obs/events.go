package obs

// The structured wide-event log: one self-contained JSON record per
// completed query carrying the full counter set, so post-hoc analysis
// is grep/jq over a file instead of eyeballing the slow log. Events
// flow through a pluggable EventSink; an EventRing retains the most
// recent ones in memory for /debug/events.

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one completed execution (or closed stream), wide: every
// counter the run accumulated, the cache/kernel/vectorize flags,
// and — for failures — the error text and its class. It is the one
// record of an execution: the metrics registry, the statement stats,
// the slow log, the ring, the sink and EXPLAIN ANALYZE's execute line
// are all fed from this value.
type Event struct {
	Time     time.Time `json:"ts"`
	QueryID  uint64    `json:"query_id,omitempty"`
	SQL      string    `json:"sql"`
	Executor string    `json:"executor,omitempty"`
	Stream   bool      `json:"stream,omitempty"`

	// DurationNs is the time after admission: from the moment the run
	// held its admission slot (or gave up waiting for one) to the moment
	// it finished, success or failure. The queue wait is not part of it;
	// AdmissionWaitNs carries that. For a stream it is open to close.
	DurationNs      int64 `json:"duration_ns"`
	AdmissionWaitNs int64 `json:"admission_wait_ns,omitempty"`

	Rows        int64 `json:"rows"`
	RowsScanned int64 `json:"rows_scanned"`
	Clusters    int64 `json:"clusters"`
	PredEvals   int64 `json:"pred_evals"`
	Rollbacks   int64 `json:"rollbacks"`
	Matches     int64 `json:"matches"`
	Pushes      int64 `json:"pushes,omitempty"`

	PlanCached      bool `json:"plan_cached"`
	PartitionCached bool `json:"partition_cached"`
	// PatternCached marks a plan compiled for this run whose pattern —
	// matrices, shift/next tables and kernel — was shared with a cached
	// plan of the same FROM … WHERE rather than computed. It sits in the
	// padding after the other cache flags, so an event is no larger for it.
	PatternCached bool `json:"pattern_cached,omitempty"`
	// Partition names how a batch run came by its clusters: "cached",
	// "built" or "refreshed (k of n clusters)". Empty on failures, on
	// streams and on runs that read no partition (a plain SELECT).
	Partition  string `json:"partition,omitempty"`
	Kernel     bool   `json:"kernel"`
	Vectorized bool   `json:"vectorized"`

	// Workers is how many goroutines, the caller's included, searched at
	// least one chunk of a batch run's clusters. HelpersBorrowed is how
	// many the run started beside the caller, HelpersDenied how many more
	// an elastic run (RunOptions.MaxWorkers 0) wanted but found no idle
	// core for — it ran on one core because the others were busy — and
	// HelpersYielded how many borrowed helpers left before the chunks ran
	// out because the process became oversubscribed.
	Workers         int `json:"workers,omitempty"`
	HelpersBorrowed int `json:"helpers_borrowed,omitempty"`
	HelpersDenied   int `json:"helpers_denied,omitempty"`
	HelpersYielded  int `json:"helpers_yielded,omitempty"`

	Error     string `json:"error,omitempty"`
	ErrorKind string `json:"error_kind,omitempty"`
	Slow      bool   `json:"slow,omitempty"`
}

// QueryObs is the statement-stats view of a successful execution. The
// executor label "naive" is the one label read: naive and optimized
// pred-evals accumulate apart.
func (e *Event) QueryObs() QueryObs {
	return QueryObs{
		DurNs:           e.DurationNs,
		Rows:            e.Rows,
		RowsScanned:     e.RowsScanned,
		PredEvals:       e.PredEvals,
		Rollbacks:       e.Rollbacks,
		Matches:         e.Matches,
		AdmissionWaitNs: e.AdmissionWaitNs,
		PlanCached:      e.PlanCached,
		PartitionCached: e.PartitionCached,
		Kernel:          e.Kernel,
		Naive:           e.Executor == "naive",
		Vectorized:      e.Vectorized,
	}
}

// EventSink consumes wide events. Emit is called synchronously from
// the finishing query's goroutine and must be safe for concurrent use;
// keep it cheap (buffer and hand off for heavy processing).
type EventSink interface {
	Emit(Event)
}

// WriterSink is an EventSink writing one JSON line per event to an
// io.Writer (a file, a pipe, a network conn). Writes are serialized by
// an internal mutex; a write error drops the failing event and is
// retained for Err.
type WriterSink struct {
	mu    sync.Mutex
	enc   *json.Encoder
	err   error
	count atomic.Int64
}

// NewWriterSink wraps w as a JSON-lines event sink.
func NewWriterSink(w io.Writer) *WriterSink {
	return &WriterSink{enc: json.NewEncoder(w)}
}

// Emit implements EventSink.
func (s *WriterSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.enc.Encode(e); err != nil && s.err == nil {
		s.err = err
	}
	s.count.Add(1)
}

// Count returns the number of events emitted (write failures included).
func (s *WriterSink) Count() int64 { return s.count.Load() }

// Err returns the first write error, if any.
func (s *WriterSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Ring retains the most recent items in a fixed-capacity ring: the
// wide-event tail of /debug/events and the slow-query log. Every Add is
// numbered, from 1, whether or not it is retained, and the numbering
// survives SetCapacity and Reset; zero capacity disables retention. All
// methods are safe for concurrent use; a nil ring is inert.
type Ring[T any] struct {
	mu   sync.Mutex
	buf  []T
	next int    // the slot the next Add writes
	n    int    // retained items
	seq  uint64 // items ever added
}

// NewRing creates a ring retaining up to capacity items.
func NewRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{buf: make([]T, max(capacity, 0))}
}

// EventRing is the ring of wide events.
type EventRing = Ring[Event]

// NewEventRing creates a ring retaining up to capacity events.
func NewEventRing(capacity int) *EventRing { return NewRing[Event](capacity) }

// Add records one item, numbered one past the last, evicting the oldest
// at capacity.
func (r *Ring[T]) Add(v T) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	if len(r.buf) == 0 {
		return
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	r.n = min(r.n+1, len(r.buf))
}

// Snapshot returns the retained items, most recent first, and the
// sequence number of the last Add. The retained items are the last ones
// added, so item i's sequence number is last−i.
func (r *Ring[T]) Snapshot() (items []T, last uint64) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, r.n)
	for i := range out {
		out[i] = r.buf[(r.next-1-i+len(r.buf))%len(r.buf)]
	}
	return out, r.seq
}

// SetCapacity resizes the ring, keeping the most recent items that fit.
func (r *Ring[T]) SetCapacity(capacity int) {
	if r == nil {
		return
	}
	capacity = max(capacity, 0)
	r.mu.Lock()
	defer r.mu.Unlock()
	keep := min(r.n, capacity)
	buf := make([]T, capacity)
	for i := range keep { // oldest kept first
		buf[i] = r.buf[(r.next-keep+i+len(r.buf))%len(r.buf)]
	}
	r.buf, r.n, r.next = buf, keep, 0
	if keep < capacity {
		r.next = keep
	}
}

// Reset drops the retained items; the numbering continues.
func (r *Ring[T]) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	clear(r.buf)
	r.n, r.next = 0, 0
}
