package obs

// The structured wide-event log: one self-contained JSON record per
// completed query carrying the full counter set, so post-hoc analysis
// is grep/jq over a file instead of eyeballing the slow log. Events
// flow through a pluggable EventSink; EventRing retains the most
// recent ones in memory for /debug/events.

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one completed execution (or closed stream), wide: every
// counter the run accumulated, the cache/kernel/vectorize/shard flags,
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
	// "built" or "refreshed (k of n clusters)". Empty on failures and
	// streams.
	Partition  string `json:"partition,omitempty"`
	Kernel     bool   `json:"kernel"`
	Vectorized bool   `json:"vectorized"`
	Shards     int    `json:"shards,omitempty"`

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

// EventRing retains the most recent events in a fixed-capacity ring
// for /debug/events. The zero capacity disables retention. All methods
// are safe for concurrent use; a nil ring is inert.
type EventRing struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	n     int
	total int64
}

// NewEventRing creates a ring retaining up to capacity events.
func NewEventRing(capacity int) *EventRing {
	if capacity < 0 {
		capacity = 0
	}
	return &EventRing{buf: make([]Event, capacity)}
}

// Add records one event, evicting the oldest at capacity.
func (r *EventRing) Add(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if len(r.buf) == 0 {
		return
	}
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// Snapshot returns the retained events, most recent first.
func (r *EventRing) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(r.next-1-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// Total returns the number of events ever added (retained or evicted).
func (r *EventRing) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// SetCapacity resizes the ring, keeping the most recent events that
// fit.
func (r *EventRing) SetCapacity(capacity int) {
	if r == nil {
		return
	}
	if capacity < 0 {
		capacity = 0
	}
	recent := r.Snapshot()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf = make([]Event, capacity)
	r.next, r.n = 0, 0
	if capacity == 0 {
		return
	}
	if len(recent) > capacity {
		recent = recent[:capacity]
	}
	// recent is most-recent-first; reinsert oldest-first.
	for i := len(recent) - 1; i >= 0; i-- {
		r.buf[r.next] = recent[i]
		r.next = (r.next + 1) % capacity
		if r.n < capacity {
			r.n++
		}
	}
}
