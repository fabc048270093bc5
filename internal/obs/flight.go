package obs

// The active-query registry: every in-flight execution that runs long
// enough to be seen (and every open stream) holds a Flight whose progress
// counters are ticked by the executors with plain atomic adds, so an
// operator can see which statement is where while it is still executing,
// and kill it. The
// package stays engine-agnostic: callers register with plain
// strings/ints and hand the kill error in as a value; nothing here knows
// the caller's typed error taxonomy.
//
// Nil receivers are inert on every method, so a disabled recorder hands
// out nil Flights and the serving path needs no call-site guards.

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// FlightPhase is where an in-flight query currently is in its
// lifecycle.
type FlightPhase int32

// Flight phases. Queued flights are waiting on admission; Running
// flights are executing; Streaming flights are open continuous queries
// (their "progress" is pushes, not clusters).
const (
	PhaseQueued FlightPhase = iota
	PhaseRunning
	PhaseStreaming
)

// String names the phase for snapshots and the text renderer.
func (p FlightPhase) String() string {
	switch p {
	case PhaseQueued:
		return "queued"
	case PhaseRunning:
		return "running"
	case PhaseStreaming:
		return "streaming"
	default:
		return "unknown"
	}
}

// killState carries the kill error; a non-nil pointer means the flight
// was killed.
type killState struct{ err error }

// Flight is one registered in-flight execution. The identity fields
// are immutable after Register; the progress counters are atomics
// ticked from the executing goroutines and read by snapshots.
type Flight struct {
	id       uint64
	sql      string
	executor string
	start    time.Time

	phase         atomic.Int32
	clustersTotal atomic.Int64
	clustersDone  atomic.Int64
	rowsScanned   atomic.Int64
	matches       atomic.Int64
	predEvals     atomic.Int64
	pushes        atomic.Int64

	// kill is set once by Kill; executors observe it at their
	// cooperative checkpoints. cancel, when registered, is invoked by
	// Kill so context-driven runs stop even between checkpoints.
	kill     atomic.Pointer[killState]
	cancelMu sync.Mutex
	cancel   func()
}

// ID returns the flight's registry-unique id (0 for a nil flight).
func (f *Flight) ID() uint64 {
	if f == nil {
		return 0
	}
	return f.id
}

// SQL returns the normalized statement text the flight executes.
func (f *Flight) SQL() string {
	if f == nil {
		return ""
	}
	return f.sql
}

// Start returns when the execution started: its registration, or its
// admission when it enrolled later.
func (f *Flight) Start() time.Time {
	if f == nil {
		return time.Time{}
	}
	return f.start
}

// SetPhase moves the flight to a lifecycle phase.
func (f *Flight) SetPhase(p FlightPhase) {
	if f == nil {
		return
	}
	f.phase.Store(int32(p))
}

// SetClustersTotal publishes the execution's cluster denominator once
// the partition is known.
func (f *Flight) SetClustersTotal(n int64) {
	if f == nil {
		return
	}
	f.clustersTotal.Store(n)
}

// TickClusters advances the clusters-done numerator.
func (f *Flight) TickClusters(n int64) {
	if f == nil {
		return
	}
	f.clustersDone.Add(n)
}

// TickRows advances the rows-scanned-so-far counter.
func (f *Flight) TickRows(n int64) {
	if f == nil {
		return
	}
	f.rowsScanned.Add(n)
}

// TickMatches advances the matches-so-far counter.
func (f *Flight) TickMatches(n int64) {
	if f == nil {
		return
	}
	f.matches.Add(n)
}

// TickPredEvals advances the live predicate-evaluation counter. The
// batch executors tick it from their amortized checkpoints (once per
// checkpoint interval), so the live value trails the exact count by at
// most one interval per worker; the completion wide event carries the
// exact figure. A stream ticks it after every push by what the push
// spent, so a streaming flight's value is exact between pushes.
func (f *Flight) TickPredEvals(n int64) {
	if f == nil {
		return
	}
	f.predEvals.Add(n)
}

// TickPushes advances a streaming flight's push counter. A push is one
// row, so a stream ticks only this and its snapshots count the pushes
// among the rows scanned.
func (f *Flight) TickPushes(n int64) {
	if f == nil {
		return
	}
	f.pushes.Add(n)
}

// SetCancel registers the cancel function Kill invokes (a context
// cancel, typically), so killed context-driven runs stop without
// waiting for the next cooperative checkpoint.
func (f *Flight) SetCancel(cancel func()) {
	if f == nil {
		return
	}
	f.cancelMu.Lock()
	f.cancel = cancel
	f.cancelMu.Unlock()
}

// Kill marks the flight killed with err (observed by the run's next
// cooperative checkpoint) and invokes the registered cancel function.
// Only the first kill sticks; it reports whether this call won.
func (f *Flight) Kill(err error) bool {
	if f == nil || err == nil {
		return false
	}
	if !f.kill.CompareAndSwap(nil, &killState{err: err}) {
		return false
	}
	f.cancelMu.Lock()
	cancel := f.cancel
	f.cancelMu.Unlock()
	if cancel != nil {
		cancel()
	}
	return true
}

// KillErr returns the kill error, or nil while the flight is alive.
func (f *Flight) KillErr() error {
	if f == nil {
		return nil
	}
	if k := f.kill.Load(); k != nil {
		return k.err
	}
	return nil
}

// FlightSnapshot is a point-in-time copy of one flight, JSON-ready for
// /debug/queries. Counters are read individually atomically; a
// snapshot taken mid-tick may be internally skewed by in-flight
// deltas.
type FlightSnapshot struct {
	ID        uint64    `json:"id"`
	SQL       string    `json:"sql"`
	Executor  string    `json:"executor,omitempty"`
	Phase     string    `json:"phase"`
	StartTime time.Time `json:"start_time"`
	ElapsedNs int64     `json:"elapsed_ns"`

	ClustersTotal int64 `json:"clusters_total"`
	ClustersDone  int64 `json:"clusters_done"`
	RowsScanned   int64 `json:"rows_scanned"`
	Matches       int64 `json:"matches"`
	PredEvals     int64 `json:"pred_evals"`
	Pushes        int64 `json:"pushes,omitempty"`

	Killed bool `json:"killed,omitempty"`
}

// Snapshot copies the flight's counters.
func (f *Flight) Snapshot() FlightSnapshot {
	if f == nil {
		return FlightSnapshot{}
	}
	pushes := f.pushes.Load()
	return FlightSnapshot{
		ID:        f.id,
		SQL:       f.sql,
		Executor:  f.executor,
		Phase:     FlightPhase(f.phase.Load()).String(),
		StartTime: f.start,
		ElapsedNs: time.Since(f.start).Nanoseconds(),

		ClustersTotal: f.clustersTotal.Load(),
		ClustersDone:  f.clustersDone.Load(),
		RowsScanned:   f.rowsScanned.Load() + pushes,
		Matches:       f.matches.Load(),
		PredEvals:     f.predEvals.Load(),
		Pushes:        pushes,
		Killed:        f.kill.Load() != nil,
	}
}

// FlightRegistry is the set of in-flight executions. Register/
// Deregister bracket each run; Snapshot and Kill serve the operator
// surface. A nil registry is inert.
type FlightRegistry struct {
	seq      atomic.Uint64
	enrolled atomic.Uint64
	mu       sync.RWMutex
	flights  map[uint64]*Flight
}

// NewFlightRegistry creates an empty registry.
func NewFlightRegistry() *FlightRegistry {
	return &FlightRegistry{flights: map[uint64]*Flight{}}
}

// Register creates and tracks a flight started now under a new id. The
// int64 argument is unused: it carried a plan revision, and plans are no
// longer revised; it stays until the benchmark harness, which calls
// Register, drops it.
func (r *FlightRegistry) Register(sql, executor string, _ int64, phase FlightPhase) *Flight {
	return r.Enroll(r.NextID(), sql, executor, time.Now(), phase, FlightProgress{})
}

// NextID draws a new id from the registry's sequence (0 from a nil
// registry). An execution draws its id when it starts and enrolls under it
// only if it runs long enough to be seen, so ids stay unique across
// executions that never enroll.
func (r *FlightRegistry) NextID() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Add(1)
}

// FlightProgress is what an execution did before it enrolled: Enroll
// seeds the flight's counters with it before any snapshot can see the
// flight, so its progress reads as if it had been registered all along.
type FlightProgress struct {
	ClustersTotal, ClustersDone, RowsScanned, Matches int64
}

// Enroll tracks a flight under id, an id drawn from NextID, with its start
// time and the progress it has made so far.
func (r *FlightRegistry) Enroll(id uint64, sql, executor string, start time.Time, phase FlightPhase, done FlightProgress) *Flight {
	if r == nil {
		return nil
	}
	f := &Flight{
		id:       id,
		sql:      sql,
		executor: executor,
		start:    start,
	}
	f.phase.Store(int32(phase))
	f.clustersTotal.Store(done.ClustersTotal)
	f.clustersDone.Store(done.ClustersDone)
	f.rowsScanned.Store(done.RowsScanned)
	f.matches.Store(done.Matches)
	r.mu.Lock()
	r.flights[f.id] = f
	r.mu.Unlock()
	r.enrolled.Add(1)
	return f
}

// Enrolled reports how many flights the registry has ever tracked, which
// is how many of the ids NextID drew went to an execution that was seen.
func (r *FlightRegistry) Enrolled() uint64 {
	if r == nil {
		return 0
	}
	return r.enrolled.Load()
}

// Deregister drops a flight (typically deferred at registration).
func (r *FlightRegistry) Deregister(f *Flight) {
	if r == nil || f == nil {
		return
	}
	r.mu.Lock()
	delete(r.flights, f.id)
	r.mu.Unlock()
}

// Get returns the flight with the given id, or nil.
func (r *FlightRegistry) Get(id uint64) *Flight {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.flights[id]
}

// Kill marks the identified flight killed with err. It reports false
// when no such flight is registered (already finished, or never
// existed) or the flight was already killed.
func (r *FlightRegistry) Kill(id uint64, err error) bool {
	return r.Get(id).Kill(err)
}

// Len reports the number of in-flight registrations.
func (r *FlightRegistry) Len() int {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.flights)
}

// Snapshot copies every in-flight entry, oldest registration first.
func (r *FlightRegistry) Snapshot() []FlightSnapshot {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	fs := make([]*Flight, 0, len(r.flights))
	for _, f := range r.flights {
		fs = append(fs, f)
	}
	r.mu.RUnlock()
	sort.Slice(fs, func(i, j int) bool { return fs[i].id < fs[j].id })
	out := make([]FlightSnapshot, len(fs))
	for i, f := range fs {
		out[i] = f.Snapshot()
	}
	return out
}
