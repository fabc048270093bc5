package sqlts

// The query flight recorder (live-operations layer): every Run and
// open Stream registers a Flight in the DB's active-query registry,
// executors tick its progress counters as they go, and each completed
// execution emits one structured wide event. /debug/queries (debug.go)
// lists the in-flight registrations and accepts a POST kill that lands
// in the PR 7 cancellation path as ErrKilled; /debug/events tails the
// retained wide-event ring.

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"

	"sqlts/internal/obs"
)

// defaultEventRingCapacity bounds the in-memory wide-event tail served
// by /debug/events.
const defaultEventRingCapacity = 256

// ErrNoSuchQuery reports a KillQuery id that matched no in-flight
// execution (already finished, or never existed).
var ErrNoSuchQuery = errors.New("sqlts: no such in-flight query")

// eventSinkBox wraps the sink interface so it can live in an
// atomic.Pointer (interfaces cannot).
type eventSinkBox struct{ sink obs.EventSink }

// flightState is the DB's flight-recorder state, embedded in DB.
type flightState struct {
	// flights is the active-query registry; off disables registration
	// (and the wide-event ring) entirely for overhead measurements.
	flights *obs.FlightRegistry
	off     atomic.Bool

	// sink is the pluggable wide-event destination (nil = none); ring is
	// the retained tail for /debug/events.
	sink atomic.Pointer[eventSinkBox]
	ring *obs.EventRing
}

// SetFlightRecorder enables or disables the active-query registry and
// the wide-event ring (both on by default). Disabling stops new
// registrations; flights already in the registry finish normally. The
// event sink, when set, keeps receiving events either way.
func (db *DB) SetFlightRecorder(on bool) {
	db.flight.off.Store(!on)
}

// ActiveQueries snapshots the in-flight executions (queries and open
// streams), oldest first.
func (db *DB) ActiveQueries() []obs.FlightSnapshot {
	return db.flight.flights.Snapshot()
}

// KillQuery terminates the identified in-flight execution: the run
// observes ErrKilled — wrapping ErrCanceled, annotated with reason —
// at its next cooperative checkpoint, and any registered context
// cancel fires immediately. ErrNoSuchQuery when the id matches no
// in-flight execution (it may have just finished).
func (db *DB) KillQuery(id uint64, reason string) error {
	err := ErrKilled
	if reason != "" {
		err = fmt.Errorf("%w (%s)", ErrKilled, reason)
	}
	if !db.flight.flights.Kill(id, err) {
		return fmt.Errorf("%w: id %d", ErrNoSuchQuery, id)
	}
	db.metrics.queriesKilledSent.Inc()
	return nil
}

// registerFlight registers one run in the active-query registry (nil
// when the recorder is off). The caller deregisters via deferred
// Deregister.
func (db *DB) registerFlight(key, executor string, phase obs.FlightPhase) *obs.Flight {
	if db.flight.off.Load() {
		return nil
	}
	fl := db.flight.flights.Register(key, executor, 0, phase)
	db.metrics.flightsActive.Inc()
	return fl
}

// deregisterFlight drops a finished run's registration.
func (db *DB) deregisterFlight(fl *obs.Flight) {
	if fl == nil {
		return
	}
	db.flight.flights.Deregister(fl)
	db.metrics.flightsActive.Dec()
}

// SetEventSink installs the wide-event destination: one JSON-able
// obs.Event per completed query/stream is handed to it. nil removes the
// sink. Events also land in the in-memory ring for /debug/events whenever
// the flight recorder is on, sink or not.
func (db *DB) SetEventSink(s obs.EventSink) {
	if s == nil {
		db.flight.sink.Store(nil)
		return
	}
	db.flight.sink.Store(&eventSinkBox{sink: s})
}

// RecentEvents returns the retained wide events (the last 256), most
// recent first.
func (db *DB) RecentEvents() []obs.Event {
	events, _ := db.flight.ring.Snapshot()
	return events
}

// routeEvent delivers one event to the ring and the sink. With the
// recorder off and no sink installed this is two atomic loads.
func (db *DB) routeEvent(ev *obs.Event) {
	if !db.flight.off.Load() {
		db.flight.ring.Add(*ev)
	}
	box := db.flight.sink.Load()
	if box == nil {
		return
	}
	db.metrics.eventsEmitted.Inc()
	box.sink.Emit(*ev)
}

// emitStreamEvent emits the wide event of one closed stream, built from
// the stream itself: its lifetime, its pushes (a push is a row) and its
// matcher totals, with the stream flag set.
func (db *DB) emitStreamEvent(st *Stream, runErr error) {
	if db.flight.off.Load() && db.flight.sink.Load() == nil {
		return // no ring and no sink would see it
	}
	stats := st.Stats()
	pushes := int64(st.pushSeq)
	ev := obs.Event{
		Time:        time.Now(),
		QueryID:     st.flight.ID(),
		SQL:         st.q.plan.key,
		Stream:      true,
		DurationNs:  time.Since(st.opened).Nanoseconds(),
		Pushes:      pushes,
		RowsScanned: pushes,
		PredEvals:   stats.PredEvals,
		Rollbacks:   stats.Rollbacks,
		Matches:     int64(stats.Matches),
	}
	if runErr != nil {
		ev.Error = runErr.Error()
		ev.ErrorKind = classifyError(runErr).String()
	}
	db.routeEvent(&ev)
}

// WriteActiveQueries renders the in-flight table as text with per-query
// progress bars, for /debug/queries?format=text and the
// REPL \queries.
func (db *DB) WriteActiveQueries(w io.Writer) error {
	snaps := db.ActiveQueries()
	var b strings.Builder
	fmt.Fprintf(&b, "%d in-flight quer%s\n", len(snaps), plural(len(snaps), "y", "ies"))
	for _, s := range snaps {
		fmt.Fprintf(&b, "\n[%d] %s  %s", s.ID, s.Phase, truncateSQL(s.SQL, 120))
		if s.Killed {
			b.WriteString("  (kill pending)")
		}
		b.WriteByte('\n')
		fmt.Fprintf(&b, "     elapsed %s  executor=%s\n", time.Duration(s.ElapsedNs).Round(time.Millisecond), s.Executor)
		if s.Pushes > 0 || s.Phase == "streaming" {
			fmt.Fprintf(&b, "     pushes=%d matches=%d pred-evals=%d\n", s.Pushes, s.Matches, s.PredEvals)
			continue
		}
		fmt.Fprintf(&b, "     clusters %s %d/%d  rows=%d matches=%d pred-evals=%d\n",
			progressBar(s.ClustersDone, s.ClustersTotal, 20), s.ClustersDone, s.ClustersTotal,
			s.RowsScanned, s.Matches, s.PredEvals)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// progressBar renders done/total as a fixed-width bar; unknown totals
// render as spinnerless dashes.
func progressBar(done, total int64, width int) string {
	if total <= 0 {
		return "[" + strings.Repeat("-", width) + "]"
	}
	if done > total {
		done = total
	}
	filled := int(done * int64(width) / total)
	return "[" + strings.Repeat("#", filled) + strings.Repeat(".", width-filled) + "]"
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}
