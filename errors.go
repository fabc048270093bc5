package sqlts

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"sqlts/internal/constraint"
	"sqlts/internal/engine"
	"sqlts/internal/obs"
)

// Typed lifecycle errors. Canceled and deadline-exceeded runs wrap the
// corresponding context sentinel as well, so both
// errors.Is(err, sqlts.ErrCanceled) and
// errors.Is(err, context.Canceled) hold.
var (
	// ErrCanceled reports a run stopped by its context being canceled.
	ErrCanceled = errors.New("sqlts: query canceled")
	// ErrDeadlineExceeded reports a run stopped by its deadline (the
	// context's or RunOptions.Deadline).
	ErrDeadlineExceeded = errors.New("sqlts: query deadline exceeded")
	// ErrBudgetExceeded reports a run stopped by a resource budget
	// (RunOptions.MaxMatches or MaxRowsScanned).
	ErrBudgetExceeded = errors.New("sqlts: query budget exceeded")
	// ErrAdmissionRejected reports a run rejected by admission control:
	// the concurrent-query semaphore stayed full past the queue-wait
	// timeout.
	ErrAdmissionRejected = errors.New("sqlts: query rejected by admission control")
)

// ErrNonFiniteConstant reports a statement one of whose WHERE comparisons
// folds to a NaN or ±Inf constant (for example X.price < 1e308 * 10).
// Prepare and Query return it wrapped; no plan is built.
var ErrNonFiniteConstant error = constraint.ErrNonFinite

// ErrKilled reports a run terminated by an operator (the /debug/queries
// POST kill or the REPL \kill). It wraps ErrCanceled, so existing
// errors.Is(err, ErrCanceled) handling keeps working; errors.Is against
// ErrKilled distinguishes the operator kill.
var ErrKilled = fmt.Errorf("%w: killed by operator", ErrCanceled)

// PanicError is a predicate or executor panic contained at the query
// boundary: the process survives, the failing run returns this error.
type PanicError struct {
	// Statement is the statement key (normalized SQL) of the failing run.
	Statement string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("sqlts: query panicked: %v", e.Value)
}

// ctxError maps a context error onto the typed taxonomy, wrapping both
// the sqlts sentinel and the context sentinel.
func ctxError(err error) error {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w (%w)", ErrDeadlineExceeded, context.DeadlineExceeded)
	case errors.Is(err, context.Canceled):
		return fmt.Errorf("%w (%w)", ErrCanceled, context.Canceled)
	default:
		return err
	}
}

// classifyError maps a run error to its statement-stats class.
func classifyError(err error) obs.ErrClass {
	var pe *PanicError
	switch {
	case errors.As(err, &pe):
		return obs.ErrPanic
	case errors.Is(err, ErrDeadlineExceeded):
		return obs.ErrDeadline
	case errors.Is(err, ErrKilled):
		// Before ErrCanceled: a kill wraps the cancel sentinel, and the
		// split is the point.
		return obs.ErrKilled
	case errors.Is(err, ErrCanceled):
		return obs.ErrCanceled
	case errors.Is(err, ErrBudgetExceeded):
		return obs.ErrBudget
	case errors.Is(err, ErrAdmissionRejected):
		return obs.ErrRejected
	default:
		return obs.ErrOther
	}
}

// runControl carries one execution's cancellation state: the context's
// done channel, the run's resource budgets, and its flight. A nil
// *runControl is inert (check returns nil), so unconstrained runs pay a
// single nil comparison per checkpoint.
//
// A run registers its flight lazily: only a run that lives long enough to
// be seen or killed is entered in the active-query registry. One that
// ends before its first engine checkpoint, its first progress flush and
// any fan-out never touches the registry; its event still carries the id
// it drew when it started.
type runControl struct {
	ctx        context.Context
	done       <-chan struct{} // ctx.Done(), captured once
	maxMatches int64           // 0 = unlimited
	maxScanned int64           // 0 = unlimited
	matches    atomic.Int64
	// armed says check has something to look at: a context that can be
	// canceled, a match budget or a flight.
	armed bool

	// flight is the run's active-query registration once it has one.
	// Checkpoints consult its kill flag, which is what makes every
	// registered run killable — even one launched without a context. It is
	// written before any other goroutine of the run reads it (register).
	flight *obs.Flight

	// What a registration reads, set when the run starts with the recorder
	// on (db is nil otherwise, and the run never registers): the run's id,
	// statement and executor, and its start — the admission stamp once it
	// is admitted. pending is the progress ticked before the run registered,
	// which the flight is seeded with.
	db            *DB
	id            uint64
	key, executor string
	start         time.Time
	pending       obs.FlightProgress

	// checkpointFn is checkpoint as a func value, made once per
	// runControl: the interrupt every executor of the run installs.
	checkpointFn func() error
}

// newRunControl builds the control for a run outside the serving path (a
// stream, EXPLAIN ANALYZE's diagnostic pass), registered as fl if it is
// registered at all; nil when it has no context, no budgets and no
// flight.
func newRunControl(ctx context.Context, opts RunOptions, fl *obs.Flight) *runControl {
	if ctx == nil && opts.MaxMatches == 0 && opts.MaxRowsScanned == 0 && fl == nil {
		return nil
	}
	rc := newControl()
	rc.flight = fl
	rc.limit(ctx, opts)
	return rc
}

// newControl allocates an empty control with its checkpoint func.
func newControl() *runControl {
	rc := new(runControl)
	rc.checkpointFn = rc.checkpoint
	return rc
}

// limit sets the run's context and budgets.
func (rc *runControl) limit(ctx context.Context, opts RunOptions) {
	rc.ctx, rc.done = ctx, nil
	if ctx != nil {
		rc.done = ctx.Done()
	}
	rc.maxMatches, rc.maxScanned = opts.MaxMatches, opts.MaxRowsScanned
	rc.armed = rc.done != nil || rc.maxMatches > 0 || rc.flight != nil
}

// startRun takes the control of one run of plan p under executor, or nil
// when the run has no context, no budgets and the flight recorder is off.
// With the recorder on the run draws its id now and may register later
// (register). The control is the spare the plan's pattern keeps between
// runs, unless another run holds it or the plan has no pattern: then the
// run makes its own, and endRun keeps whichever comes back first, so a
// warm run — and a never-seen statement over a cached pattern — allocates
// neither a control nor its checkpoint func.
func (db *DB) startRun(ctx context.Context, p *Plan, opts RunOptions, executor string) *runControl {
	on := !db.flight.off.Load()
	if ctx == nil && opts.MaxMatches == 0 && opts.MaxRowsScanned == 0 && !on {
		return nil
	}
	var rc *runControl
	if p.art != nil {
		rc = p.art.rc.Swap(nil)
	}
	if rc == nil {
		rc = newControl()
	}
	rc.limit(ctx, opts)
	if on {
		rc.db, rc.id, rc.key, rc.executor = db, db.flight.flights.NextID(), p.key, executor
	}
	return rc
}

// endRun deregisters the run's flight, if it registered, and gives its
// control back to the pattern of plan p, as the pattern keeps its lanes.
// Nothing holds the control once the run is over: its lanes have exited,
// and a lane the pattern keeps installs the next run's checkpoint before
// it searches.
func (db *DB) endRun(p *Plan, rc *runControl) {
	if rc == nil {
		return
	}
	db.deregisterFlight(rc.flight)
	if p.art != nil {
		*rc = runControl{checkpointFn: rc.checkpointFn}
		p.art.rc.CompareAndSwap(nil, rc)
	}
}

// register enters the run in the active-query registry in phase, once,
// seeded with the progress it has ticked so far, and returns its flight:
// nil when the run does not register (the recorder was off when it
// started). Only the goroutine the run started on calls it, or its only
// lane's, and a fanned-out run registers before its lanes start, so the
// flight and pending need no synchronization.
func (rc *runControl) register(phase obs.FlightPhase) *obs.Flight {
	if rc == nil || rc.db == nil {
		return nil
	}
	if fl := rc.flight; fl != nil {
		return fl
	}
	fl := rc.db.flight.flights.Enroll(rc.id, rc.key, rc.executor, rc.start, phase, rc.pending)
	rc.db.metrics.flightsActive.Inc()
	rc.flight, rc.armed = fl, true
	return fl
}

// registerQueued registers a run that is about to wait for admission,
// started now.
func (rc *runControl) registerQueued() *obs.Flight {
	if rc == nil || rc.db == nil {
		return nil
	}
	rc.start = time.Now()
	return rc.register(obs.PhaseQueued)
}

// admitted records the run's admission at now: a flight it registers from
// here on starts then, and one it registered while queued moves on to
// running.
func (rc *runControl) admitted(now time.Time) {
	if rc == nil {
		return
	}
	rc.start = now
	rc.flight.SetPhase(obs.PhaseRunning)
}

// flightRef returns the run's flight, nil while it has none (nil-safe).
func (rc *runControl) flightRef() *obs.Flight {
	if rc == nil {
		return nil
	}
	return rc.flight
}

// queryID is the id the run's event carries: the one it drew at its start,
// which its flight carries if it registers (0 with the recorder off).
func (rc *runControl) queryID() uint64 {
	if rc == nil {
		return 0
	}
	return rc.id
}

// interrupt returns the checkpoint function executors install via
// SetInterrupt (nil for an inert run). Batch runs only: a stream's
// matchers each count their own evals, so Stream installs the bare check
// and ticks the exact delta around every push.
func (rc *runControl) interrupt() func() error {
	if rc == nil {
		return nil
	}
	return rc.checkpointFn
}

// checkpoint is the engine's interrupt, run once per
// engine.CheckpointInterval evals: it registers the run if it has not yet
// (its first checkpoint means it has searched for a while), ticks the live
// predicate-evaluation counter, so the flight's count trails the exact
// figure by at most one interval per worker, and takes the check.
func (rc *runControl) checkpoint() error {
	rc.register(obs.PhaseRunning).TickPredEvals(engine.CheckpointInterval)
	return rc.check()
}

// tick hands the progress of the clusters searched since the last tick to
// the run's flight. A run without one keeps it for the flight it may get,
// and registers once it has kept engine.TickRows rows: a run searching
// many clusters too small to reach an engine checkpoint is seen from its
// first progress flush.
func (rc *runControl) tick(clusters, rows, matches int64) {
	if rc == nil {
		return
	}
	fl := rc.flight
	if fl == nil {
		if rc.db == nil {
			return
		}
		p := &rc.pending
		p.ClustersDone += clusters
		p.RowsScanned += rows
		p.Matches += matches
		if p.RowsScanned >= engine.TickRows {
			rc.register(obs.PhaseRunning)
		}
		return
	}
	fl.TickClusters(clusters)
	fl.TickRows(rows)
	fl.TickMatches(matches)
}

// setClustersTotal publishes the run's cluster count once the partition
// is known.
func (rc *runControl) setClustersTotal(n int64) {
	if rc == nil {
		return
	}
	if fl := rc.flight; fl != nil {
		fl.SetClustersTotal(n)
	} else {
		rc.pending.ClustersTotal = n
	}
}

// check is the cooperative cancellation checkpoint: a typed error means
// the run must stop. It is installed into executors via SetInterrupt and
// called directly at coarse-grained points (per chunk, per cluster on the
// per-cluster run loop, per push). The
// split keeps check itself inlinable — the select below would block
// inlining, so unconstrained runs (nil rc, or a context that can never
// be canceled, no match budget and no flight yet) pay only an inlined
// comparison at every call site.
func (rc *runControl) check() error {
	if rc == nil || !rc.armed {
		return nil
	}
	return rc.checkSlow()
}

func (rc *runControl) checkSlow() error {
	// The kill flag outranks the context: an operator kill usually also
	// cancels the run's context (via Flight.SetCancel), and the typed
	// ErrKilled must win over the generic cancellation it triggers.
	if err := rc.flight.KillErr(); err != nil {
		return err
	}
	if rc.done != nil {
		select {
		case <-rc.done:
			return ctxError(rc.ctx.Err())
		default:
		}
	}
	if rc.maxMatches > 0 && rc.matches.Load() > rc.maxMatches {
		return fmt.Errorf("%w: more than %d matches", ErrBudgetExceeded, rc.maxMatches)
	}
	return nil
}

// addMatches accumulates the match count toward MaxMatches; the budget
// trips at the next checkpoint.
func (rc *runControl) addMatches(n int) {
	if rc == nil || rc.maxMatches == 0 {
		return
	}
	rc.matches.Add(int64(n))
}

// checkScanned enforces MaxRowsScanned up front: the row count of the
// run's input is known before the search starts, so an over-budget run
// fails fast instead of burning its budget first.
func (rc *runControl) checkScanned(rows int) error {
	if rc == nil || rc.maxScanned == 0 {
		return nil
	}
	if int64(rows) > rc.maxScanned {
		return fmt.Errorf("%w: %d input rows exceed MaxRowsScanned=%d", ErrBudgetExceeded, rows, rc.maxScanned)
	}
	return nil
}

// deadlineContext applies RunOptions.Deadline on top of the run context,
// returning the effective context and a cancel that must be deferred.
func deadlineContext(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}
