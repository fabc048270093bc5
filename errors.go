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
// done channel plus the run's resource budgets. A nil *runControl is
// inert (check returns nil), so unconstrained runs pay a single nil
// comparison per checkpoint.
type runControl struct {
	ctx        context.Context
	done       <-chan struct{} // ctx.Done(), captured once
	maxMatches int64           // 0 = unlimited
	maxScanned int64           // 0 = unlimited
	matches    atomic.Int64

	// flight is the run's active-query registration (nil with the
	// recorder off). Checkpoints consult its kill flag, which is what
	// makes every registered run killable — even one launched without a
	// context.
	flight *obs.Flight
}

// newRunControl builds the control for one run, or nil when the run has
// no context, no budgets, and no flight registration (the common
// uncancellable case).
func newRunControl(ctx context.Context, opts RunOptions, fl *obs.Flight) *runControl {
	if ctx == nil && opts.MaxMatches == 0 && opts.MaxRowsScanned == 0 && fl == nil {
		return nil
	}
	rc := &runControl{
		ctx:        ctx,
		maxMatches: opts.MaxMatches,
		maxScanned: opts.MaxRowsScanned,
		flight:     fl,
	}
	if ctx != nil {
		rc.done = ctx.Done()
	}
	return rc
}

// flightRef returns the run's flight registration (nil-safe).
func (rc *runControl) flightRef() *obs.Flight {
	if rc == nil {
		return nil
	}
	return rc.flight
}

// interrupt returns the checkpoint function executors install via
// SetInterrupt. With a flight registered it also ticks the live
// predicate-evaluation counter — the engine consults the checkpoint
// once per engine.CheckpointInterval evals, so the flight's live count
// trails the exact figure by at most one interval per worker. Batch
// runs only: a stream's matchers each count their own evals, so Stream
// installs the bare check and ticks the exact delta around every push.
func (rc *runControl) interrupt() func() error {
	if rc == nil {
		return nil
	}
	f := rc.flight
	if f == nil {
		return rc.check
	}
	return func() error {
		f.TickPredEvals(engine.CheckpointInterval)
		return rc.check()
	}
}

// check is the cooperative cancellation checkpoint: a typed error means
// the run must stop. It is installed into executors via SetInterrupt and
// called directly at coarse-grained points (per cluster, per push). The
// split keeps check itself inlinable — the select below would block
// inlining, so unconstrained runs (nil rc, or a context that can never
// be canceled) pay only an inlined comparison at every call site.
func (rc *runControl) check() error {
	if rc == nil || (rc.done == nil && rc.maxMatches == 0 && rc.flight == nil) {
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
