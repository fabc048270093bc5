package sqlts

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sqlts/internal/fault"
)

// faultAdmission delays or fails the admission gate — the lever for
// queue-wait and rejection tests.
var faultAdmission = fault.New("sqlts.admission")

// admission is the DB-level concurrent-query gate: a counting semaphore
// (a buffered channel) sized by SetMaxConcurrentQueries, with an
// optional bound on how long an execution may queue for a slot.
type admission struct {
	mu      sync.Mutex
	sem     chan struct{} // nil = unlimited
	max     int
	timeout time.Duration // 0 = wait as long as the context allows

	// on mirrors sem != nil so the per-run fast path can skip the gate
	// (and its trace span) without taking the mutex: an unlimited DB
	// pays one atomic load per query.
	on atomic.Bool
}

// SetMaxConcurrentQueries bounds how many query executions may run
// simultaneously (EXPLAIN ANALYZE's diagnostic re-runs excluded); n <= 0
// removes the bound. Executions beyond the bound queue for a slot; see
// SetAdmissionTimeout for bounding the wait. Changing the bound affects
// new executions only — in-flight queries finish under the semaphore
// they were admitted to.
func (db *DB) SetMaxConcurrentQueries(n int) {
	db.admit.mu.Lock()
	defer db.admit.mu.Unlock()
	if n <= 0 {
		db.admit.sem, db.admit.max = nil, 0
		db.admit.on.Store(false)
		return
	}
	db.admit.sem = make(chan struct{}, n)
	db.admit.max = n
	db.admit.on.Store(true)
}

// SetAdmissionTimeout bounds how long an execution may wait for an
// admission slot before failing with ErrAdmissionRejected (0 = wait
// until the run's context expires).
func (db *DB) SetAdmissionTimeout(d time.Duration) {
	db.admit.mu.Lock()
	defer db.admit.mu.Unlock()
	db.admit.timeout = d
}

// MaxConcurrentQueries returns the current admission bound (0 =
// unlimited).
func (db *DB) MaxConcurrentQueries() int {
	db.admit.mu.Lock()
	defer db.admit.mu.Unlock()
	return db.admit.max
}

// admit acquires an admission slot, blocking while the semaphore is
// full. It returns the release function, the time spent waiting, and
// the typed error on rejection/cancellation. The release captures the
// originating channel, so resizing the gate never corrupts slot
// accounting for in-flight queries.
func (db *DB) admitQuery(ctx context.Context) (release func(), wait time.Duration, err error) {
	if err := faultAdmission.Fire(); err != nil {
		return nil, 0, fmt.Errorf("%w: %w", ErrAdmissionRejected, err)
	}
	db.admit.mu.Lock()
	sem, timeout := db.admit.sem, db.admit.timeout
	db.admit.mu.Unlock()
	if sem == nil {
		return func() {}, 0, nil
	}
	release = func() { <-sem }

	// Fast path: a free slot means no waiting and no gauge traffic.
	select {
	case sem <- struct{}{}:
		return release, 0, nil
	default:
	}

	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	// The wait is timed from before the timer is armed, so a run rejected
	// at the timeout reports a wait of at least the timeout.
	start := time.Now()
	var expired <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		expired = timer.C
	}
	db.metrics.admissionWaiting.Add(1)
	defer db.metrics.admissionWaiting.Add(-1)
	select {
	case sem <- struct{}{}:
		wait = time.Since(start)
		db.metrics.admissionWait.Observe(wait.Seconds())
		return release, wait, nil
	case <-expired:
		// The rejection counter is incremented by failRun (which sees
		// every ErrAdmissionRejected, including fault-injected ones) —
		// not here, so a rejection is counted exactly once.
		return nil, time.Since(start), fmt.Errorf("%w: waited %v for a slot (max %d concurrent)", ErrAdmissionRejected, timeout, cap(sem))
	case <-done:
		return nil, time.Since(start), ctxError(ctx.Err())
	}
}
