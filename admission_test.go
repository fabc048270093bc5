package sqlts

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"sqlts/internal/fault"
	"sqlts/internal/testutil"
)

// admissionDB builds a small DB plus a prepared query whose execution
// can be parked on the sqlts.execute.cluster fault point, so tests
// control exactly when the admission slot frees up.
func admissionDB(t *testing.T) (*DB, *Query) {
	t.Helper()
	db := quoteDB(t)
	insertSeries(t, db, "AAA", 10000, 60, 70, 55, 56, 58, 61)
	q, err := db.Prepare(`
		SELECT X.name FROM quote
		  CLUSTER BY name SEQUENCE BY date
		  AS (X, Y)
		WHERE Y.price > 1.1 * X.price`)
	if err != nil {
		t.Fatal(err)
	}
	return db, q
}

// parkFirstExecution arms sqlts.execute.cluster so the first execution
// to reach it blocks until the returned release func is called.
func parkFirstExecution(t *testing.T) (entered <-chan struct{}, release func()) {
	t.Helper()
	in := make(chan struct{})
	gate := make(chan struct{})
	if err := fault.Arm("sqlts.execute.cluster", fault.Action{
		Times: 1,
		Fn: func() error {
			close(in)
			<-gate
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	return in, func() { once.Do(func() { close(gate) }) }
}

// TestAdmissionTimeout: with a one-slot gate held by a parked query, a
// second query waits out the admission timeout and fails with the typed
// rejection error; once the slot frees, queries are admitted again.
func TestAdmissionTimeout(t *testing.T) {
	defer fault.Reset()
	defer testutil.LeakCheck(t)()
	db, q := admissionDB(t)
	db.SetMaxConcurrentQueries(1)
	defer db.SetMaxConcurrentQueries(0)
	db.SetAdmissionTimeout(20 * time.Millisecond)
	defer db.SetAdmissionTimeout(0)

	entered, release := parkFirstExecution(t)
	defer release()
	done := make(chan error, 1)
	go func() {
		_, err := q.Run()
		done <- err
	}()
	<-entered

	res, err := q.Run()
	if res != nil || !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("res=%v err=%v; want nil, ErrAdmissionRejected", res, err)
	}
	release()
	if err := <-done; err != nil {
		t.Fatalf("parked query: %v", err)
	}
	if _, err := q.Run(); err != nil {
		t.Fatalf("after slot release: %v", err)
	}
	if g := db.metrics.admissionWaiting.Value(); g != 0 {
		t.Fatalf("admission_waiting gauge = %d after all runs done; want 0", g)
	}
	if c := db.metrics.admissionRejected.Value(); c != 1 {
		t.Fatalf("admission_rejected_total = %d; want exactly 1", c)
	}
	// The rejection is accounted per statement too.
	var rejected int64
	for _, s := range db.StatementStats() {
		rejected += s.AdmissionRejected
	}
	if rejected != 1 {
		t.Fatalf("statement admission_rejected sum = %d; want 1", rejected)
	}
}

// TestAdmissionWaitThenAdmit: without a timeout, a queued query waits
// for the slot and then succeeds, with its queue wait recorded in the
// statement stats and the wait histogram.
func TestAdmissionWaitThenAdmit(t *testing.T) {
	defer fault.Reset()
	defer testutil.LeakCheck(t)()
	db, q := admissionDB(t)
	db.SetMaxConcurrentQueries(1)
	defer db.SetMaxConcurrentQueries(0)

	entered, release := parkFirstExecution(t)
	defer release()
	first := make(chan error, 1)
	go func() {
		_, err := q.Run()
		first <- err
	}()
	<-entered

	second := make(chan error, 1)
	go func() {
		_, err := q.Run()
		second <- err
	}()
	// Give the second run time to reach the wait path, then free the slot.
	deadline := time.Now().Add(time.Second)
	for db.metrics.admissionWaiting.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second query never queued for admission")
		}
		time.Sleep(time.Millisecond)
	}
	release()
	if err := <-first; err != nil {
		t.Fatalf("first query: %v", err)
	}
	if err := <-second; err != nil {
		t.Fatalf("queued query: %v", err)
	}
	var waitNs int64
	for _, s := range db.StatementStats() {
		waitNs += s.AdmissionWaitNs
	}
	if waitNs <= 0 {
		t.Fatalf("statement admission_wait_ns sum = %d; want > 0", waitNs)
	}
}

// TestAdmissionCancelWhileWaiting: a context canceled while queued
// surfaces the typed cancellation error, not a rejection.
func TestAdmissionCancelWhileWaiting(t *testing.T) {
	defer fault.Reset()
	defer testutil.LeakCheck(t)()
	db, q := admissionDB(t)
	db.SetMaxConcurrentQueries(1)
	defer db.SetMaxConcurrentQueries(0)

	entered, release := parkFirstExecution(t)
	defer release()
	first := make(chan error, 1)
	go func() {
		_, err := q.Run()
		first <- err
	}()
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	second := make(chan error, 1)
	go func() {
		_, err := q.RunWith(RunOptions{Context: ctx})
		second <- err
	}()
	deadline := time.Now().Add(time.Second)
	for db.metrics.admissionWaiting.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never queued for admission")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-second; !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled waiter: %v; want ErrCanceled", err)
	}
	release()
	if err := <-first; err != nil {
		t.Fatalf("first query: %v", err)
	}
}

// TestAdmissionWaitInExplainAnalyze: the analysed run's admission wait is
// a row of the EXPLAIN ANALYZE phase table, before its execute row.
func TestAdmissionWaitInExplainAnalyze(t *testing.T) {
	db, q := admissionDB(t)
	db.SetMaxConcurrentQueries(2)
	text, err := q.ExplainAnalyze(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	adm, exec := strings.Index(text, "\n  admission "), strings.Index(text, "\n  execute ")
	if adm < 0 || exec < adm {
		t.Fatalf("EXPLAIN ANALYZE lacks the admission phase:\n%s", text)
	}
}

// TestAdmissionUnlimitedByDefault: without a bound, admitQuery is free
// and many concurrent queries all run.
func TestAdmissionUnlimitedByDefault(t *testing.T) {
	defer testutil.LeakCheck(t)()
	db, q := admissionDB(t)
	if n := db.MaxConcurrentQueries(); n != 0 {
		t.Fatalf("default MaxConcurrentQueries = %d; want 0 (unlimited)", n)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = q.Run()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
}
