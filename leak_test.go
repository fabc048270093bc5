package sqlts

import (
	"errors"
	"testing"

	"sqlts/internal/fault"
	"sqlts/internal/storage"
	"sqlts/internal/testutil"
)

// TestParallelErrorNoLeak: a worker failing (injected error and panic)
// must not strand the other workers — every goroutine exits even though
// chunk claims stop early.
func TestParallelErrorNoLeak(t *testing.T) {
	defer fault.Reset()
	defer testutil.LeakCheck(t)()
	db := quoteDB(t)
	for s := 0; s < 16; s++ {
		insertSeries(t, db, string(rune('A'+s)), 10000, 60, 70, 55, 56, 58, 61, 50, 66)
	}
	q, err := db.Prepare(`
		SELECT X.name FROM quote
		  CLUSTER BY name SEQUENCE BY date
		  AS (X, Y)
		WHERE Y.price > 1.1 * X.price`)
	if err != nil {
		t.Fatal(err)
	}
	for _, act := range []fault.Action{
		{Err: errors.New("worker failure")},
		{Panic: "worker panic"},
	} {
		if err := fault.Arm("sqlts.execute.cluster", act); err != nil {
			t.Fatal(err)
		}
		if _, err := q.RunWith(RunOptions{MaxWorkers: 4}); err == nil {
			t.Fatal("injected worker failure did not surface")
		}
		fault.Reset()
		// And the query still works after.
		if _, err := q.RunWith(RunOptions{MaxWorkers: 4}); err != nil {
			t.Fatalf("run after injected failure: %v", err)
		}
		assertNoSearchers(t)
	}
}

// TestStreamLifecycleNoLeak: open/push/close leaves no goroutines and
// drains the stream gauges.
func TestStreamLifecycleNoLeak(t *testing.T) {
	defer testutil.LeakCheck(t)()
	db := quoteDB(t)
	for i := 0; i < 4; i++ {
		st, err := db.Stream(`
			SELECT X.name FROM quote
			  CLUSTER BY name SEQUENCE BY date
			  AS (X, Y)
			WHERE Y.price > 1.1 * X.price`,
			StreamOptions{},
			func(storage.Row) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		for d := 0; d < 10; d++ {
			if err := st.Push(storage.NewString("A"), storage.NewDateDays(int64(d)), storage.NewFloat(float64(10+d%4))); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if g := db.metrics.streamsOpen.Value(); g != 0 {
		t.Fatalf("streams_open = %d; want 0", g)
	}
	if g := db.metrics.streamClusters.Value(); g != 0 {
		t.Fatalf("stream_active_clusters = %d; want 0", g)
	}
}
