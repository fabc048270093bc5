package obs

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// TestLatencyHistQuantiles checks the quantile estimator against a
// known distribution: the statement histogram's log buckets with ratio
// 1.5 and linear interpolation must land within one bucket (≤50%
// relative error, usually far less) of the exact quantile.
func TestLatencyHistQuantiles(t *testing.T) {
	h := &Histogram{bounds: latBounds}
	// Uniform 1µs..10ms in 1µs steps: exact quantiles are trivial.
	const n = 10000
	for i := 1; i <= n; i++ {
		h.Observe(int64(i) * 1000)
	}
	if h.Count() != n {
		t.Fatalf("Count = %d, want %d", h.Count(), n)
	}
	wantSum := int64(n) * (n + 1) / 2 * 1000
	if h.Sum() != wantSum {
		t.Fatalf("Sum = %d, want %d", h.Sum(), wantSum)
	}
	if h.Max() != n*1000 {
		t.Fatalf("Max = %d, want %d", h.Max(), n*1000)
	}
	for _, tc := range []struct {
		q     float64
		exact int64 // ns
	}{
		{0.50, 5000 * 1000},
		{0.95, 9500 * 1000},
		{0.99, 9900 * 1000},
		{1.00, 10000 * 1000},
	} {
		got := h.Quantile(tc.q)
		relErr := math.Abs(float64(got-tc.exact)) / float64(tc.exact)
		if relErr > 0.5 {
			t.Errorf("Quantile(%.2f) = %d, exact %d (rel err %.2f > 0.5)",
				tc.q, got, tc.exact, relErr)
		}
	}
	// Quantiles must be monotone in q.
	prev := int64(0)
	for q := 0.05; q <= 1.0; q += 0.05 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile(%.2f) = %d < previous %d (not monotone)", q, v, prev)
		}
		prev = v
	}
}

func TestLatencyHistEdgeCases(t *testing.T) {
	h := &Histogram{bounds: latBounds}
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Max() != 0 {
		t.Error("empty histogram must report zeros")
	}
	h.Observe(-5) // clamped to 0
	h.Observe(0)
	if h.Count() != 2 || h.Sum() != 0 {
		t.Errorf("Count/Sum after zero observations: %d/%d", h.Count(), h.Sum())
	}
	// A single huge observation lands in the overflow bucket; the
	// quantile must come back as the tracked max, not a bucket bound.
	h2 := &Histogram{bounds: latBounds}
	const huge = int64(500e9) // past the ~190s top bound
	h2.Observe(huge)
	if got := h2.Quantile(0.99); got != huge {
		t.Errorf("overflow-bucket quantile = %d, want %d", got, huge)
	}
	// Nil receivers are no-ops everywhere.
	var hn *Histogram
	hn.Observe(1)
	if hn.Count() != 0 || hn.Quantile(0.5) != 0 || hn.Sum() != 0 || hn.Max() != 0 {
		t.Error("nil histogram must report zeros")
	}
}

func TestStmtStoreBasics(t *testing.T) {
	st := NewStmtStore(4)
	a := st.Get("select a")
	if a == nil || a.Key() != "select a" {
		t.Fatalf("Get returned %v", a)
	}
	if st.Get("select a") != a {
		t.Error("second Get must return the same entry")
	}
	if st.Lookup("select a") != a {
		t.Error("Lookup must find the created entry")
	}
	if st.Lookup("select missing") != nil {
		t.Error("Lookup must not create entries")
	}
	a.RecordQuery(QueryObs{DurNs: 1000, Rows: 2, PredEvals: 7, PlanCached: true, Kernel: true})
	a.RecordQuery(QueryObs{DurNs: 3000, Rows: 1, PredEvals: 3, Naive: true})
	a.RecordError(ErrOther)
	snap := a.Snapshot()
	if snap.Calls != 2 || snap.Errors != 1 || snap.Rows != 3 || snap.PredEvals != 10 {
		t.Errorf("snapshot counters wrong: %+v", snap)
	}
	if snap.PlanCacheHits != 1 || snap.KernelRuns != 1 || snap.InterpreterRuns != 1 {
		t.Errorf("snapshot cache/kernel counters wrong: %+v", snap)
	}
	if snap.NaiveCalls != 1 || snap.NaivePredEvals != 3 {
		t.Errorf("snapshot naive counters wrong: %+v", snap)
	}
	// naive avg 3, opt avg 7 → savings negative (opt did more work here);
	// the formula itself is what we check.
	wantSavings := 100 * (1 - 7.0/3.0)
	if math.Abs(snap.OPSSavingsPct-wantSavings) > 1e-9 {
		t.Errorf("OPSSavingsPct = %v, want %v", snap.OPSSavingsPct, wantSavings)
	}
	if snap.TotalNs != 4000 || snap.MeanNs != 2000 {
		t.Errorf("latency totals wrong: total=%d mean=%d", snap.TotalNs, snap.MeanNs)
	}
}

func TestStmtStoreCapacityAndOverflow(t *testing.T) {
	st := NewStmtStore(2)
	st.Get("s1").RecordQuery(QueryObs{PredEvals: 1})
	st.Get("s2").RecordQuery(QueryObs{PredEvals: 2})
	if st.Len() != 2 {
		t.Fatalf("Len = %d, want 2", st.Len())
	}
	// Past capacity: distinct new statements share the overflow entry.
	o3 := st.Get("s3")
	o4 := st.Get("s4")
	if o3 == nil || o3 != o4 || o3.Key() != OverflowKey {
		t.Fatalf("overflow entries: %v vs %v", o3, o4)
	}
	o3.RecordQuery(QueryObs{PredEvals: 10})
	o4.RecordQuery(QueryObs{PredEvals: 20})
	if st.Len() != 2 {
		t.Errorf("Len after overflow = %d, want 2", st.Len())
	}
	// Existing entries keep resolving to themselves at capacity.
	if st.Get("s1").Key() != "s1" {
		t.Error("existing entry lost at capacity")
	}
	snaps := st.Snapshots()
	if len(snaps) != 3 {
		t.Fatalf("Snapshots returned %d entries, want 3 (2 + overflow)", len(snaps))
	}
	var total int64
	for _, s := range snaps {
		total += s.PredEvals
	}
	if total != 33 {
		t.Errorf("pred-eval total across snapshots = %d, want 33 (totals stay exact)", total)
	}

	// SetCapacity(0) disables tracking and clears the store.
	st.SetCapacity(0)
	if st.Get("s1") != nil {
		t.Error("Get must return nil with tracking disabled")
	}
	if st.Len() != 0 || len(st.Snapshots()) != 0 {
		t.Error("disabled store must be empty")
	}
	// Nil entries are safe to use.
	var nilEntry *StmtStats
	nilEntry.RecordQuery(QueryObs{})
	nilEntry.RecordError(ErrOther)
	nilEntry.RecordPush()
	nilEntry.RecordPushCost(1, 1)
	nilEntry.RecordPushMatch()
	nilEntry.StreamOpened()
	nilEntry.StreamClosed()
	if s := nilEntry.Snapshot(); s.Calls != 0 {
		t.Error("nil Snapshot must be zero")
	}

	// Re-enabling starts fresh.
	st.SetCapacity(8)
	if e := st.Get("s9"); e == nil || e.Key() != "s9" {
		t.Error("store must track again after re-enable")
	}
}

// TestStmtStoreConcurrent hammers the store from many goroutines with a
// mix of statements while another goroutine resets it, to prove the
// serving path is race-clean (run under -race). Half the goroutines
// resolve their keys through StmtRefs they share, as a plan's runs do.
func TestStmtStoreConcurrent(t *testing.T) {
	st := NewStmtStore(8)
	const goroutines = 8
	const iters = 2000
	var refs [12]StmtRef
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// 12 distinct keys against capacity 8 exercises overflow.
				k := (g + i) % 12
				key := fmt.Sprintf("stmt-%d", k)
				var e *StmtStats
				if g%2 == 1 {
					e = refs[k].Entry(st, key)
				} else {
					e = st.Get(key)
				}
				e.RecordQuery(QueryObs{
					DurNs:     int64(i%1000) * 1000,
					Rows:      1,
					PredEvals: int64(i % 7),
					Kernel:    i%2 == 0,
					Naive:     i%3 == 0,
				})
				e.RecordPush()
				e.RecordPushCost(int64(i%50)*100, int64(i%3))
				e.StreamOpened()
				e.StreamClosed()
				if i%100 == 0 {
					_ = st.Snapshots()
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			st.Reset()
			_ = st.Snapshots()
		}
	}()
	wg.Wait()
	// After the dust settles the store must still be usable and bounded.
	if st.Len() > st.Capacity()+stmtShards {
		t.Errorf("Len %d far past capacity %d", st.Len(), st.Capacity())
	}
	st.Reset() // drop the residue so "after" gets a real (non-overflow) entry
	e := st.Get("after")
	e.RecordQuery(QueryObs{Rows: 1})
	if st.Lookup("after").Snapshot().Rows != 1 {
		t.Error("store unusable after concurrent reset")
	}
}

// TestStmtRefFollowsTheStore: a StmtRef resolves its key once and keeps
// the entry, and after a Reset, a capacity of 0 and a larger capacity
// again it hands out the entry the store lists — never a dropped one —
// and an overflow entry only while the store is at capacity.
func TestStmtRefFollowsTheStore(t *testing.T) {
	st := NewStmtStore(8)
	var ref StmtRef
	e := ref.Entry(st, "k")
	if e == nil || e != st.Lookup("k") || ref.Entry(st, "k") != e {
		t.Fatal("StmtRef does not keep the key's entry")
	}
	st.Reset()
	if e2 := ref.Entry(st, "k"); e2 == e || e2 != st.Lookup("k") {
		t.Error("after Reset the ref still hands out the dropped entry")
	}
	st.SetCapacity(0)
	if ref.Entry(st, "k") != nil {
		t.Error("tracking disabled, yet the ref hands out an entry")
	}
	st.SetCapacity(1)
	if e3 := ref.Entry(st, "k"); e3 == nil || e3 != st.Lookup("k") {
		t.Error("after re-enabling the ref does not resolve the live entry")
	}
	st.Reset()
	st.Get("other") // takes the only slot
	if o := ref.Entry(st, "k"); o == nil || o.Key() != OverflowKey {
		t.Errorf("at capacity the ref hands out %q, want the overflow entry", o.Key())
	}
	st.SetCapacity(2)
	if e4 := ref.Entry(st, "k"); e4 == nil || e4.Key() != "k" || e4 != st.Lookup("k") {
		t.Error("after raising the capacity the ref keeps the overflow entry")
	}
}
