package sqlts

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"sqlts/internal/engine"
	"sqlts/internal/pattern"
	"sqlts/internal/storage"
	"sqlts/internal/testutil"
	"sqlts/internal/workload"
)

// The statements of the refresh differential: two plans with different
// kernels over one partition of quote, and one over the unclustered table.
var refreshSQL = []string{
	servingSQL,
	`SELECT X.name, FIRST(Y).date FROM quote CLUSTER BY name SEQUENCE BY date AS (X, *Y, Z)
	 WHERE Y.price < Y.previous.price AND Z.price > 1.1*Z.previous.price`,
	`SELECT X.price FROM quote SEQUENCE BY date AS (X, Y, Z)
	 WHERE Y.price > 1.15*X.price AND Z.price < 0.80*Y.price`,
}

// cachedPartition returns the partition entry the cache holds for q's
// clustering, current or stale.
func cachedPartition(q *Query) *partitionEntry {
	q.db.cacheMu.Lock()
	defer q.db.cacheMu.Unlock()
	e, _ := q.db.parts.get(q.plan.partKey)
	return e
}

// scratchPartition builds q's partition from the empty clustering, the
// way a NoCache run does.
func scratchPartition(t *testing.T, q *Query) *partitionEntry {
	t.Helper()
	e, how, err := q.db.partition(q.plan, true)
	if err != nil {
		t.Fatal(err)
	}
	if how.cached || how.refreshed {
		t.Fatalf("bypass partition reports %+v", how)
	}
	return e
}

// samePartition asserts that got — a cached, possibly many times
// refreshed entry — equals want, built from scratch over the same table
// state: clusters and their order, and for pattern a every cluster's masks.
func samePartition(t *testing.T, label string, got, want *partitionEntry, a *patternArtifact) {
	t.Helper()
	if got.Rows != want.Rows || got.Version != want.Version {
		t.Fatalf("%s: %d rows at version %d, want %d at %d", label, got.Rows, got.Version, want.Rows, want.Version)
	}
	if g, w := got.Groups.Slice(), want.Groups.Slice(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: clusters differ from a build:\n%v\n%v", label, g, w)
	}
	gm, wm := got.memoFor(a), want.memoFor(a)
	if gm.Len() != wm.Len() {
		t.Fatalf("%s: %d mask sets, want %d", label, gm.Len(), wm.Len())
	}
	for ci := 0; ci < wm.Len(); ci++ {
		g, w := gm.At(ci), wm.At(ci)
		if g.Rows() != w.Rows() {
			t.Fatalf("%s: cluster %d masks cover %d rows, want %d", label, ci, g.Rows(), w.Rows())
		}
		for j := 0; j < a.kernel.Len(); j++ {
			if !reflect.DeepEqual(g.Elem(j), w.Elem(j)) {
				t.Fatalf("%s: cluster %d element %d mask differs from a build", label, ci, j)
			}
		}
	}
}

// generation is what a reader holding a partition entry can see of it.
type generation struct {
	e      *partitionEntry
	groups [][]storage.Row
	// masks are the entry's state for one pattern, taken only if it was
	// current at the snapshot, and its blocks.
	current    bool
	masks      []*pattern.MaskSet
	maskBlocks engine.MaskBlocks
}

func snapshotGeneration(e *partitionEntry, a *patternArtifact) generation {
	g := generation{e: e}
	for _, rows := range e.Groups.Slice() {
		g.groups = append(g.groups, append([]storage.Row(nil), rows...))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if m := heldMemo(e, a); m != nil && m.groups.Same(e.Groups) {
		g.current = true
		g.masks, g.maskBlocks = m.masks.Slice(), m.masks
	}
	return g
}

// unchanged asserts the refresh that superseded g wrote nothing a reader
// of g could see.
func (g generation) unchanged(t *testing.T, label string, a *patternArtifact) {
	t.Helper()
	if g.e.Groups.Len() != len(g.groups) {
		t.Fatalf("%s: previous generation has %d clusters, had %d", label, g.e.Groups.Len(), len(g.groups))
	}
	for ci := range g.groups {
		if !reflect.DeepEqual(g.e.Groups.At(ci), g.groups[ci]) {
			t.Fatalf("%s: cluster %d of the previous generation changed", label, ci)
		}
	}
	if !g.current {
		return
	}
	g.e.mu.Lock()
	defer g.e.mu.Unlock()
	m := heldMemo(g.e, a)
	if m == nil {
		return // the plan left the plan cache and took its memo along
	}
	if !reflect.DeepEqual(m.masks.Slice(), g.masks) {
		t.Fatalf("%s: the previous generation's memo was rewritten", label)
	}
}

// carriedOver asserts that next shares, pointer for pointer, every cluster
// of g the refresh did not touch — rows and masks — and every block of
// clusters and of masks that holds only such clusters, that it shares no
// block holding a touched or new cluster, and returns how many clusters it
// re-sorted or added.
func (g generation) carriedOver(t *testing.T, label string, next *partitionEntry, a *patternArtifact) (dirty int) {
	t.Helper()
	next.mu.Lock()
	defer next.mu.Unlock()
	m := heldMemo(next, a)
	n := next.Groups.Len()
	touched := make([]bool, (n+storage.BlockLen-1)/storage.BlockLen)
	for ci := 0; ci < n; ci++ {
		if ci >= len(g.groups) || &next.Groups.At(ci)[0] != &g.e.Groups.At(ci)[0] {
			dirty++
			touched[ci/storage.BlockLen] = true
			continue
		}
		if g.current && m.masks.At(ci) != g.masks[ci] {
			t.Fatalf("%s: untouched cluster %d got new masks", label, ci)
		}
	}
	for k, dirty := range touched {
		ci := k * storage.BlockLen
		if ci >= len(g.groups) {
			break // a block of new clusters only
		}
		if shared := next.Groups.Block(ci) == g.e.Groups.Block(ci); shared == dirty {
			t.Fatalf("%s: block %d of clusters is shared = %v, holds a touched cluster = %v", label, k, shared, dirty)
		}
		if !g.current {
			continue
		}
		if shared := m.masks.Block(ci) == g.maskBlocks.Block(ci); shared == dirty {
			t.Fatalf("%s: block %d of masks is shared = %v, holds a touched cluster = %v", label, k, shared, dirty)
		}
	}
	return dirty
}

// refreshWriter issues random inserts against quote: rows for existing and
// for brand-new clusters, with dates from a narrow range so sequence keys
// arrive out of order and repeat, as SQL statements and as direct batches.
type refreshWriter struct {
	r     *rand.Rand
	db    *DB
	names []string
}

func (w *refreshWriter) insert(t *testing.T) {
	t.Helper()
	if w.r.Intn(3) == 0 {
		w.names = append(w.names, fmt.Sprintf("N%d", len(w.names)))
	}
	n := 1 + w.r.Intn(6)
	rows := make([]storage.Row, n)
	tuples := make([]string, n)
	for i := range rows {
		name := w.names[w.r.Intn(len(w.names))]
		day := int64(10000 + w.r.Intn(40))
		price := float64(50 + w.r.Intn(100))
		rows[i] = storage.Row{storage.NewString(name), storage.NewDateDays(day), storage.NewFloat(price)}
		tuples[i] = fmt.Sprintf("('%s', '%s', %g)", name, storage.NewDateDays(day), price)
	}
	var err error
	if w.r.Intn(2) == 0 {
		err = w.db.Exec("INSERT INTO quote VALUES " + strings.Join(tuples, ", "))
	} else {
		err = w.db.Table("quote").InsertBatch(rows)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// newRefreshWriter returns a writer over db's quote table seeded with
// seed. With three clusters it starts from an empty table over three
// names; with more, the table starts with one row in each of that many
// clusters, so that the partition's last block of clusters is full (64),
// nearly full (63) or holds one cluster (65, 129), and new keys land in a
// partly filled block shared with the base.
func newRefreshWriter(t *testing.T, db *DB, seed int64, clusters int) *refreshWriter {
	t.Helper()
	w := &refreshWriter{r: rand.New(rand.NewSource(seed)), db: db, names: []string{"INTC", "IBM", "ACME"}}
	if clusters == len(w.names) {
		return w
	}
	w.names = w.names[:0]
	var rows []storage.Row
	for i := 0; i < clusters; i++ {
		w.names = append(w.names, fmt.Sprintf("S%03d", i))
		rows = append(rows, storage.Row{storage.NewString(w.names[i]), storage.NewDateDays(10000), storage.NewFloat(100)})
	}
	if err := db.Table("quote").InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	return w
}

// seamCases are the refresh tests' starting points: a seed and a cluster
// count, the block seams' counts among them.
var seamCases = []struct {
	seed     int64
	clusters int
}{{1, 3}, {2, 3}, {3, 3}, {5, 63}, {6, 64}, {7, 65}, {8, 129}}

// TestPartitionRefreshDifferential interleaves random inserts and queries
// and, after every query, holds the cached — refreshed, many times over —
// partition against a from-scratch NoCache run: rows, matches and Stats
// of the result; clusters and masks of the entry. The generation the
// refresh superseded must read as it did before, and everything the
// refresh did not touch — clusters, masks, and blocks of either — must be
// the very same memory. From the seam counts on, new keys must have landed
// in a partly filled last block shared with the base.
func TestPartitionRefreshDifferential(t *testing.T) {
	for _, sc := range seamCases {
		seed := sc.seed
		db := quoteDB(t)
		w := newRefreshWriter(t, db, seed, sc.clusters)
		refreshes, intoShared := 0, 0
		for step := 0; step < 50; step++ {
			// Several inserts may land between two queries of a statement.
			for n := w.r.Intn(3); n >= 0; n-- {
				w.insert(t)
			}
			for _, si := range w.r.Perm(len(refreshSQL))[:1+w.r.Intn(len(refreshSQL))] {
				label := fmt.Sprintf("seed %d step %d statement %d", seed, step, si)
				q, err := db.Prepare(refreshSQL[si])
				if err != nil {
					t.Fatal(err)
				}
				k := q.plan.art
				var prev generation
				if e := cachedPartition(q); e != nil {
					prev = snapshotGeneration(e, k)
				}
				got, err := q.Run()
				if err != nil {
					t.Fatal(err)
				}
				want, err := q.RunWith(RunOptions{NoCache: true})
				if err != nil {
					t.Fatal(err)
				}
				equalResults(t, label, got, want)
				cur := cachedPartition(q)
				samePartition(t, label, cur, scratchPartition(t, q), k)

				stale := prev.e != nil && prev.e.Version != cur.Version
				if got.partition.refreshed != stale || got.PartitionCached() != (prev.e != nil && !stale) {
					t.Fatalf("%s: outcome %+v over a stale=%v entry", label, got.partition, stale)
				}
				if !stale {
					continue
				}
				refreshes++
				if n := len(prev.groups); n%storage.BlockLen != 0 && cur.Groups.Len() > n {
					intoShared++
				}
				prev.unchanged(t, label, k)
				dirty := prev.carriedOver(t, label, cur, k)
				if int(got.partition.dirty) != dirty || int(got.partition.clusters) != cur.Groups.Len() {
					t.Fatalf("%s: outcome %q, but %d of %d clusters are new memory",
						label, got.PartitionOutcome(), dirty, cur.Groups.Len())
				}
			}
		}
		if n := db.metrics.partitionCacheRefreshes.Value(); n != int64(refreshes) || n < 40 {
			t.Errorf("seed %d: %d refreshes counted, %d observed over 50 steps", seed, n, refreshes)
		}
		cs := db.CacheStats()
		if cs.PartitionInvalidations != int64(refreshes) {
			t.Errorf("seed %d: %d invalidations for %d refreshes", seed, cs.PartitionInvalidations, refreshes)
		}
		if sc.clusters > 3 && intoShared == 0 {
			t.Errorf("seed %d: no refresh over %d clusters added one to a partly filled block", seed, sc.clusters)
		}
	}
}

// TestPartitionRefreshSameBase refreshes one stale generation from two
// goroutines at once — what two queries arriving after one insert do —
// and both successors, memo and all, must equal a from-scratch build. Each
// shares the base's untouched blocks, neither shares a touched block with
// the base or with the other, and the base reads as before. From the seam
// counts on, both refreshes must at times have appended new keys to the
// base's partly filled last block (meaningful under -race).
func TestPartitionRefreshSameBase(t *testing.T) {
	for _, sc := range seamCases[2:] {
		db := quoteDB(t)
		w := newRefreshWriter(t, db, sc.seed+1, sc.clusters)
		for i := 0; i < 20; i++ {
			w.insert(t)
		}
		q, err := db.Prepare(servingSQL)
		if err != nil {
			t.Fatal(err)
		}
		k := q.plan.art
		intoShared := 0
		for round := 0; round < 40; round++ {
			label := fmt.Sprintf("%d clusters round %d", sc.clusters, round)
			if _, err := q.Run(); err != nil {
				t.Fatal(err)
			}
			base := cachedPartition(q)
			prev := snapshotGeneration(base, k)
			w.insert(t)

			var wg sync.WaitGroup
			var next [2]*partitionEntry
			var errs [2]error
			for g := range next {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					c, _, err := base.Refresh()
					if err != nil {
						errs[g] = err
						return
					}
					e := &partitionEntry{Clustering: c}
					db.cacheMu.Lock()
					e.adopt(base)
					db.cacheMu.Unlock()
					e.memoFor(k)
					next[g] = e
				}(g)
			}
			wg.Wait()
			want := scratchPartition(t, q)
			for g, e := range next {
				if errs[g] != nil {
					t.Fatal(errs[g])
				}
				samePartition(t, fmt.Sprintf("%s refresher %d", label, g), e, want, k)
				prev.carriedOver(t, fmt.Sprintf("%s refresher %d", label, g), e, k)
			}
			a, b := next[0], next[1]
			for ci := 0; ci < a.Groups.Len(); ci += storage.BlockLen {
				if blk := a.Groups.Block(ci); (ci >= base.Groups.Len() || blk != base.Groups.Block(ci)) && blk == b.Groups.Block(ci) {
					t.Fatalf("%s: the two successors share a touched block at cluster %d", label, ci)
				}
			}
			if n := base.Groups.Len(); n%storage.BlockLen != 0 && a.Groups.Len() > n {
				intoShared++
			}
			prev.unchanged(t, label, k)
		}
		if sc.clusters > 3 && intoShared == 0 {
			t.Errorf("%d clusters: no round added a cluster to the base's partly filled block", sc.clusters)
		}
	}
}

// TestPartitionRefreshSkippedRuns carries each statement's memo through
// 1, 2 and 5 refreshes its plan does not run over — the partition is
// refreshed and the memo adopted after each insert, as a run of another
// statement over the same partition does — with and without CLUSTER BY,
// from 3, 63, 64, 65 and 129 clusters. The run that follows must equal a
// NoCache run and its masks a build's, and every cluster whose rows no
// refresh changed must keep its mask set, pointer for pointer.
func TestPartitionRefreshSkippedRuns(t *testing.T) {
	for _, sc := range seamCases[2:] {
		for _, sql := range refreshSQL {
			for _, skips := range []int{1, 2, 5} {
				db := quoteDB(t)
				w := newRefreshWriter(t, db, sc.seed, sc.clusters)
				q, err := db.Prepare(sql)
				if err != nil {
					t.Fatal(err)
				}
				a, kept := q.plan.art, 0
				for round := 0; round < 8; round++ {
					label := fmt.Sprintf("%d clusters, %d skipped, round %d: %s", sc.clusters, skips, round, sql)
					w.insert(t)
					if _, err := q.Run(); err != nil {
						t.Fatal(err)
					}
					built := cachedPartition(q)
					groups, masks := built.Groups, built.memoFor(a)
					for i := 0; i < skips; i++ {
						w.insert(t)
						if _, _, err := db.partition(q.plan, false); err != nil {
							t.Fatal(err)
						}
					}
					got, err := q.Run()
					if err != nil {
						t.Fatal(err)
					}
					want, err := q.RunWith(RunOptions{NoCache: true})
					if err != nil {
						t.Fatal(err)
					}
					equalResults(t, label, got, want)
					cur := cachedPartition(q)
					if cur == built || !got.PartitionCached() {
						t.Fatalf("%s: the run after the refreshes found %v, refreshed %v", label, got.PartitionOutcome(), cur != built)
					}
					samePartition(t, label, cur, scratchPartition(t, q), a)
					now := cur.memoFor(a)
					for ci := 0; ci < groups.Len(); ci++ {
						if sameRows(cur.Groups.At(ci), groups.At(ci)) {
							kept++
							if now.At(ci) != masks.At(ci) {
								t.Fatalf("%s: cluster %d kept its rows but got new masks", label, ci)
							}
						}
					}
				}
				if len(q.plan.compiled.ClusterBy) > 0 && kept == 0 {
					t.Errorf("%d clusters, %d skipped: no cluster kept its rows across the refreshes", sc.clusters, skips)
				}
			}
		}
	}
}

// bookingSQL is the pure-loop statement of TestRunBlockBookingRefreshes:
// X is tested on its own, so a cluster without a candidate is closed.
const bookingSQL = `
	SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, *Y, Z)
	WHERE X.price > 120 AND Y.price < Y.previous.price AND Z.price > Z.previous.price`

// bookingSink records what a run hands its sink: a copy of every found
// cluster's matches, and the ticks.
type bookingSink struct {
	found                   []bookedCluster
	clusters, rows, matches int64
}

type bookedCluster struct {
	i  int
	ms []engine.Match
	st engine.Stats
}

func (s *bookingSink) Enter(int) error { return nil }

func (s *bookingSink) Found(i int, ms []engine.Match, st engine.Stats) error {
	kept := make([]engine.Match, len(ms))
	for k, m := range ms {
		kept[k] = engine.Match{Start: m.Start, End: m.End, Spans: append([]engine.Span(nil), m.Spans...)}
	}
	s.found = append(s.found, bookedCluster{i, kept, st})
	return nil
}

func (s *bookingSink) Tick(clusters, rows, matches int64) {
	s.clusters, s.rows, s.matches = s.clusters+clusters, s.rows+rows, s.matches+matches
}

// TestRunBlockBookingRefreshes carries a pure-loop statement's memo through
// 1, 2 and 5 refreshes between its runs, from eight blocks more than 63, 64,
// 65 and 129 clusters, a few of them 63, 64, 65 and 129 rows long. After each, every block of
// the memo is booked as a scratch booking of its masks under the pattern's
// scan books it, and a block no refresh rebuilt keeps its booking pointer
// for pointer; and FindRun over the memo's masks — as one run, in whole
// blocks, and cut off the block seams — equals FindRun over the same masks
// with no booking, which books into scratch, and FindAll cluster by
// cluster: matches, spans, Stats, ticks and the clusters booked in closed
// form, for the OPS executor on both skip policies (each ablation's runs
// over booked and unbooked blocks are TestRunBlockBooking's, in
// internal/engine).
func TestRunBlockBookingRefreshes(t *testing.T) {
	for _, sc := range seamCases[3:] {
		for _, refreshes := range []int{1, 2, 5} {
			db := quoteDB(t)
			w := newRefreshWriter(t, db, sc.seed, sc.clusters+8*storage.BlockLen)
			var long []storage.Row
			for k, n := range []int{63, 64, 65, 129} {
				for d := 1; d <= n; d++ {
					long = append(long, storage.Row{storage.NewString(w.names[7*k]), storage.NewDateDays(int64(10000 + d)), storage.NewFloat(float64(60 + (d*37+k)%90))})
				}
			}
			if err := db.Table("quote").InsertBatch(long); err != nil {
				t.Fatal(err)
			}
			q, err := db.Prepare(bookingSQL)
			if err != nil {
				t.Fatal(err)
			}
			if plan := q.Explain(); !strings.Contains(plan, "search loop: pure-mask") {
				t.Fatalf("the statement does not take the pure loop:\n%s", plan)
			}
			a, kept, closedAll := q.plan.art, 0, int64(0)
			for round := 0; round < 4; round++ {
				label := fmt.Sprintf("%d clusters, %d refreshes, round %d", sc.clusters, refreshes, round)
				if _, err := q.Run(); err != nil {
					t.Fatal(err)
				}
				before := cachedPartition(q).memoFor(a)
				for i := 0; i < refreshes; i++ {
					w.insert(t)
					if _, _, err := db.partition(q.plan, false); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := q.Run(); err != nil {
					t.Fatal(err)
				}
				e := cachedPartition(q)
				masks, n := e.memoFor(a), e.Groups.Len()
				for lo := 0; lo < n; lo += storage.BlockLen {
					if want := a.scan.Book(masks.Span(lo, n)); *masks.Sum(lo) != want {
						t.Fatalf("%s: block %d is booked %+v, its masks %+v", label, lo/storage.BlockLen, *masks.Sum(lo), want)
					}
					if lo < before.Len() && masks.Block(lo) == before.Block(lo) {
						kept++
						if masks.Sum(lo) != before.Sum(lo) {
							t.Fatalf("%s: block %d kept its masks but not its booking", label, lo/storage.BlockLen)
						}
					}
				}
				bare := engine.MaskBlocks{}.Edit(n)
				for ci := 0; ci < n; ci++ {
					bare.Set(ci, masks.At(ci))
				}
				plain := bare.Done()
				blockCuts := []int{0}
				for lo := storage.BlockLen; lo < n; lo += storage.BlockLen {
					blockCuts = append(blockCuts, lo)
				}
				for _, overlap := range []bool{false, true} {
					mk := func() engine.Executor { return a.newExecutor(executorKey{OPSExec, overlap}) }
					name := fmt.Sprintf("%s overlap=%v", label, overlap)
					ref := mk()
					want := &bookingSink{}
					var wantStats engine.Stats
					for ci := 0; ci < n; ci++ {
						ref.UseMasks(masks.At(ci))
						ms, st := ref.FindAll(e.Groups.At(ci))
						if len(ms) > 0 {
							if err := want.Found(ci, ms, st); err != nil {
								t.Fatal(err)
							}
						}
						want.Tick(1, int64(len(e.Groups.At(ci))), int64(st.Matches))
						wantStats.Add(st)
					}
					var closed [2]int64
					for pass, mb := range []engine.MaskBlocks{plain, masks} {
						for _, cuts := range [][]int{{0, n}, append(blockCuts, n), {0, n / 3, n/3 + 1, n}} {
							got, stats := &bookingSink{}, engine.Stats{}
							from := engine.ClosedClusters()
							ex := mk()
							for k := 1; k < len(cuts); k++ {
								r := engine.Run{Clusters: e.Groups, Masks: mb, Lo: cuts[k-1], Hi: cuts[k], Sink: got}
								if err := ex.FindRun(&r); err != nil {
									t.Fatal(err)
								}
								stats.Add(r.Stats)
							}
							if c := engine.ClosedClusters() - from; len(cuts) == 2 {
								closed[pass] = c
							} else if c != closed[pass] {
								t.Fatalf("%s booked=%v: runs cut at %v closed %d clusters, the whole run %d", name, pass == 1, cuts, c, closed[pass])
							}
							if stats != wantStats || got.clusters != want.clusters || got.rows != want.rows || got.matches != want.matches || len(got.found) != len(want.found) {
								t.Fatalf("%s booked=%v cut at %v: %+v, %d found, ticked %d/%d/%d; want %+v, %d, %d/%d/%d", name, pass == 1, cuts,
									stats, len(got.found), got.clusters, got.rows, got.matches, wantStats, len(want.found), want.clusters, want.rows, want.matches)
							}
							for k, f := range got.found {
								if w := want.found[k]; f.i != w.i || f.st != w.st || !reflect.DeepEqual(f.ms, w.ms) {
									t.Fatalf("%s booked=%v cut at %v: found cluster %d %+v %v, want cluster %d %+v %v", name, pass == 1, cuts, f.i, f.st, f.ms, w.i, w.st, w.ms)
								}
							}
						}
					}
					if closed[0] != closed[1] {
						t.Fatalf("%s: %d clusters closed over the memo's bookings, %d booking into scratch", name, closed[1], closed[0])
					}
					closedAll += closed[1]
				}
			}
			if kept == 0 || closedAll == 0 {
				t.Errorf("%d clusters, %d refreshes: %d blocks kept their booking, %d clusters closed", sc.clusters, refreshes, kept, closedAll)
			}
		}
	}
}

// TestPartitionRefreshFallsBackToBuild covers what a refresh cannot serve:
// a table replaced under the same name is built from scratch, and an
// appended row that does not sort under the sequence columns fails the
// query like a from-scratch run — and keeps failing it, the stale entry
// staying in place.
func TestPartitionRefreshFallsBackToBuild(t *testing.T) {
	db := quoteDB(t)
	insertSeries(t, db, "INTC", 10000, 60, 70, 55, 56)
	if _, err := db.Query(servingSQL); err != nil {
		t.Fatal(err)
	}
	nt := storage.NewTable("quote", db.Table("quote").Schema)
	db.RegisterTable(nt)
	nt.MustInsert(storage.NewString("IBM"), storage.NewDateDays(10000), storage.NewFloat(80))
	res, err := db.Query(servingSQL)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PartitionOutcome(); got != "built" {
		t.Errorf("partition over a replaced table: %s", got)
	}

	nt.MustInsert(storage.NewString("IBM"), storage.Null, storage.NewFloat(81))
	for i := 0; i < 2; i++ {
		if _, err := db.Query(servingSQL); err == nil {
			t.Fatal("query sorted a NULL sequence key among dates")
		}
	}
	q, err := db.Prepare(servingSQL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.RunWith(RunOptions{NoCache: true}); err == nil {
		t.Error("the NoCache run accepted what the cached one refused")
	}
	if n := db.metrics.partitionCacheRefreshes.Value(); n != 0 {
		t.Errorf("%d refreshes counted", n)
	}
}

// TestInsertAtomic: a multi-row INSERT whose third row has a type error
// applies none of its rows and leaves the data version alone; a good one
// bumps the version once.
func TestInsertAtomic(t *testing.T) {
	db := quoteDB(t)
	db.MustExec(`INSERT INTO quote VALUES ('IBM', '2020-01-01', 80)`)
	tbl := db.Table("quote")
	rows, version := tbl.Len(), tbl.Version()
	for _, bad := range []string{
		`INSERT INTO quote VALUES ('IBM', '2020-01-02', 81), ('IBM', '2020-01-03', 82), ('IBM', '2020-01-04', 'dear')`,
		`INSERT INTO quote VALUES ('IBM', '2020-01-02', 81), ('IBM', '2020-01-03', 82), ('IBM', 'someday', 83)`,
		`INSERT INTO quote VALUES ('IBM', '2020-01-02', 81), ('IBM', '2020-01-03', 82), ('IBM', '2020-01-04')`,
	} {
		if err := db.Exec(bad); err == nil {
			t.Fatalf("accepted: %s", bad)
		}
		if tbl.Len() != rows || tbl.Version() != version {
			t.Fatalf("failed INSERT left %d rows at version %d, want %d at %d:\n%s",
				tbl.Len(), tbl.Version(), rows, version, bad)
		}
	}
	db.MustExec(`INSERT INTO quote VALUES ('IBM', '2020-01-02', 81), ('IBM', '2020-01-03', 82), ('IBM', '2020-01-04', 83)`)
	if tbl.Len() != rows+3 || tbl.Version() != version+1 {
		t.Errorf("3-row INSERT left %d rows at version %d, want %d at %d", tbl.Len(), tbl.Version(), rows+3, version+1)
	}
}

// TestKernelMemoBounded: the per-kernel memo of a partition entry follows
// the plan cache. More distinct statements than the plan cache holds leave
// at most a cache's worth of kernels memoized, and an insert and a refresh
// do not bring the evicted ones back.
func TestKernelMemoBounded(t *testing.T) {
	db := quoteDB(t)
	insertSeries(t, db, "INTC", 10000, 60, 70, 55, 56)
	sqlFor := func(i int) string {
		return fmt.Sprintf(`SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y) WHERE Y.price > %d*X.price`, i+2)
	}
	var q *Query
	for i := 0; i < 300; i++ {
		var err error
		if q, err = db.Prepare(sqlFor(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := q.Run(); err != nil {
			t.Fatal(err)
		}
	}
	memoized := func() int {
		e := cachedPartition(q)
		e.mu.Lock()
		defer e.mu.Unlock()
		return len(e.memo)
	}
	if n := memoized(); n != defaultPlanCacheCapacity {
		t.Errorf("%d kernels memoized after 300 statements, want the plan cache's %d", n, defaultPlanCacheCapacity)
	}
	insertSeries(t, db, "INTC", 10010, 57)
	res, err := db.Query(sqlFor(299))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PartitionOutcome(); got != "refreshed (1 of 1 clusters)" {
		t.Errorf("partition after the insert: %s", got)
	}
	if n := memoized(); n > defaultPlanCacheCapacity {
		t.Errorf("%d kernels memoized after the refresh, plan cache holds %d", n, defaultPlanCacheCapacity)
	}
}

// projectionsIn counts the storage.Projection values reachable from v
// through pointers, slices, maps and struct fields, each pointer followed
// once.
func projectionsIn(v reflect.Value) int {
	seen := map[uintptr]bool{}
	var walk func(v reflect.Value) int
	walk = func(v reflect.Value) int {
		n := 0
		switch v.Kind() {
		case reflect.Pointer:
			if !v.IsNil() && !seen[v.Pointer()] {
				seen[v.Pointer()] = true
				n = walk(v.Elem())
			}
		case reflect.Interface:
			n = walk(v.Elem())
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				n += walk(v.Index(i))
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				n += walk(it.Key()) + walk(it.Value())
			}
		case reflect.Struct:
			if v.Type() == reflect.TypeOf(storage.Projection{}) {
				return 1
			}
			for i := 0; i < v.NumField(); i++ {
				n += walk(v.Field(i))
			}
		}
		return n
	}
	return walk(v)
}

// TestPureKernelMemoHoldsNoProjections: no batch memo holds a projection,
// whatever its kernel and whatever the run — the masks answer every
// compiled element and the interpreter the rest. The partition memo of a
// kernel whose masks answer every element holds one mask set per cluster
// and nothing a projection is reachable from after a default, a
// fanned-out, an overlapping and a naive run, and after an insert
// refreshed the partition; an interpreter run leaves the memo as it was.
// So do the memos of a kernel with a cross condition and of one with an
// opaque element. Every run agrees with a NoCache run on rows, Stats and
// Matches.
func TestPureKernelMemoHoldsNoProjections(t *testing.T) {
	db := New()
	db.RegisterTable(workload.ClusterWalks("quote", 5, 60, 12, 4))
	if err := db.DeclarePositive("quote", "price"); err != nil {
		t.Fatal(err)
	}
	// held is what the cached partition's memo of q's kernel holds, beside
	// the partition's cluster count.
	held := func(q *Query) (clusters, projs, masks int, first *pattern.MaskSet) {
		e := cachedPartition(q)
		e.mu.Lock()
		defer e.mu.Unlock()
		m := heldMemo(e, q.plan.art)
		if m == nil {
			return e.Groups.Len(), 0, 0, nil
		}
		if m.masks.Len() > 0 {
			first = m.masks.At(0)
		}
		return e.Groups.Len(), projectionsIn(reflect.ValueOf(e.memo)), m.masks.Len(), first
	}
	run := func(q *Query, label string, opts RunOptions) *Result {
		t.Helper()
		ref := opts
		ref.NoCache = true
		want, err := q.RunWith(ref)
		if err != nil {
			t.Fatalf("%s, NoCache: %v", label, err)
		}
		got, err := q.RunWith(opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		equalResults(t, label, got, want)
		return got
	}

	pure, err := db.Prepare(driverSQL)
	if err != nil {
		t.Fatal(err)
	}
	if k := pure.plan.kernel; !k.AllPure() || k.VecElems() != k.Len() {
		t.Fatal("the driver statement's kernel is not answered by its masks alone")
	}
	if res := run(pure, "first run", RunOptions{}); res.Stats.Matches == 0 {
		t.Fatal("no match: nothing to compare")
	}
	_, _, _, first := held(pure)
	for _, tc := range []struct {
		label string
		opts  RunOptions
	}{
		{"default run", RunOptions{}},
		{"four-worker run", RunOptions{MaxWorkers: 4}},
		{"overlapping run", RunOptions{Overlap: true}},
		{"naive run", RunOptions{Executor: NaiveExec}},
	} {
		run(pure, tc.label, tc.opts)
		if n, projs, masks, again := held(pure); n != 60 || projs != 0 || masks != n || again != first {
			t.Fatalf("after a %s the memo holds %d projections and %d mask sets over %d clusters (same sets: %v), want 0, 60 and the same",
				tc.label, projs, masks, n, again == first)
		}
	}

	// s03 is cluster 3: the refresh re-sorts it and carries cluster 0 over.
	row := storage.Row{storage.NewString("s03"), storage.NewDateDays(100), storage.NewFloat(101)}
	if err := db.Table("quote").InsertBatch([]storage.Row{row}); err != nil {
		t.Fatal(err)
	}
	if res := run(pure, "run after an insert", RunOptions{}); res.PartitionOutcome() != "refreshed (1 of 60 clusters)" {
		t.Fatalf("partition after the insert: %s", res.PartitionOutcome())
	}
	if n, projs, masks, again := held(pure); projs != 0 || masks != n || again != first {
		t.Fatalf("after a refresh the memo holds %d projections and %d mask sets over %d clusters (same first set: %v), want 0, %d and the same",
			projs, masks, n, again == first, n)
	}

	// Z is compared with X across a star: no single row decides that. And
	// X's condition squared is a product of columns, which no mask holds.
	for _, tc := range []struct{ label, sql string }{
		{"cross-condition", `
			SELECT X.name, Z.date FROM quote CLUSTER BY name SEQUENCE BY date AS (X, *Y, Z)
			WHERE Y.price < Y.previous.price AND Z.price > 1.01*X.price`},
		{"opaque-element", driverStatements[1]},
	} {
		q, err := db.Prepare(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		if k := q.plan.kernel; k.AllPure() || k.CompiledElems() == 0 {
			t.Fatalf("%s: the kernel is all-pure or compiles nothing", tc.label)
		}
		if res := run(q, tc.label+" run", RunOptions{}); res.Stats.Matches == 0 {
			t.Fatalf("the %s statement matched nothing", tc.label)
		}
		if n, projs, masks, _ := held(q); projs != 0 || masks != n {
			t.Fatalf("a %s kernel's memo holds %d projections and %d mask sets over %d clusters, want 0 and %d", tc.label, projs, masks, n, n)
		}
	}
}

// TestRefreshCostsItsDelta pins what a refresh allocates to the rows it
// takes in: eight rows appended to eight clusters, each in a block of its
// own, are refreshed over 5,000 and over 50,000 two-row clusters — the
// clustering's Refresh, then the next memoFor of the plan's pattern —
// and the bytes the two allocate may differ by at most the block indexes
// of the larger partition (its clusters' and its masks'). A refresh that
// copied a list of clusters or of mask sets whole would allocate 45,000
// entries more over the larger one.
func TestRefreshCostsItsDelta(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not the program's own under the race detector")
	}
	cost := func(clusters int) uint64 {
		db := quoteDB(t)
		tbl := db.Table("quote")
		rows := make([]storage.Row, 0, 2*clusters)
		for day := int64(0); day < 2; day++ {
			for c := 0; c < clusters; c++ {
				rows = append(rows, storage.Row{storage.NewString(fmt.Sprintf("c%05d", c)), storage.NewDateDays(10000 + day), storage.NewFloat(float64(50 + c%7 + int(day)))})
			}
		}
		if err := tbl.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
		q, err := db.Prepare(servingSQL)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q.Run(); err != nil {
			t.Fatal(err)
		}
		e, a := cachedPartition(q), q.plan.art
		var least uint64
		for rep := 0; rep < 5; rep++ {
			delta := make([]storage.Row, 8)
			for k := range delta {
				c := k * 9 * storage.BlockLen
				delta[k] = storage.Row{storage.NewString(fmt.Sprintf("c%05d", c)), storage.NewDateDays(int64(10002 + rep)), storage.NewFloat(60)}
			}
			if err := tbl.InsertBatch(delta); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			c, changed, err := e.Refresh()
			if err != nil {
				t.Fatal(err)
			}
			next := &partitionEntry{Clustering: c}
			db.cacheMu.Lock()
			next.adopt(e)
			db.cacheMu.Unlock()
			next.memoFor(a)
			runtime.ReadMemStats(&after)
			if changed != len(delta) {
				t.Fatalf("%d clusters: the refresh re-sorted %d clusters, want %d", clusters, changed, len(delta))
			}
			if b := after.TotalAlloc - before.TotalAlloc; rep == 0 || b < least {
				least = b
			}
			e = next
		}
		return least
	}
	small, large := cost(5_000), cost(50_000)
	index := uint64(2 * 8 * ((50_000 + storage.BlockLen - 1) / storage.BlockLen))
	t.Logf("a refresh of 8 rows allocates %d B over 5,000 clusters and %d B over 50,000; the block indexes of the larger are %d B", small, large, index)
	if large > small+index {
		t.Errorf("a refresh of 8 rows allocates %d B over 50,000 clusters and %d B over 5,000: more than the %d B of the larger's block indexes apart", large, small, index)
	}
}

// heldMemo returns e's memo of a, nil when it holds none. Callers hold
// e.mu.
func heldMemo(e *partitionEntry, a *patternArtifact) *kernelMemo {
	if i := e.memoOf(a); i >= 0 {
		return e.memo[i]
	}
	return nil
}
