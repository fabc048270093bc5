package sqlts

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"sqlts/internal/pattern"
	"sqlts/internal/storage"
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
	return q.db.parts.get(q.plan.partKey)
}

// scratchPartition builds q's partition from the empty clustering, the
// way a NoCache run does.
func scratchPartition(t *testing.T, q *Query) *partitionEntry {
	t.Helper()
	e, how, err := q.db.partition(q.db.Table(q.plan.compiled.Table), q.plan, true)
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
	if !reflect.DeepEqual(got.Groups, want.Groups) {
		t.Fatalf("%s: clusters differ from a build:\n%v\n%v", label, got.Groups, want.Groups)
	}
	gm, wm := got.memoFor(a), want.memoFor(a)
	if len(gm) != len(wm) {
		t.Fatalf("%s: %d mask sets, want %d", label, len(gm), len(wm))
	}
	for ci := range wm {
		if gm[ci].Rows() != wm[ci].Rows() {
			t.Fatalf("%s: cluster %d masks cover %d rows, want %d", label, ci, gm[ci].Rows(), wm[ci].Rows())
		}
		for j := 0; j < a.kernel.Len(); j++ {
			if !reflect.DeepEqual(gm[ci].Elem(j), wm[ci].Elem(j)) {
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
	// current at the snapshot.
	current bool
	masks   []*pattern.MaskSet
}

func snapshotGeneration(e *partitionEntry, a *patternArtifact) generation {
	g := generation{e: e}
	for _, rows := range e.Groups {
		g.groups = append(g.groups, append([]storage.Row(nil), rows...))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if m := e.memo[a]; m != nil && len(m.stale) == 0 && m.built == len(e.Groups) {
		g.current = true
		g.masks = append(g.masks, m.masks...)
	}
	return g
}

// unchanged asserts the refresh that superseded g wrote nothing a reader
// of g could see.
func (g generation) unchanged(t *testing.T, label string, a *patternArtifact) {
	t.Helper()
	if len(g.e.Groups) != len(g.groups) {
		t.Fatalf("%s: previous generation has %d clusters, had %d", label, len(g.e.Groups), len(g.groups))
	}
	for ci := range g.groups {
		if !reflect.DeepEqual(g.e.Groups[ci], g.groups[ci]) {
			t.Fatalf("%s: cluster %d of the previous generation changed", label, ci)
		}
	}
	if !g.current {
		return
	}
	g.e.mu.Lock()
	defer g.e.mu.Unlock()
	m := g.e.memo[a]
	if m == nil {
		return // the plan left the plan cache and took its memo along
	}
	if !reflect.DeepEqual(m.masks, g.masks) {
		t.Fatalf("%s: the previous generation's memo was rewritten", label)
	}
}

// carriedOver asserts that next shares, pointer for pointer, every cluster
// of g the refresh did not touch — rows and masks — and returns how many
// clusters it re-sorted or added.
func (g generation) carriedOver(t *testing.T, label string, next *partitionEntry, a *patternArtifact) (dirty int) {
	t.Helper()
	next.mu.Lock()
	defer next.mu.Unlock()
	m := next.memo[a]
	for ci := range next.Groups {
		if ci >= len(g.groups) || &next.Groups[ci][0] != &g.e.Groups[ci][0] {
			dirty++
			continue
		}
		if !g.current {
			continue
		}
		if g.masks != nil && m.masks[ci] != g.masks[ci] {
			t.Fatalf("%s: untouched cluster %d got new masks", label, ci)
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

// TestPartitionRefreshDifferential interleaves random inserts and queries
// and, after every query, holds the cached — refreshed, many times over —
// partition against a from-scratch NoCache run: rows, matches, Stats,
// and ClusterStats of the result; clusters and masks of the entry. The generation the refresh superseded must read as it did
// before, and everything the refresh did not touch must be the very same
// memory.
func TestPartitionRefreshDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		db := quoteDB(t)
		w := &refreshWriter{r: rand.New(rand.NewSource(seed)), db: db, names: []string{"INTC", "IBM", "ACME"}}
		refreshes := 0
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
				prev.unchanged(t, label, k)
				dirty := prev.carriedOver(t, label, cur, k)
				if int(got.partition.dirty) != dirty || int(got.partition.clusters) != len(cur.Groups) {
					t.Fatalf("%s: outcome %q, but %d of %d clusters are new memory",
						label, got.PartitionOutcome(), dirty, len(cur.Groups))
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
	}
}

// TestPartitionRefreshSameBase refreshes one stale generation from two
// goroutines at once — what two queries arriving after one insert do —
// and both successors, memo and all, must equal a from-scratch build.
func TestPartitionRefreshSameBase(t *testing.T) {
	db := quoteDB(t)
	w := &refreshWriter{r: rand.New(rand.NewSource(4)), db: db, names: []string{"INTC", "IBM", "ACME"}}
	for i := 0; i < 20; i++ {
		w.insert(t)
	}
	q, err := db.Prepare(servingSQL)
	if err != nil {
		t.Fatal(err)
	}
	k := q.plan.art
	for round := 0; round < 40; round++ {
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
				c, resorted, err := base.Refresh()
				if err != nil {
					errs[g] = err
					return
				}
				e := &partitionEntry{key: base.key, Clustering: c}
				db.cacheMu.Lock()
				e.adopt(base, resorted)
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
			samePartition(t, fmt.Sprintf("round %d refresher %d", round, g), e, want, k)
		}
		prev.unchanged(t, fmt.Sprintf("round %d", round), k)
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
// opaque element. Every run agrees with a NoCache run on rows, Stats,
// ClusterStats and Matches.
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
		m := e.memo[q.plan.art]
		if m == nil {
			return len(e.Groups), 0, 0, nil
		}
		if len(m.masks) > 0 {
			first = m.masks[0]
		}
		return len(e.Groups), projectionsIn(reflect.ValueOf(e.memo)), len(m.masks), first
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
