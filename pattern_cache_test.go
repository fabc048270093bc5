package sqlts

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"sqlts/internal/obs"
	"sqlts/internal/query"
	"sqlts/internal/storage"
)

// servingFrom is servingSQL from FROM on: every statement ending in it
// has servingSQL's pattern.
var servingFrom = servingSQL[strings.Index(servingSQL, "FROM"):]

// memoKeys returns the patterns the cached partition of q's clustering
// keeps memos for.
func memoKeys(q *Query) []*patternArtifact {
	e := cachedPartition(q)
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []*patternArtifact
	for a := range e.memo {
		out = append(out, a)
	}
	return out
}

// registered reports whether a is the artifact the pattern map holds
// under its key.
func registered(db *DB, a *patternArtifact) bool {
	db.cacheMu.Lock()
	defer db.cacheMu.Unlock()
	return db.patterns[a.key] == a
}

func patternCount(db *DB) int {
	db.cacheMu.Lock()
	defer db.cacheMu.Unlock()
	return len(db.patterns)
}

// TestPatternCacheSharesArtifact: statements that differ in an alias, the
// SELECT list or EXPLAIN share one compiled pattern — kernel, tables and
// the partition memo built from them — and compile only what is theirs:
// the kernel is compiled once, and the second statement's run finds its
// masks already built. A changed WHERE constant, a DeclarePositive and a
// RegisterTable each give a new pattern.
func TestPatternCacheSharesArtifact(t *testing.T) {
	db := quoteDB(t)
	insertSeries(t, db, "INTC", 10000, 60, 70, 55, 56, 58, 70, 52)
	insertSeries(t, db, "IBM", 10000, 81, 80.5, 84, 83, 95, 70, 71)

	first, err := db.Prepare(servingSQL)
	if err != nil {
		t.Fatal(err)
	}
	want, err := first.Run()
	if err != nil {
		t.Fatal(err)
	}
	art := first.plan.art
	masks := cachedPartition(first).memoFor(art)
	compiled := db.metrics.kernelCompiled.Value()
	if first.plan.patternCached || compiled != 3 {
		t.Fatalf("first statement: pattern cached %v, %d kernel elements compiled", first.plan.patternCached, compiled)
	}

	for _, sql := range []string{
		"SELECT X.name AS who " + servingFrom,
		"SELECT X.date, Y.price AS p, FIRST(X).price " + servingFrom,
		"EXPLAIN " + servingSQL,
		"EXPLAIN ANALYZE SELECT Z.price " + servingFrom,
		"select   x.name   AS   whom\n" + servingFrom + ";",
	} {
		q, err := db.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		if q.PlanCached() || !q.plan.patternCached || q.plan.art != art ||
			q.plan.kernel != art.kernel || q.plan.tables != art.tables || q.Pattern() != art.analysis.Pattern {
			t.Fatalf("%q: plan cached %v, pattern cached %v, shares the artifact %v",
				sql, q.PlanCached(), q.plan.patternCached, q.plan.art == art)
		}
		// The pattern's phases are listed as they were timed when it was
		// built, annotated.
		var phases []string
		for _, sp := range q.Trace().Spans() {
			phases = append(phases, sp.Name)
			if sp.Name == "matrices" || sp.Name == "shift/next" || sp.Name == "kernel" {
				if last := sp.Annots[len(sp.Annots)-1]; last != (obs.Annot{Key: "pattern", Value: "cached"}) {
					t.Errorf("%q: span %s not annotated pattern=cached: %v", sql, sp.Name, sp.Annots)
				}
			}
		}
		if got := strings.Join(phases, " "); got != "parse analyze matrices shift/next kernel" {
			t.Errorf("%q: trace lists %s", sql, got)
		}
		res, err := q.Run()
		if err != nil {
			t.Fatal(err)
		}
		switch q.plan.explain {
		case explainNone:
			if res.Stats != want.Stats || len(res.Rows) != len(want.Rows) {
				t.Errorf("%q: %v, %d rows; want %v, %d rows", sql, res.Stats, len(res.Rows), want.Stats, len(want.Rows))
			}
		case explainAnalyze:
			text := fmt.Sprint(res.Rows)
			if !strings.Contains(text, "plan: compiled (pattern cached)") {
				t.Errorf("EXPLAIN ANALYZE does not say the pattern was cached:\n%s", text)
			}
		}
		if keys := memoKeys(q); len(keys) != 1 || keys[0] != art {
			t.Errorf("%q: the partition holds %d memos", sql, len(keys))
		}
		if again := cachedPartition(q).memoFor(art); &again[0] != &masks[0] {
			t.Errorf("%q: the masks were rebuilt", sql)
		}
	}
	if n := db.metrics.kernelCompiled.Value(); n != compiled {
		t.Errorf("%d kernel elements compiled for six statements of one pattern, want %d", n, compiled)
	}
	if last := db.RecentEvents()[0]; !last.PatternCached || last.PlanCached {
		t.Errorf("the last run's event: plan cached %v, pattern cached %v", last.PlanCached, last.PatternCached)
	}
	if res, err := db.Query(servingSQL); err != nil || !res.PlanCached() {
		t.Fatalf("servingSQL again: %v", err)
	} else if db.RecentEvents()[0].PatternCached {
		t.Error("a plan-cache hit reports a pattern-cache hit")
	}

	// Streams over plans of one pattern share its stream tables.
	var tables []any
	for _, sql := range []string{servingSQL, "SELECT X.name AS streamed " + servingFrom} {
		st, err := db.Stream(sql, StreamOptions{}, func(storage.Row) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, st.q.plan.tables)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if tables[0] != tables[1] {
		t.Error("streams over two plans of one pattern computed its stream tables twice")
	}

	newArtifact := func(label, sql string) *patternArtifact {
		t.Helper()
		q, err := db.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		if q.plan.patternCached || q.plan.art == art || q.plan.kernel == art.kernel {
			t.Errorf("%s: shares the first statement's pattern", label)
		}
		if _, err := q.Run(); err != nil {
			t.Fatal(err)
		}
		return q.plan.art
	}
	newArtifact("changed WHERE constant", strings.Replace(servingSQL, "1.15", "1.25", 1))
	if err := db.DeclarePositive("quote", "price"); err != nil {
		t.Fatal(err)
	}
	art = newArtifact("after DeclarePositive", "SELECT X.name AS after_declare "+servingFrom)
	db.RegisterTable(db.Table("quote"))
	newArtifact("after RegisterTable", "SELECT X.name AS after_register "+servingFrom)
}

// TestPatternCacheEviction: a pattern lives as long as a cached plan
// holds it. Evicting one of two plans that share it keeps it and its memo;
// evicting the last drops both. A same-key replacement by a plan of the
// same pattern never lets go of it, a compile that found a pattern whose
// plans were evicted meanwhile brings it back when stored, and a plan
// cache of capacity 0 shares nothing.
func TestPatternCacheEviction(t *testing.T) {
	db := quoteDB(t)
	insertSeries(t, db, "INTC", 10000, 60, 70, 55, 56, 58, 70, 52)
	db.SetPlanCacheCapacity(2)
	prepareRun := func(sql string) *Query {
		t.Helper()
		q, err := db.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q.Run(); err != nil {
			t.Fatal(err)
		}
		return q
	}
	has := func(q *Query, a *patternArtifact) bool {
		for _, k := range memoKeys(q) {
			if k == a {
				return true
			}
		}
		return false
	}

	a1 := prepareRun("SELECT X.name AS a1 " + servingFrom)
	a2 := prepareRun("SELECT X.name AS a2 " + servingFrom)
	art := a1.plan.art
	if a2.plan.art != art || art.refs.Load() != 2 || !registered(db, art) {
		t.Fatalf("two alias variants: shared %v, refs %d", a2.plan.art == art, art.refs.Load())
	}
	prepareRun(strings.Replace(servingSQL, "1.15", "1.35", 1)) // evicts a1
	if art.refs.Load() != 1 || !registered(db, art) || !has(a1, art) {
		t.Fatalf("after evicting one of two sharing plans: refs %d, registered %v, memo kept %v",
			art.refs.Load(), registered(db, art), has(a1, art))
	}
	prepareRun(strings.Replace(servingSQL, "1.15", "1.45", 1)) // evicts a2
	if art.refs.Load() != 0 || registered(db, art) || has(a1, art) {
		t.Fatalf("after evicting the last: refs %d, registered %v, memo kept %v",
			art.refs.Load(), registered(db, art), has(a1, art))
	}
	// A run of an evicted plan builds its masks for itself alone.
	if _, err := a1.Run(); err != nil {
		t.Fatal(err)
	}
	if has(a1, art) {
		t.Error("a run of an evicted plan left a memo behind")
	}

	// Same-key replacement: c2's plan takes c1's entry. c2 was compiled
	// against c1's pattern and is not cached itself, so the pattern's only
	// holder is replaced by another.
	db.SetPlanCacheCapacity(4)
	c1 := prepareRun("SELECT X.name AS c1 " + servingFrom)
	c2 := prepareRun("SELECT X.name AS c2 " + servingFrom)
	db.cacheMu.Lock()
	db.plans.remove(db.plans.entries[c2.plan.key])
	db.cacheMu.Unlock()
	shared := c1.plan.art
	if c2.plan.art != shared || shared.refs.Load() != 1 {
		t.Fatalf("c2 shares c1's pattern: %v, refs %d", c2.plan.art == shared, shared.refs.Load())
	}
	db.storePlan(c1.plan.key, c2.plan)
	if shared.refs.Load() != 1 || !registered(db, shared) || !has(c1, shared) {
		t.Fatalf("after a same-key replacement: refs %d, registered %v, memo kept %v",
			shared.refs.Load(), registered(db, shared), has(c1, shared))
	}

	// A compile finds the pattern, every plan holding it is evicted, and
	// then the compiled plan is stored: the pattern is back.
	sql := "SELECT X.name AS raced " + servingFrom
	st, err := query.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := db.compilePlan(st.(*query.SelectStmt), sql, obs.NewTrace())
	if err != nil {
		t.Fatal(err)
	}
	if !p.patternCached || p.art != shared {
		t.Fatal("the compile did not find the cached pattern")
	}
	db.PurgeCaches()
	if registered(db, shared) || patternCount(db) != 0 || shared.refs.Load() != 0 {
		t.Fatalf("PurgeCaches left %d patterns (refs %d)", patternCount(db), shared.refs.Load())
	}
	db.storePlan(string(normalizeSQL(nil, sql)), p)
	if !registered(db, shared) || shared.refs.Load() != 1 {
		t.Fatalf("storing the raced plan: registered %v, refs %d", registered(db, shared), shared.refs.Load())
	}

	// Capacity 0 caches no plan, so no pattern is shared.
	db.SetPlanCacheCapacity(0)
	if n := patternCount(db); n != 0 {
		t.Fatalf("%d patterns left after SetPlanCacheCapacity(0)", n)
	}
	d1 := prepareRun("SELECT X.name AS d1 " + servingFrom)
	d2 := prepareRun("SELECT X.name AS d2 " + servingFrom)
	if d2.plan.patternCached || d1.plan.art == d2.plan.art || patternCount(db) != 0 || len(memoKeys(d1)) != 0 {
		t.Errorf("capacity 0: shared %v, %d patterns, %d memos", d2.plan.patternCached, patternCount(db), len(memoKeys(d1)))
	}
}

// TestPatternCacheStress races compiles of alias variants of two patterns
// through a plan cache of two entries — so patterns are evicted, found,
// re-registered and their memos dropped all the time — against an
// inserter that makes runs refresh the partition and adopt its memos.
// Every result equals a NoCache run of the same handle over the same
// table version, and at the end the pattern map and every partition memo
// hold only patterns of cached plans, each counted once per plan. Run
// under -race.
func TestPatternCacheStress(t *testing.T) {
	db := quoteDB(t)
	insertSeries(t, db, "INTC", 10000, 60, 70, 55, 56, 58, 70, 52)
	insertSeries(t, db, "IBM", 10000, 81, 80.5, 84, 83, 95, 70, 71)
	db.SetPlanCacheCapacity(2)
	froms := []string{
		servingFrom,
		`FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y) WHERE Y.price > X.price`,
	}
	const (
		goroutines = 8
		iters      = 40
	)
	type pair struct {
		label     string
		got, want *Result
	}
	var (
		wg    sync.WaitGroup
		gate  sync.RWMutex // an insert never lands between a run and its reference
		pairs = make([][]pair, goroutines)
		errs  = make(chan error, goroutines+1)
		stop  = make(chan struct{})
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		tbl := db.Table("quote")
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			gate.Lock()
			name := []string{"INTC", "IBM", fmt.Sprintf("N%d", i%5)}[i%3]
			err := tbl.InsertBatch([]storage.Row{{storage.NewString(name), storage.NewDateDays(int64(10010 + i)), storage.NewFloat(float64(50 + i%30))}})
			gate.Unlock()
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; i < iters; i++ {
				sql := fmt.Sprintf("SELECT X.name AS a%d, X.price %s", (g*7+i)%5, froms[(g+i)%2])
				gate.RLock()
				q, err := db.Prepare(sql)
				var got, want *Result
				if err == nil {
					got, err = q.Run()
				}
				if err == nil {
					want, err = q.RunWith(RunOptions{NoCache: true})
				}
				gate.RUnlock()
				if err != nil {
					errs <- err
					return
				}
				pairs[g] = append(pairs[g], pair{fmt.Sprintf("goroutine %d iter %d", g, i), got, want})
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, ps := range pairs {
		for _, p := range ps {
			equalResults(t, p.label, p.got, p.want)
		}
	}

	db.cacheMu.Lock()
	defer db.cacheMu.Unlock()
	holders := map[*patternArtifact]int32{}
	for el := db.plans.order.Front(); el != nil; el = el.Next() {
		if a := el.Value.(*planEntry).plan.art; a != nil {
			holders[a]++
		}
	}
	for a, n := range holders {
		if a.refs.Load() != n {
			t.Errorf("a pattern held by %d cached plans counts %d", n, a.refs.Load())
		}
	}
	for key, a := range db.patterns {
		if a.key != key || holders[a] == 0 {
			t.Errorf("the pattern map holds a pattern no cached plan holds")
		}
	}
	for el := db.parts.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*partitionEntry)
		e.mu.Lock()
		for a := range e.memo {
			if holders[a] == 0 {
				t.Errorf("a partition memo is kept for a pattern no cached plan holds")
			}
		}
		e.mu.Unlock()
	}
}
