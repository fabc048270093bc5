package sqlts

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sqlts/internal/storage"
	"sqlts/internal/workload"
)

// equalResults asserts bit-identical results: columns, rows, matches,
// aggregate Stats and the per-cluster breakdown.
func equalResults(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Columns, want.Columns) {
		t.Fatalf("%s: columns %v != %v", label, got.Columns, want.Columns)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, want %d", label, len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		for c := range want.Rows[i] {
			if !got.Rows[i][c].Equal(want.Rows[i][c]) {
				t.Fatalf("%s: row %d col %d: %v != %v", label, i, c, got.Rows[i][c], want.Rows[i][c])
			}
		}
	}
	if !reflect.DeepEqual(got.Matches, want.Matches) {
		t.Fatalf("%s: matches differ:\n%v\n%v", label, got.Matches, want.Matches)
	}
	if got.Stats != want.Stats {
		t.Fatalf("%s: stats %v != %v", label, got.Stats, want.Stats)
	}
}

func TestNormalizeSQL(t *testing.T) {
	cases := []struct{ in, want string }{
		{"SELECT  X.a\n\tFROM q", "select x.a from q"},
		{"  SELECT X.a FROM q  ", "select x.a from q"},
		// Case folds outside quotes; quoted strings (including their
		// whitespace and case) pass through untouched.
		{"SELECT 'a  B' FROM q", "select 'a  B' from q"},
		{"SELECT\n'a\nb'", "select 'a\nb'"},
		{"select X.A from Q", "select x.a from q"},
	}
	for _, c := range cases {
		if got := string(normalizeSQL(nil, c.in)); got != c.want {
			t.Errorf("normalizeSQL(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// normalizeSQLOracle is the plan-cache key function as it was first
// written, one byte at a time through a strings.Builder: the reference
// FuzzNormalizeSQL holds normalizeSQL to.
func normalizeSQLOracle(sql string) string {
	var b strings.Builder
	b.Grow(len(sql))
	inQuote := false
	space := false
	for i := 0; i < len(sql); i++ {
		c := sql[i]
		if inQuote {
			b.WriteByte(c)
			if c == '\'' {
				inQuote = false
			}
			continue
		}
		switch c {
		case ' ', '\t', '\n', '\r', '\f', '\v':
			space = true
		case '\'':
			if space && b.Len() > 0 {
				b.WriteByte(' ')
			}
			space = false
			inQuote = true
			b.WriteByte(c)
		default:
			if space && b.Len() > 0 {
				b.WriteByte(' ')
			}
			space = false
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			b.WriteByte(c)
		}
	}
	return b.String()
}

// FuzzNormalizeSQL: normalizeSQL appends what the oracle returns behind
// whatever its buffer holds, and a key normalizes to itself — the property
// that lets the plan cache keep a statement's own text beside its key.
func FuzzNormalizeSQL(f *testing.F) {
	for _, s := range []string{
		servingSQL,
		"SELECT 'a  B' FROM q WHERE X.name = 'INTC'",
		"SELECT 'it''s', '' FROM q",
		"SELECT X.a FROM q WHERE X.name = 'unterminated \t CASE",
		"' leading quote",
		" \t\n\r\f\v",
		"a\tb\nc\rd\fe\vf g",
		"SELECT Ä.Ö, 'Ünï\u00a0CODE' FROM Ω \xff\xfe\x00 Z",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		want := normalizeSQLOracle(sql)
		got := normalizeSQL([]byte("key:"), sql)
		if string(got) != "key:"+want {
			t.Fatalf("normalizeSQL(%q) = %q, want %q", sql, got[min(len(got), 4):], want)
		}
		if again := string(normalizeSQL(nil, want)); again != want {
			t.Fatalf("normalizing the key %q again gives %q", want, again)
		}
	})
}

// checkPlanKeys asserts the plan cache's map holds every entry under its
// normalized key and its text, and nothing else, and returns the keys.
func checkPlanKeys(t *testing.T, db *DB) []string {
	t.Helper()
	db.cacheMu.Lock()
	defer db.cacheMu.Unlock()
	want := 0
	for el := db.plans.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*planEntry)
		text := e.plan.sql
		if db.plans.entries[e.key] != el || db.plans.entries[text] != el {
			t.Errorf("entry %q is not in the map under its key and its text %q", e.key, text)
		}
		if n := string(normalizeSQL(nil, text)); n != e.key {
			t.Errorf("entry %q holds the text %q, which normalizes to %q", e.key, text, n)
		}
		want += 2
		if text == e.key {
			want--
		}
	}
	keys := make([]string, 0, len(db.plans.entries))
	for k := range db.plans.entries {
		keys = append(keys, k)
	}
	if len(keys) != want {
		t.Errorf("the plan map holds %d keys for %d entries: %q", len(keys), db.plans.order.Len(), keys)
	}
	sort.Strings(keys)
	return keys
}

// TestPlanTextKeys: a plan-cache entry is found by the text its plan was
// compiled from and by its normalized key, which a variant's text is
// normalized to; both keys come and go with the entry.
func TestPlanTextKeys(t *testing.T) {
	db := quoteDB(t)
	insertSeries(t, db, "INTC", 10000, 60, 70, 55, 56)
	prepare := func(sql string, cached bool) *Query {
		t.Helper()
		q, err := db.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		if q.PlanCached() != cached {
			t.Fatalf("Prepare reports PlanCached %v, want %v:\n%s", q.PlanCached(), cached, sql)
		}
		return q
	}
	both := func(sql string) []string {
		k := []string{sql, string(normalizeSQL(nil, sql))}
		sort.Strings(k)
		return k
	}
	variant := "select x.NAME from QUOTE  cluster by name SEQUENCE BY date as (x, y, z)\n" +
		"\twhere y.price > 1.15*x.price and z.price < 0.80*y.price  "
	key := string(normalizeSQL(nil, servingSQL))
	if string(normalizeSQL(nil, variant)) != key || variant == servingSQL || key == servingSQL {
		t.Fatal("the variant, the text and the key must be three texts of one key")
	}

	q := prepare(servingSQL, false)
	if got := checkPlanKeys(t, db); !reflect.DeepEqual(got, both(servingSQL)) {
		t.Fatalf("one compiled statement: keys %q, want its text and its key", got)
	}
	for _, sql := range []string{servingSQL, variant, key, servingSQL} {
		if prepare(sql, true).plan != q.plan {
			t.Fatalf("%q did not find the compiled plan", sql)
		}
	}
	if got := checkPlanKeys(t, db); !reflect.DeepEqual(got, both(servingSQL)) {
		t.Fatalf("a variant's hit changed the keys to %q", got)
	}

	// A catalog change makes the exact text recompile, and the recompiled
	// plan takes over both keys.
	if err := db.DeclarePositive("quote", "price"); err != nil {
		t.Fatal(err)
	}
	q2 := prepare(servingSQL, false)
	if q2.plan == q.plan {
		t.Fatal("DeclarePositive: the exact text was served the stale plan")
	}
	db.RegisterTable(db.Table("quote"))
	q3 := prepare(servingSQL, false)
	if q3.plan == q2.plan {
		t.Fatal("RegisterTable: the exact text was served the stale plan")
	}
	if prepare(variant, true).plan != q3.plan || prepare(servingSQL, true).plan != q3.plan {
		t.Fatal("the recompiled plan is not found by the text and the variant")
	}
	// The stale path also runs from a variant, which then owns the text key.
	if err := db.DeclarePositive("quote", "price"); err != nil {
		t.Fatal(err)
	}
	q4 := prepare(variant, false)
	if got := checkPlanKeys(t, db); !reflect.DeepEqual(got, both(variant)) {
		t.Fatalf("a variant recompiled after a catalog change: keys %q, want its text and key", got)
	}
	if prepare(servingSQL, true).plan != q4.plan {
		t.Fatal("the original text does not find the variant's plan")
	}

	// A quoted literal is part of the key, case and all.
	upper := strings.Replace(servingSQL, "WHERE", "WHERE X.name = 'INTC' AND", 1)
	lower := strings.Replace(upper, "'INTC'", "'intc'", 1)
	qu, ql := prepare(upper, false), prepare(lower, false)
	if qu.plan == ql.plan || prepare(upper, true).plan != qu.plan || prepare(lower, true).plan != ql.plan {
		t.Fatal("'INTC' and 'intc' share a plan")
	}
	for sql, rows := range map[*Query]int{qu: 1, ql: 0} {
		if res, err := sql.Run(); err != nil || len(res.Rows) != rows {
			t.Fatalf("%s: %v rows, error %v; want %d rows", sql.plan.sql, res, err, rows)
		}
	}
	checkPlanKeys(t, db)

	// At capacity 1 a new statement evicts the entry with both its keys.
	prepare(variant, true)
	db.SetPlanCacheCapacity(1)
	if got := checkPlanKeys(t, db); !reflect.DeepEqual(got, both(variant)) {
		t.Fatalf("capacity 1 keeps keys %q, want the most recent entry's", got)
	}
	prepare(upper, false)
	if got := checkPlanKeys(t, db); !reflect.DeepEqual(got, both(upper)) {
		t.Fatalf("after an eviction at capacity 1 the keys are %q, want only the new statement's", got)
	}
	db.PurgeCaches()
	if got := checkPlanKeys(t, db); len(got) != 0 {
		t.Fatalf("PurgeCaches left keys %q", got)
	}
	// Capacity 0 stores nothing.
	db.SetPlanCacheCapacity(0)
	for i := 0; i < 2; i++ {
		prepare(servingSQL, false)
		prepare(variant, false)
	}
	if got := checkPlanKeys(t, db); len(got) != 0 {
		t.Fatalf("capacity 0 stored keys %q", got)
	}

	// Clients sending the text, the variant and the key race a catalog
	// writer through a cache of two entries; every run finds the one
	// match, and the map ends with two keys per entry at most.
	db.SetPlanCacheCapacity(2)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			db.RegisterTable(db.Table("quote"))
			time.Sleep(100 * time.Microsecond)
		}
		close(stop)
	}()
	texts := []string{servingSQL, variant, key, upper}
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				res, err := db.Query(texts[i%len(texts)])
				if err != nil || len(res.Rows) != 1 {
					t.Errorf("%q: %v rows, error %v; want 1 row", texts[i%len(texts)], res, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := checkPlanKeys(t, db); len(got) > 4 {
		t.Fatalf("a cache of two entries holds keys %q", got)
	}
}

const servingSQL = `
	SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y, Z)
	WHERE Y.price > 1.15*X.price AND Z.price < 0.80*Y.price`

// TestPlanCacheCaseInsensitive is the case-folding regression test:
// case variants of one statement must share a plan-cache entry (and
// therefore one statement-stats key), since the language resolves
// keywords and identifiers case-insensitively.
func TestPlanCacheCaseInsensitive(t *testing.T) {
	db := quoteDB(t)
	insertSeries(t, db, "INTC", 10000, 60, 70, 55, 56)

	q1, err := db.Prepare(servingSQL)
	if err != nil {
		t.Fatal(err)
	}
	if q1.PlanCached() {
		t.Fatal("first Prepare reported a cache hit")
	}
	for _, variant := range []string{
		strings.ToUpper(servingSQL),
		strings.ToLower(servingSQL),
	} {
		q2, err := db.Prepare(variant)
		if err != nil {
			t.Fatal(err)
		}
		if !q2.PlanCached() {
			t.Fatalf("case variant missed the plan cache:\n%s", variant)
		}
		res, err := q2.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("case variant returned %d rows, want 1", len(res.Rows))
		}
	}
	// All three spellings aggregate into one statement-stats entry.
	keys := 0
	for _, s := range db.StatementStats() {
		if strings.Contains(s.SQL, "1.15*x.price") {
			keys++
			if s.Calls != 2 {
				t.Fatalf("statement entry has %d calls, want 2 (the two Run calls)", s.Calls)
			}
		}
	}
	if keys != 1 {
		t.Fatalf("found %d statement entries for the case variants, want 1", keys)
	}
}

// TestPlanCache checks that repeated Prepares share one immutable plan,
// that whitespace variants share a cache entry, and that catalog
// changes (DeclarePositive, RegisterTable) force recompilation.
func TestPlanCache(t *testing.T) {
	db := quoteDB(t)
	insertSeries(t, db, "INTC", 10000, 60, 70, 55, 56)

	q1, err := db.Prepare(servingSQL)
	if err != nil {
		t.Fatal(err)
	}
	if q1.PlanCached() {
		t.Error("first Prepare reported a cache hit")
	}
	q2, err := db.Prepare(servingSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !q2.PlanCached() {
		t.Error("second Prepare missed the plan cache")
	}
	if q1.plan != q2.plan {
		t.Error("cached Prepare did not share the plan")
	}
	// A whitespace variant of the same statement shares the entry.
	q3, err := db.Prepare("SELECT   X.name FROM quote CLUSTER BY name\nSEQUENCE BY date AS (X, Y, Z)\n\tWHERE Y.price > 1.15*X.price AND Z.price < 0.80*Y.price")
	if err != nil {
		t.Fatal(err)
	}
	if !q3.PlanCached() || q3.plan != q1.plan {
		t.Error("whitespace variant did not share the cached plan")
	}
	// The compile phases are the plan's: a cached query reads the same
	// trace, it does not get a copy.
	if q2.Trace() != q1.Trace() || len(q2.Trace().Spans()) != 5 {
		t.Errorf("cached query's trace: shared=%v, %d spans (want the plan's 5 compile phases)",
			q2.Trace() == q1.Trace(), len(q2.Trace().Spans()))
	}

	cs := db.CacheStats()
	if cs.PlanHits != 2 || cs.PlanMisses != 1 || cs.PlanEntries != 1 {
		t.Errorf("cache stats = %+v, want 2 hits / 1 miss / 1 entry", cs)
	}

	// DeclarePositive changes what the optimizer may conclude → stale.
	if err := db.DeclarePositive("quote", "price"); err != nil {
		t.Fatal(err)
	}
	q4, err := db.Prepare(servingSQL)
	if err != nil {
		t.Fatal(err)
	}
	if q4.PlanCached() {
		t.Error("Prepare after DeclarePositive served a stale plan")
	}

	// Inserts do NOT invalidate plans (only partitions).
	insertSeries(t, db, "IBM", 10000, 81, 80.5, 84, 83)
	q5, err := db.Prepare(servingSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !q5.PlanCached() {
		t.Error("insert invalidated the plan cache")
	}

	// Capacity 0 disables plan caching.
	db.SetPlanCacheCapacity(0)
	q6, err := db.Prepare(servingSQL)
	if err != nil {
		t.Fatal(err)
	}
	if q6.PlanCached() {
		t.Error("plan cache served a hit with capacity 0")
	}
}

// TestAutoKeepsOPSAfterTableGrowth: a plan runs as it was compiled, so
// what earlier runs over another version of the table cost never changes
// which executor Auto means. One naive run over the first 40 days of the
// walk (89 evals), then the other 6,260 days inserted: every Auto run
// after that costs exactly what an explicit OPS run costs.
func TestAutoKeepsOPSAfterTableGrowth(t *testing.T) {
	const prefix = 40
	prices := workload.DJIA25Years(1)
	tbl := workload.SeriesTable("djia", 2557, prices[:prefix])
	db := New()
	db.RegisterTable(tbl)
	if err := db.DeclarePositive("djia", "price"); err != nil {
		t.Fatal(err)
	}
	q, err := db.Prepare(doubleBottomSQL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.RunWith(RunOptions{Executor: NaiveExec}); err != nil {
		t.Fatal(err)
	}
	rest := make([]storage.Row, 0, len(prices)-prefix)
	for i, p := range prices[prefix:] {
		rest = append(rest, storage.Row{storage.NewDateDays(int64(2557 + prefix + i)), storage.NewFloat(p)})
	}
	if err := tbl.InsertBatch(rest); err != nil {
		t.Fatal(err)
	}
	want, err := q.RunWith(RunOptions{Executor: OPSExec})
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run <= 128; run++ {
		// Prepared per run, as db.Query does, so a plan the cache swapped
		// in would serve it.
		q, err := db.Prepare(doubleBottomSQL)
		if err != nil {
			t.Fatal(err)
		}
		got, err := q.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats != want.Stats {
			t.Fatalf("Auto run %d (call %d of the statement): %v, explicit OPS %v", run, run+2, got.Stats, want.Stats)
		}
		if strings.Contains(q.Explain(), "adaptive:") {
			t.Fatalf("Auto run %d: EXPLAIN reports an adaptive revision:\n%s", run, q.Explain())
		}
	}
}

// TestPlanCacheLRU checks eviction order.
func TestPlanCacheLRU(t *testing.T) {
	db := quoteDB(t)
	insertSeries(t, db, "INTC", 10000, 60, 70, 55, 56)
	db.SetPlanCacheCapacity(2)
	sqlFor := func(i int) string {
		return fmt.Sprintf(`SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y) WHERE Y.price > %d*X.price`, i+2)
	}
	for i := 0; i < 3; i++ {
		if _, err := db.Prepare(sqlFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	// 0 was evicted by 2; 1 and 2 remain.
	q, _ := db.Prepare(sqlFor(0))
	if q.PlanCached() {
		t.Error("evicted entry served")
	}
	q, _ = db.Prepare(sqlFor(2))
	if !q.PlanCached() {
		t.Error("resident entry missed")
	}
}

// TestPartitionCache checks reuse over an unchanged table, bit-identical
// results against an uncached run, and invalidation by Insert.
func TestPartitionCache(t *testing.T) {
	db := quoteDB(t)
	insertSeries(t, db, "INTC", 10000, 60, 70, 55, 56)
	insertSeries(t, db, "IBM", 10000, 81, 80.5, 84, 83)

	ver0 := db.Table("quote").Version()
	if ver0 == 0 {
		t.Fatal("inserts did not bump the table version")
	}

	cold, err := db.Query(servingSQL)
	if err != nil {
		t.Fatal(err)
	}
	if cold.PartitionCached() {
		t.Error("first run reported a cached partition")
	}
	warm, err := db.Query(servingSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.PartitionCached() || !warm.PlanCached() {
		t.Errorf("warm run: plan cached=%v partition cached=%v, want both", warm.PlanCached(), warm.PartitionCached())
	}
	equalResults(t, "warm vs cold", warm, cold)

	// An explicitly uncached run is bit-identical too.
	q, err := db.Prepare(servingSQL)
	if err != nil {
		t.Fatal(err)
	}
	bypass, err := q.RunWith(RunOptions{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if bypass.PartitionCached() {
		t.Error("NoCache run reported a cached partition")
	}
	equalResults(t, "bypass vs cold", bypass, cold)

	// Insert bumps the version; the next query refreshes the partition and
	// sees the new rows (ACME now matches too).
	insertSeries(t, db, "ACME", 10000, 10, 12, 9, 9.5)
	if v := db.Table("quote").Version(); v <= ver0 {
		t.Errorf("version not bumped: %d -> %d", ver0, v)
	}
	fresh, err := db.Query(servingSQL)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.PartitionCached() {
		t.Error("post-insert run served the stale partition")
	}
	if len(fresh.Rows) != len(cold.Rows)+1 {
		t.Errorf("post-insert rows = %d, want %d (stale read?)", len(fresh.Rows), len(cold.Rows)+1)
	}

	cs := db.CacheStats()
	if cs.PartitionHits != 1 || cs.PartitionMisses != 2 || cs.PartitionInvalidations != 1 {
		t.Errorf("partition cache stats = %+v, want 1 hit / 2 misses / 1 invalidation", cs)
	}
}

// TestPartitionCacheTableReplaced checks that re-registering a table
// under the same name never serves the old table's partition.
func TestPartitionCacheTableReplaced(t *testing.T) {
	db := quoteDB(t)
	insertSeries(t, db, "INTC", 10000, 60, 70, 55, 56)
	if _, err := db.Query(servingSQL); err != nil {
		t.Fatal(err)
	}

	// Replace quote with a fresh table of different content.
	nt := storage.NewTable("quote", db.Table("quote").Schema)
	db.RegisterTable(nt)
	res, err := db.Query(servingSQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.PartitionCached() {
		t.Error("partition of the replaced table was served")
	}
	if len(res.Rows) != 0 {
		t.Errorf("rows = %d from an empty replacement table", len(res.Rows))
	}
}

// TestSetShardsChangesNothing: SetShards is a no-op. A DB told to shard
// serves cold, warm, NoCache and post-insert runs from the one partition
// cache exactly as a DB never told: the same results, the same partition
// outcomes and the same cache counters.
func TestSetShardsChangesNothing(t *testing.T) {
	plain, sharded := quoteDB(t), quoteDB(t)
	sharded.SetShards(8)
	dbs := []*DB{plain, sharded}
	for _, db := range dbs {
		insertSeries(t, db, "INTC", 10000, 60, 70, 55, 56)
		insertSeries(t, db, "IBM", 10000, 81, 80.5, 84, 83)
	}
	step := func(label string, opts RunOptions) {
		t.Helper()
		var res [2]*Result
		for i, db := range dbs {
			q, err := db.Prepare(servingSQL)
			if err != nil {
				t.Fatal(err)
			}
			if res[i], err = q.RunWith(opts); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
		equalResults(t, label, res[1], res[0])
		if a, b := res[0].PartitionOutcome(), res[1].PartitionOutcome(); a != b {
			t.Fatalf("%s: partition %q after SetShards(8), %q without", label, b, a)
		}
	}
	step("cold run", RunOptions{})
	step("warm run", RunOptions{})
	step("NoCache run", RunOptions{NoCache: true})
	for _, db := range dbs {
		insertSeries(t, db, "ACME", 10000, 10, 12, 9, 9.5)
	}
	step("post-insert run", RunOptions{})
	if a, b := plain.CacheStats(), sharded.CacheStats(); !reflect.DeepEqual(a, b) {
		t.Fatalf("cache stats %+v after SetShards(8), %+v without", b, a)
	}
}

// TestExplainAnalyzeCacheLines checks that EXPLAIN ANALYZE reports the
// cache outcome of its run.
func TestExplainAnalyzeCacheLines(t *testing.T) {
	db := djiaDoubleBottomDB(t)
	sql := "EXPLAIN ANALYZE " + doubleBottomSQL
	res, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	text := planText(res)
	if !strings.Contains(text, "plan: compiled") || !strings.Contains(text, "partition: built") {
		t.Errorf("cold EXPLAIN ANALYZE missing cache lines:\n%s", text)
	}
	res, err = db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	text = planText(res)
	if !strings.Contains(text, "plan: cached") || !strings.Contains(text, "partition: cached") {
		t.Errorf("warm EXPLAIN ANALYZE missing cache-hit lines:\n%s", text)
	}
	// After an insert the partition is refreshed, not rebuilt, and the
	// report and the event say how much of it.
	db.Table("djia").MustInsert(storage.NewDateDays(20100), storage.NewFloat(99.7))
	res, err = db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	const refreshed = "partition: refreshed (1 of 1 clusters)"
	if text = planText(res); !strings.Contains(text, refreshed) {
		t.Errorf("EXPLAIN ANALYZE after an insert missing %q:\n%s", refreshed, text)
	}
	q, err := db.Prepare(doubleBottomSQL)
	if err != nil {
		t.Fatal(err)
	}
	db.Table("djia").MustInsert(storage.NewDateDays(20101), storage.NewFloat(99.8))
	res, err = q.Run()
	if err != nil {
		t.Fatal(err)
	}
	ev := db.RecentEvents()[0]
	if want := "refreshed (1 of 1 clusters)"; ev.Partition != want || res.PartitionOutcome() != want || ev.PartitionCached {
		t.Errorf("after an insert: event partition %q (cached=%v), result %q, want %q",
			ev.Partition, ev.PartitionCached, res.PartitionOutcome(), want)
	}
}

func planText(res *Result) string {
	var b strings.Builder
	for _, r := range res.Rows {
		b.WriteString(r[0].Str())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestStreamViaDB checks the DB.Stream serving entry point and that it
// shares the cached plan.
func TestStreamViaDB(t *testing.T) {
	db := quoteDB(t)
	var rows int
	sql := `SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y) WHERE Y.price > X.price`
	st, err := db.Stream(sql, StreamOptions{}, func(storage.Row) error { rows++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range []float64{10, 11, 12, 13} {
		if err := st.Push(storage.NewString("X"), storage.NewDateDays(int64(30000+i)), storage.NewFloat(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if rows != 2 {
		t.Errorf("stream rows = %d, want 2", rows)
	}
	// Second stream over the same SQL shares the compiled plan (and its
	// lazily computed stream tables).
	st2, err := db.Stream(sql, StreamOptions{}, func(storage.Row) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !st2.q.PlanCached() {
		t.Error("second Stream did not hit the plan cache")
	}
	if st.q.plan.tables != st2.q.plan.tables {
		t.Error("streams over one plan did not share shift/next tables")
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentServingStress is the PR 4 acceptance stress test: many
// goroutines issue the same and different SQL against one shared DB —
// first over a static table (every cached result must be bit-identical
// to an uncached reference), then while another goroutine Inserts
// (forcing partition-cache invalidation, served by per-cluster refreshes
// racing one another over the same stale entries; queries must never error
// or serve rows the reference database doesn't explain). Between the
// two, the static traffic runs again while PurgeCaches empties the caches
// under it, racing the lock-free partition hits. Run under -race.
func TestConcurrentServingStress(t *testing.T) {
	seed := func() *DB {
		db := quoteDB(t)
		insertSeries(t, db, "INTC", 10000, 60, 70, 55, 56, 58, 70, 52)
		insertSeries(t, db, "IBM", 10000, 81, 80.5, 84, 83, 95, 70, 71)
		insertSeries(t, db, "ACME", 10000, 10, 12, 9, 9.5, 11.5, 8.8, 9)
		return db
	}
	queries := []string{
		servingSQL,
		`SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y) WHERE Y.price > X.price`,
		`SELECT X.name, FIRST(Y).date FROM quote CLUSTER BY name SEQUENCE BY date AS (X, *Y, Z)
		 WHERE Y.price < Y.previous.price AND Z.price > 1.1*Z.previous.price`,
	}

	// Uncached references, one per query, from an identical fresh DB.
	ref := make([]*Result, len(queries))
	refDB := seed()
	refDB.SetPlanCacheCapacity(0)
	for i, sql := range queries {
		q, err := refDB.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		r, err := q.RunWith(RunOptions{NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		ref[i] = r
	}

	db := seed()
	const (
		goroutines = 8
		iters      = 25
	)

	// Phase 1: static table. Every concurrent (and mostly cached) result
	// must be bit-identical to the uncached reference.
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	results := make([][]*Result, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				qi := (g + i) % len(queries)
				res, err := db.Query(queries[qi])
				if err != nil {
					errs <- err
					return
				}
				results[g] = append(results[g], res)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for g := 0; g < goroutines; g++ {
		for i, res := range results[g] {
			equalResults(t, fmt.Sprintf("goroutine %d iter %d", g, i), res, ref[(g+i)%len(queries)])
		}
	}
	if cs := db.CacheStats(); cs.PlanHits == 0 || cs.PartitionHits == 0 {
		t.Errorf("stress ran uncached: %+v", cs)
	}

	// Phase 1b: the same traffic while another goroutine empties the
	// caches under it, letting a query finish between two purges. Runs
	// that reach their partition through their plan's slot race the purge
	// that empties the slot; every result must still be the reference.
	var seen, left atomic.Int64
	done := make(chan struct{})
	var purger sync.WaitGroup
	purger.Add(1)
	go func() {
		defer purger.Done()
		defer close(done)
		for i := 0; i < 20; i++ {
			db.PurgeCaches()
			for last := seen.Load(); seen.Load() == last && left.Load() < goroutines; {
				runtime.Gosched()
			}
		}
	}()
	errs = make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer left.Add(1)
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				qi := (g + i) % len(queries)
				res, err := db.Query(queries[qi])
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(res.Rows, ref[qi].Rows) || res.Stats != ref[qi].Stats {
					errs <- fmt.Errorf("goroutine %d iter %d under PurgeCaches: %v, want %v", g, i, res.Rows, ref[qi].Rows)
					return
				}
				seen.Add(1)
			}
		}(g)
	}
	wg.Wait()
	purger.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Phase 2: same traffic while a writer Inserts (one row at a time,
	// each bumping the table version and invalidating the partition). The
	// writer lets a query finish between two inserts, so that the readers
	// do meet stale partitions however the goroutines are scheduled.
	tbl := db.Table("quote")
	stop := make(chan struct{})
	var served, gone atomic.Int64
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		defer close(stop)
		for i := 0; i < 40; i++ {
			tbl.MustInsert(
				storage.NewString("NEWCO"),
				storage.NewDateDays(int64(20000+i)),
				storage.NewFloat(50+float64(i%7)),
			)
			for seen := served.Load(); served.Load() == seen && gone.Load() < goroutines; {
				runtime.Gosched()
			}
		}
	}()
	errs = make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer gone.Add(1)
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.Query(queries[(g+i)%len(queries)]); err != nil {
					errs <- err
					return
				}
				served.Add(1)
				i++
			}
		}(g)
	}
	wg.Wait()
	writer.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := db.metrics.partitionCacheRefreshes.Value(); n == 0 {
		t.Errorf("40 inserts under query traffic and no partition was refreshed: %+v", db.CacheStats())
	}

	// After the writer quiesces, the next query must observe every
	// inserted row: bit-identical to an uncached reference over a fresh
	// DB holding the same final data.
	finalRef := seed()
	ftbl := finalRef.Table("quote")
	for i := 0; i < 40; i++ {
		ftbl.MustInsert(
			storage.NewString("NEWCO"),
			storage.NewDateDays(int64(20000+i)),
			storage.NewFloat(50+float64(i%7)),
		)
	}
	finalRef.SetPlanCacheCapacity(0)
	for i, sql := range queries {
		q, err := finalRef.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		want, err := q.RunWith(RunOptions{NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		equalResults(t, fmt.Sprintf("final query %d", i), got, want)
	}
}

// TestPreparedHandleFollowsCatalog: a handle prepared before its table
// was replaced runs the plan its text has under the current catalog, not
// the old plan's column indexes over the new table. Replacing
// q(name, date, a, b) by q(name, date, b, a) made the old plan compare b
// and return nothing; moving the VARCHAR into a REAL's position made it
// panic. The handle itself keeps its plan.
func TestPreparedHandleFollowsCatalog(t *testing.T) {
	const sql = `SELECT Y.a FROM q CLUSTER BY name SEQUENCE BY date AS (X, Y) WHERE Y.a > X.a`
	table := func(names ...string) *storage.Table {
		types := map[string]storage.Type{"name": storage.TypeString, "date": storage.TypeDate, "a": storage.TypeFloat, "b": storage.TypeFloat}
		cols := make([]storage.Column, len(names))
		for i, n := range names {
			cols[i] = storage.Column{Name: n, Type: types[n]}
		}
		tbl := storage.NewTable("q", storage.MustSchema(cols...))
		for day, vals := range []map[string]storage.Value{
			{"name": storage.NewString("N"), "a": storage.NewFloat(1), "b": storage.NewFloat(5)},
			{"name": storage.NewString("N"), "a": storage.NewFloat(2), "b": storage.NewFloat(3)},
		} {
			vals["date"] = storage.NewDateDays(int64(10000 + day))
			row := make([]storage.Value, len(names))
			for i, n := range names {
				row[i] = vals[n]
			}
			tbl.MustInsert(row...)
		}
		return tbl
	}
	db := New()
	db.RegisterTable(table("name", "date", "a", "b"))
	q, err := db.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	prepared := q.plan
	for _, cols := range [][]string{
		{"name", "date", "a", "b"},
		{"name", "date", "b", "a"},
		{"a", "date", "name", "b"},
	} {
		db.RegisterTable(table(cols...))
		want, err := db.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Rows) != 1 || want.Rows[0][0].Float() != 2 {
			t.Fatalf("q%v: a fresh query returns %v, want [[2]]", cols, want.Rows)
		}
		for _, run := range []func() (*Result, error){
			q.Run,
			func() (*Result, error) { return q.RunWith(RunOptions{NoCache: true}) },
		} {
			got, err := run()
			if err != nil {
				t.Fatalf("q%v: the prepared handle: %v", cols, err)
			}
			equalResults(t, fmt.Sprintf("q%v: prepared handle vs fresh query", cols), got, want)
		}
		if _, err := q.ExplainAnalyze(RunOptions{}); err != nil {
			t.Fatalf("q%v: EXPLAIN ANALYZE of the prepared handle: %v", cols, err)
		}
		if q.plan != prepared {
			t.Fatalf("q%v: running the handle changed its plan", cols)
		}
	}
	// A table its text no longer compiles against fails the run as a
	// fresh Prepare fails.
	db.RegisterTable(table("name", "date", "b"))
	_, want := db.Prepare(sql)
	if _, err := q.Run(); err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("q[name date b]: the prepared handle fails with %v, a fresh Prepare with %v", err, want)
	}
}

// TestPartitionSlot: a plan reaches its partition through its key's slot,
// which the cache empties when it drops the partition, so a cached plan
// keeps no dropped partition alive; a partition kept warm only by such
// lock-free hits gets a second chance when the cache trims; and an insert
// still refreshes what it changed.
func TestPartitionSlot(t *testing.T) {
	const tables = 66
	sqlFor := func(i int) string {
		return fmt.Sprintf(`SELECT X.name FROM p%d CLUSTER BY name SEQUENCE BY date AS (X, Y) WHERE Y.price > X.price`, i)
	}
	newDB := func() *DB {
		db := New()
		schema := storage.MustSchema(
			storage.Column{Name: "name", Type: storage.TypeString},
			storage.Column{Name: "date", Type: storage.TypeDate},
			storage.Column{Name: "price", Type: storage.TypeFloat},
		)
		for i := 0; i < tables; i++ {
			tbl := storage.NewTable(fmt.Sprintf("p%d", i), schema)
			for d, p := range []float64{10, 11, 9} {
				tbl.MustInsert(storage.NewString("A"), storage.NewDateDays(int64(10000+d)), storage.NewFloat(p))
			}
			db.RegisterTable(tbl)
		}
		return db
	}
	outcome := func(t *testing.T, db *DB, sql string) string {
		t.Helper()
		res, err := db.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("%s: %d rows, want 1", sql, len(res.Rows))
		}
		return res.PartitionOutcome()
	}
	expect := func(t *testing.T, label, got, want string) {
		t.Helper()
		if got != want {
			t.Fatalf("%s: partition %q, want %q", label, got, want)
		}
	}

	t.Run("purge", func(t *testing.T) {
		db := newDB()
		expect(t, "first run", outcome(t, db, sqlFor(0)), "built")
		expect(t, "second run", outcome(t, db, sqlFor(0)), "cached")
		q, err := db.Prepare(sqlFor(0))
		if err != nil {
			t.Fatal(err)
		}
		db.PurgeCaches()
		if s := q.plan.part.Load(); s == nil || s.cur.Load() != nil {
			t.Fatal("after PurgeCaches the plan's slot still holds a partition")
		}
		res, err := q.Run()
		if err != nil {
			t.Fatal(err)
		}
		expect(t, "run after PurgeCaches", res.PartitionOutcome(), "built")
	})

	t.Run("evicted", func(t *testing.T) {
		db := newDB()
		expect(t, "first run", outcome(t, db, sqlFor(0)), "built")
		q, err := db.Prepare(sqlFor(0))
		if err != nil {
			t.Fatal(err)
		}
		var collected atomic.Bool
		e := cachedPartition(q)
		runtime.SetFinalizer(e, func(*partitionEntry) { collected.Store(true) })
		e = nil
		for i := 1; i < tables; i++ {
			expect(t, sqlFor(i), outcome(t, db, sqlFor(i)), "built")
		}
		if cachedPartition(q) != nil {
			t.Fatalf("%d other partitions did not evict the first", tables-1)
		}
		for i := 0; i < 20 && !collected.Load(); i++ {
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		if !collected.Load() {
			t.Fatal("an evicted partition is kept alive")
		}
		if again, err := db.Prepare(sqlFor(0)); err != nil || again.plan != q.plan {
			t.Fatalf("the evicted partition's plan left the plan cache (%v)", err)
		}
		expect(t, "run after eviction", outcome(t, db, sqlFor(0)), "built")
	})

	t.Run("second chance", func(t *testing.T) {
		db := newDB()
		capacity := db.CacheStats().PartitionCapacity
		for i := 0; i < capacity; i++ {
			expect(t, sqlFor(i), outcome(t, db, sqlFor(i)), "built")
		}
		// p0 is the least recently stored; a lock-free hit marks it used
		// and leaves it there.
		expect(t, "warm p0", outcome(t, db, sqlFor(0)), "cached")
		q, err := db.Prepare(sqlFor(0))
		if err != nil {
			t.Fatal(err)
		}
		if s := q.plan.part.Load(); !s.used.Load() || db.parts.order.Back().Value != s {
			t.Fatal("a lock-free hit did not mark its slot used, or moved it")
		}
		expect(t, sqlFor(capacity), outcome(t, db, sqlFor(capacity)), "built")
		expect(t, "p0 after a trim", outcome(t, db, sqlFor(0)), "cached")
		expect(t, "p1 after a trim", outcome(t, db, sqlFor(1)), "built")
		if n := db.CacheStats().PartitionEntries; n != capacity {
			t.Fatalf("%d partitions cached, want %d", n, capacity)
		}
	})

	t.Run("refresh", func(t *testing.T) {
		db := quoteDB(t)
		insertSeries(t, db, "INTC", 10000, 60, 70, 55, 56)
		insertSeries(t, db, "IBM", 10000, 81, 80.5, 84, 83)
		q, err := db.Prepare(servingSQL)
		if err != nil {
			t.Fatal(err)
		}
		run := func(label, want string) {
			t.Helper()
			res, err := q.Run()
			if err != nil {
				t.Fatal(err)
			}
			expect(t, label, res.PartitionOutcome(), want)
		}
		run("first run", "built")
		run("warm run", "cached")
		insertSeries(t, db, "INTC", 10010, 57)
		run("after an INTC row", "refreshed (1 of 2 clusters)")
		run("warm run", "cached")
		insertSeries(t, db, "ACME", 10000, 10, 12, 9, 9.5)
		run("after a new cluster", "refreshed (1 of 3 clusters)")
		run("warm run", "cached")
	})
}

// TestResultHeaderShared: every result of a plan lends the plan's column
// names and types, without a copy, and an append to one result's header
// copies it, so neither another result nor the plan's next one sees it.
func TestResultHeaderShared(t *testing.T) {
	db := quoteDB(t)
	insertSeries(t, db, "INTC", 10000, 60, 70, 55, 56)
	const sql = `SELECT X.name, Y.price FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y) WHERE Y.price > X.price`
	q, err := db.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		t.Helper()
		res, err := q.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if &a.Columns[0] != &b.Columns[0] || &a.Types[0] != &b.Types[0] {
		t.Fatal("two results of one plan do not share their column header")
	}
	wantCols := []string{"X.name", "Y.price"}
	wantTypes := []storage.Type{storage.TypeString, storage.TypeFloat}
	if !reflect.DeepEqual(a.Columns, wantCols) || !reflect.DeepEqual(a.Types, wantTypes) {
		t.Fatalf("header %v %v, want %v %v", a.Columns, a.Types, wantCols, wantTypes)
	}
	cols := append(a.Columns, "extra")
	cols[0] = "changed"
	types := append(a.Types, storage.TypeInt)
	types[0] = storage.TypeInt
	for label, res := range map[string]*Result{"the first result": a, "another result": b, "the next result": run()} {
		if !reflect.DeepEqual(res.Columns, wantCols) || !reflect.DeepEqual(res.Types, wantTypes) {
			t.Errorf("after an append to a result's header, %s reads %v %v", label, res.Columns, res.Types)
		}
	}
}
