package sqlts

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"sqlts/internal/query"
	"sqlts/internal/storage"
	"sqlts/internal/testutil"
	"sqlts/internal/workload"
)

// keyStatementsDB holds the tables testutil.KeyStatements read: quote,
// three symbols of seeded walks with large daily moves, and djia, the
// 25-year walk with planted double bottoms, both of columns (name, date,
// price, volume).
func keyStatementsDB(t testing.TB) *DB {
	t.Helper()
	db := New()
	db.MustExec(`CREATE TABLE quote (name VARCHAR(8), date DATE, price REAL, volume INTEGER)`)
	db.MustExec(`CREATE TABLE djia (name VARCHAR(8), date DATE, price REAL, volume INTEGER)`)
	for _, tbl := range []string{"quote", "djia"} {
		if err := db.DeclarePositive(tbl, "price"); err != nil {
			t.Fatal(err)
		}
	}
	r := rand.New(rand.NewSource(7))
	quote := db.Table("quote")
	for _, name := range []string{"IBM", "INTC", "MSFT"} {
		p := 45.0
		for day := 0; day < 400; day++ {
			quote.MustInsert(storage.NewString(name), storage.NewDateDays(int64(10000+day)),
				storage.NewFloat(p), storage.NewInt(int64(1+r.Intn(20))))
			p *= 1 + 0.12*r.NormFloat64()
			p = min(max(p, 30), 60)
		}
	}
	prices := workload.DJIA25Years(1)
	for i := 0; i < 6; i++ {
		workload.PlantDoubleBottom(prices, 1+(i+1)*len(prices)/7)
	}
	djia := db.Table("djia")
	for i, p := range prices {
		djia.MustInsert(storage.NewString("DJIA"), storage.NewDateDays(int64(2557+i)),
			storage.NewFloat(p), storage.NewInt(int64(i)))
	}
	return db
}

// keyStatementVariants are texts with sql's FROM … WHERE tokens: the
// statement as written, with its whitespace, comments and keyword case
// changed, with a final ';', with another SELECT list and alias, and
// EXPLAIN and EXPLAIN ANALYZE of it.
func keyStatementVariants(i int, sql string) []string {
	from := sql[strings.Index(sql, "FROM"):]
	lower := strings.NewReplacer("SELECT", "select", "FROM", "From", "WHERE", "wHeRe", "AND", "and",
		"CLUSTER BY", "cluster by", "SEQUENCE BY", "Sequence By", " AS (", " as (", " OR ", " or ")
	return []string{
		sql,
		strings.Join(strings.Fields(sql), " "),
		strings.ReplaceAll(sql, " ", "\n\t  ") + ";",
		"-- a comment\n" + strings.Replace(sql, "WHERE", "WHERE -- and another\n", 1) + " -- and one more",
		lower.Replace(sql),
		"SELECT X.price AS p, COUNT(X) AS n " + from,
		fmt.Sprintf("SELECT X.name AS alias%d ", i) + from,
		"EXPLAIN " + sql,
		"EXPLAIN ANALYZE SELECT FIRST(X).date AS d " + from,
	}
}

// selectOf is the SELECT a freshly parsed statement holds.
func selectOf(t *testing.T, sql string) *query.SelectStmt {
	t.Helper()
	st, err := query.Parse(sql)
	if err != nil {
		t.Fatalf("%v\n%s", err, sql)
	}
	if ex, ok := st.(*query.ExplainStmt); ok {
		return ex.Sel
	}
	return st.(*query.SelectStmt)
}

// TestSharedTailMatchesFullParse: a statement whose FROM … WHERE a cached
// plan holds parses only its SELECT list and takes the rest from that
// plan's statement, and it is the statement a full parse gives: the same
// rendering, the same plan text, the same rows and pred-evals as on a DB
// that caches no plan. A catalog change between the runs — CREATE TABLE,
// DeclarePositive, or one landing between the parse and the compile —
// makes the statement compile its pattern anew.
func TestSharedTailMatchesFullParse(t *testing.T) {
	shared := keyStatementsDB(t)
	fresh := keyStatementsDB(t)
	fresh.SetPlanCacheCapacity(0)
	// compare runs v on both DBs and checks that they agree; hit says
	// whether shared must find the pattern cached.
	compare := func(i int, v string, hit bool) {
		t.Helper()
		qs, err := shared.Prepare(v)
		if err != nil {
			t.Fatalf("statement %d: %v\n%s", i, err, v)
		}
		qf, err := fresh.Prepare(v)
		if err != nil {
			t.Fatalf("statement %d, fresh: %v\n%s", i, err, v)
		}
		if qs.plan.patternCached != hit || qf.plan.patternCached {
			t.Errorf("statement %d: pattern cached %v (fresh %v), want %v\n%s",
				i, qs.plan.patternCached, qf.plan.patternCached, hit, v)
		}
		if got, want := query.Render(qs.plan.compiled.Stmt), query.Render(selectOf(t, v)); got != want {
			t.Errorf("statement %d: renders\n%s\nwant\n%s", i, got, want)
		}
		if got, want := qs.Explain(), qf.Explain(); got != want {
			t.Errorf("statement %d: plan\n%s\nwant\n%s", i, got, want)
		}
		rs, err := qs.Run()
		if err != nil {
			t.Fatalf("statement %d: %v\n%s", i, err, v)
		}
		rf, err := qf.Run()
		if err != nil {
			t.Fatalf("statement %d, fresh: %v\n%s", i, err, v)
		}
		if rs.Stats.PredEvals != rf.Stats.PredEvals {
			t.Errorf("statement %d: %d pred-evals, want %d\n%s", i, rs.Stats.PredEvals, rf.Stats.PredEvals, v)
		}
		if qs.plan.explain == explainAnalyze {
			return // the report holds timings
		}
		if !reflect.DeepEqual(rs.Columns, rf.Columns) || !reflect.DeepEqual(rs.Rows, rf.Rows) {
			t.Errorf("statement %d: %d rows %v, want %d rows %v\n%s",
				i, len(rs.Rows), rs.Columns, len(rf.Rows), rf.Columns, v)
		}
	}
	matched := 0
	for i, sql := range testutil.KeyStatements {
		if _, err := shared.Query(sql); err != nil {
			t.Fatalf("statement %d: %v", i, err)
		}
		for k, v := range keyStatementVariants(i, sql) {
			// A SELECT item of its own keeps the text from finding a plan.
			at := strings.Index(strings.ToUpper(v), "SELECT") + len("SELECT")
			compare(i, v[:at]+fmt.Sprintf(" X.date AS v%d,", k)+v[at:], true)
		}
		res, err := shared.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) > 0 {
			matched++
		}

		// DDL moves the catalog: the next text compiles its pattern, and
		// the one after finds it again.
		shared.MustExec(fmt.Sprintf("CREATE TABLE other%d (a INTEGER)", i))
		compare(i, fmt.Sprintf("SELECT X.date AS ddl%d ", i)+sql[strings.Index(sql, "FROM"):], false)
		compare(i, fmt.Sprintf("SELECT X.date AS after_ddl%d ", i)+sql[strings.Index(sql, "FROM"):], true)

		// The catalog moves between the lookup and the compile: the
		// statement, whole either way, compiles its pattern.
		v := fmt.Sprintf("SELECT X.date AS raced%d ", i) + sql[strings.Index(sql, "FROM"):]
		sel, _, hit, err := shared.parse(v)
		if err != nil || hit == nil {
			t.Fatalf("statement %d: the lookup missed (%v)", i, err)
		}
		shared.MustExec(fmt.Sprintf("CREATE TABLE raced%d (a INTEGER)", i))
		p, err := shared.compilePlan(sel, hit, v)
		if err != nil {
			t.Fatal(err)
		}
		if p.patternCached || p.art == hit {
			t.Errorf("statement %d: a compile under a newer catalog took the older pattern", i)
		}
	}
	if matched < 4 {
		t.Errorf("only %d of %d statements match anything", matched, len(testutil.KeyStatements))
	}

	// DeclarePositive on both: the first text after it compiles anew.
	for _, db := range []*DB{shared, fresh} {
		if err := db.DeclarePositive("quote", "volume"); err != nil {
			t.Fatal(err)
		}
	}
	sql := testutil.KeyStatements[0]
	compare(0, "SELECT X.date AS positive "+sql[strings.Index(sql, "FROM"):], false)
	compare(0, "SELECT X.date AS positive2 "+sql[strings.Index(sql, "FROM"):], true)
}

// TestSharedTailErrors: a malformed statement gives the same error on a
// DB that holds its pattern as on one that holds none — an error in the
// SELECT list comes before the lookup, and a tail that does not parse
// or analyse has no key a cached plan holds.
func TestSharedTailErrors(t *testing.T) {
	shared := keyStatementsDB(t)
	fresh := keyStatementsDB(t)
	cross := testutil.KeyStatements[4]
	from := cross[strings.Index(cross, "FROM"):]
	for _, sql := range testutil.KeyStatements {
		if _, err := shared.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	for _, sql := range []string{
		// The SELECT list.
		"SELECT X.name + " + from,
		"SELECT X.name, " + from,
		"SELECT X.name AS " + from,
		"SELECT X. " + from,
		"SELECT AVG(X) " + from,
		"SELECT Q.price " + from,
		"SELECT X.nope " + from,
		"SELECT X.name € " + from,
		// The tail.
		strings.Replace(cross, "X.price < 3)", "X.price < 3", 1),
		strings.Replace(cross, "AS (X, *Y, Z)", "AS (X, *Y, Z", 1),
		strings.Replace(cross, "FROM quote", "FROM", 1),
		strings.Replace(cross, "FROM quote", "FROM nope", 1),
		strings.Replace(cross, "Z.price", "Z.nope", 1),
		strings.Replace(cross, "X.volume > 10", "X.volume > 'ten", 1),
		strings.Replace(cross, "X.volume", "X.volumé", 1),
		// After the WHERE.
		cross + " garbage",
		cross + ";;",
		cross + "; SELECT 1",
		cross + " AND",
		cross + " \xff",
		"EXPLAIN " + cross + " )",
		"EXPLAIN CREATE TABLE t (a INTEGER)",
	} {
		_, errS := shared.Prepare(sql)
		_, errF := fresh.Prepare(sql)
		if errS == nil || errF == nil {
			t.Errorf("accepted (shared %v, fresh %v):\n%s", errS, errF, sql)
			continue
		}
		if errS.Error() != errF.Error() {
			t.Errorf("error %q on the DB holding the pattern, %q on a fresh one:\n%s", errS, errF, sql)
		}
	}
}
