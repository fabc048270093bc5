package sqlts

import (
	"errors"
	"strings"
	"testing"

	"sqlts/internal/storage"
)

// quoteDB builds the paper's quote table with a handful of hand-crafted
// series (Figure 1 uses INTC and IBM).
func quoteDB(t testing.TB) *DB {
	t.Helper()
	db := New()
	db.MustExec(`CREATE TABLE quote (name VARCHAR(8), date DATE, price REAL)`)
	if err := db.DeclarePositive("quote", "price"); err != nil {
		t.Fatal(err)
	}
	return db
}

func insertSeries(t testing.TB, db *DB, name string, startDay int, prices ...float64) {
	t.Helper()
	tbl := db.Table("quote")
	for i, p := range prices {
		tbl.MustInsert(
			storage.NewString(name),
			storage.NewDateDays(int64(startDay+i)),
			storage.NewFloat(p),
		)
	}
}

// TestExample1 runs the paper's first query: a 15% one-day rise followed
// by a 20% drop, per stock.
func TestExample1(t *testing.T) {
	db := quoteDB(t)
	// INTC: 60 → 70 (+16.7%) → 55 (-21.4%): matches.
	insertSeries(t, db, "INTC", 10000, 60, 70, 55, 56)
	// IBM: gentle moves, no match.
	insertSeries(t, db, "IBM", 10000, 81, 80.5, 84, 83)

	res, err := db.Query(`
		SELECT X.name
		FROM quote
		  CLUSTER BY name
		  SEQUENCE BY date
		  AS (X, Y, Z)
		WHERE Y.price > 1.15 * X.price
		  AND Z.price < 0.80 * Y.price`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "INTC" {
		t.Fatalf("rows = %v, want one INTC row", res.Rows)
	}
	if res.Columns[0] != "X.name" {
		t.Errorf("column name = %q", res.Columns[0])
	}
}

// TestExample2 runs the maximal-falling-period query with its star and
// cross condition (the drop must exceed 50% of X's price).
func TestExample2(t *testing.T) {
	db := quoteDB(t)
	// 100, then falls 90 80 70 45 (drop below 50), then rises.
	insertSeries(t, db, "ACME", 10000, 100, 90, 80, 70, 45, 50, 55)

	res, err := db.Query(`
		SELECT X.name, X.date AS start_date, Z.previous.date AS end_date
		FROM quote
		  CLUSTER BY name
		  SEQUENCE BY date
		  AS (X, *Y, Z)
		WHERE Y.price < Y.previous.price
		  AND Z.previous.price < 0.5 * X.price`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v, want 1", res.Rows)
	}
	row := res.Rows[0]
	if row[0].Str() != "ACME" {
		t.Errorf("name = %v", row[0])
	}
	if row[1].DateDays() != 10000 { // X = first tuple (100)
		t.Errorf("start_date = %v (days %d), want day 10000", row[1], row[1].DateDays())
	}
	if row[2].DateDays() != 10004 { // Z.previous = last falling tuple (45)
		t.Errorf("end_date = %v (days %d), want day 10004", row[2], row[2].DateDays())
	}
	if res.Columns[1] != "start_date" || res.Columns[2] != "end_date" {
		t.Errorf("columns = %v", res.Columns)
	}
}

// TestExample3KMPStyle runs the constant-equality query of Example 3.
func TestExample3KMPStyle(t *testing.T) {
	db := quoteDB(t)
	insertSeries(t, db, "AAA", 10000, 9, 10, 11, 15, 12)
	insertSeries(t, db, "BBB", 10000, 10, 11, 14, 15)

	res, err := db.Query(`
		SELECT X.name
		FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y, Z)
		WHERE X.price = 10 AND Y.price = 11 AND Z.price = 15`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "AAA" {
		t.Fatalf("rows = %v, want one AAA row", res.Rows)
	}
}

// TestExample4 runs the two-drops-two-rises query with its range bounds,
// including the name='IBM' cluster filter.
func TestExample4(t *testing.T) {
	db := quoteDB(t)
	// IBM: 55 50 45 57: drops to 45 (in 40..50), rise to 57 — but 57 > 52
	// fails; then a clean match later: 50 48 44 49 51.
	insertSeries(t, db, "IBM", 10000, 55, 50, 48, 44, 49, 51, 60)
	// Same shape under another name must not match.
	insertSeries(t, db, "INTC", 10000, 55, 50, 48, 44, 49, 51, 60)

	res, err := db.Query(`
		SELECT X.date AS start_date, X.price, U.date AS end_date, U.price
		FROM quote
		  CLUSTER BY name
		  SEQUENCE BY date
		  AS (X, Y, Z, T, U)
		WHERE X.name = 'IBM'
		  AND Y.price < X.price
		  AND Z.price < Y.price
		  AND 40 < Z.price AND Z.price < 50
		  AND T.price > Z.price AND T.price < 52
		  AND U.price > T.price`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v, want 1", res.Rows)
	}
	if res.Rows[0][1].Float() != 50 || res.Rows[0][3].Float() != 51 {
		t.Errorf("row = %v, want X.price=50 U.price=51", res.Rows[0])
	}
}

// TestExample8 runs the rise-fall-rise star query with FIRST/LAST span
// accessors.
func TestExample8(t *testing.T) {
	db := quoteDB(t)
	insertSeries(t, db, "ACME", 10000, 20, 21, 23, 24, 22, 20, 18, 15, 14, 18, 21)

	res, err := db.Query(`
		SELECT X.name, FIRST(X).date AS sdate, LAST(Z).date AS edate
		FROM quote
		  CLUSTER BY name
		  SEQUENCE BY date
		  AS (*X, *Y, *Z)
		WHERE X.price > X.previous.price
		  AND Y.price < Y.previous.price
		  AND Z.price > Z.previous.price`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v, want 1", res.Rows)
	}
	row := res.Rows[0]
	// Default policy: the first tuple cannot satisfy a previous-referencing
	// predicate, so *X starts at day 10001 and *Z ends at the last day.
	if row[1].DateDays() != 10001 || row[2].DateDays() != 10010 {
		t.Errorf("sdate/edate = %d/%d, want 10001/10010", row[1].DateDays(), row[2].DateDays())
	}
}

// TestExample10DoubleBottom runs the §7 relaxed double-bottom query on a
// hand-crafted series containing exactly one double bottom.
func TestExample10DoubleBottom(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE djia (date DATE, price REAL)`)
	if err := db.DeclarePositive("djia", "price"); err != nil {
		t.Fatal(err)
	}
	tbl := db.Table("djia")
	// flat, drop, flat, rise, flat, drop, flat, rise, tail
	prices := []float64{
		100, 100.5, // X and the flat prefix
		95, 90, // *Y: falls > 2%
		90.5, 89.9, // *Z: flat (within ±2%)
		95, 99, // *T: rises > 2%
		99.5, 99.1, // *U: flat
		94, 90, // *V: falls
		90.2, 89.8, // *W: flat
		95, 99, // *R: rises
		99.5, // S: ends the pattern (move ≤ 2%)
	}
	for i, p := range prices {
		tbl.MustInsert(storage.NewDateDays(int64(20000+i)), storage.NewFloat(p))
	}

	q, err := db.Prepare(doubleBottomSQL)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v, want 1 double bottom", res.Rows)
	}

	// The naive executor must agree.
	nres, err := q.RunWith(RunOptions{Executor: NaiveExec})
	if err != nil {
		t.Fatal(err)
	}
	if len(nres.Rows) != len(res.Rows) {
		t.Fatalf("naive found %d rows, ops %d", len(nres.Rows), len(res.Rows))
	}
	if nres.Stats.PredEvals < res.Stats.PredEvals {
		t.Errorf("naive used fewer evals (%d) than OPS (%d)", nres.Stats.PredEvals, res.Stats.PredEvals)
	}
}

// doubleBottomSQL is the paper's Example 10 query verbatim (modulo
// whitespace).
const doubleBottomSQL = `
	SELECT X.next.date, X.next.price, S.previous.date, S.previous.price
	FROM djia
	  SEQUENCE BY date
	  AS (X, *Y, *Z, *T, *U, *V, *W, *R, S)
	WHERE X.price >= 0.98 * X.previous.price
	  AND Y.price < 0.98 * Y.previous.price
	  AND 0.98 * Z.previous.price < Z.price
	  AND Z.price < 1.02 * Z.previous.price
	  AND T.price > 1.02 * T.previous.price
	  AND 0.98 * U.previous.price < U.price
	  AND U.price < 1.02 * U.previous.price
	  AND V.price < 0.98 * V.previous.price
	  AND 0.98 * W.previous.price < W.price
	  AND W.price < 1.02 * W.previous.price
	  AND R.price > 1.02 * R.previous.price
	  AND S.price <= 1.02 * S.previous.price`

// TestDisjunctiveConditions runs a query whose star element carries an
// OR condition (a run of volatile days — moves bigger than 2% either
// way), exercising the §8 disjunctive-conditions extension end to end.
func TestDisjunctiveConditions(t *testing.T) {
	db := quoteDB(t)
	// calm, calm, +5%, -4%, +3%, calm, calm
	insertSeries(t, db, "ACME", 10000, 100, 100.5, 105.5, 101.3, 104.3, 104.8, 105.0)

	q, err := db.Prepare(`
		SELECT FIRST(Y).date AS vstart, LAST(Y).date AS vend
		FROM quote
		  CLUSTER BY name
		  SEQUENCE BY date
		  AS (X, *Y, Z)
		WHERE X.price < 1.02 * X.previous.price AND X.price > 0.98 * X.previous.price
		  AND (Y.price < 0.98 * Y.previous.price OR Y.price > 1.02 * Y.previous.price)
		  AND Z.price < 1.02 * Z.previous.price AND Z.price > 0.98 * Z.previous.price`)
	if err != nil {
		t.Fatal(err)
	}
	// The optimizer should see the OR as a two-disjunct formula that the
	// calm elements exclude.
	pat := q.Pattern()
	if len(pat.Elems[1].Sys.Ds) != 2 {
		t.Errorf("Y should have a 2-disjunct formula: %s", pat.Elems[1].Sys)
	}
	if !pat.Elems[0].Sys.Excludes(pat.Elems[1].Sys) {
		t.Errorf("calm X should exclude volatile Y: %s vs %s", pat.Elems[0].Sys, pat.Elems[1].Sys)
	}

	res, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v, want 1 volatile run", res.Rows)
	}
	if res.Rows[0][0].DateDays() != 10002 || res.Rows[0][1].DateDays() != 10004 {
		t.Errorf("volatile run = %v..%v, want days 10002..10004", res.Rows[0][0], res.Rows[0][1])
	}
	// Naive agrees.
	nres, err := q.RunWith(RunOptions{Executor: NaiveExec})
	if err != nil {
		t.Fatal(err)
	}
	if len(nres.Rows) != 1 {
		t.Fatalf("naive rows = %v", nres.Rows)
	}
}

// TestExplain smoke-tests plan rendering through the public API.
func TestExplain(t *testing.T) {
	db := quoteDB(t)
	insertSeries(t, db, "IBM", 10000, 1, 2, 3)
	q, err := db.Prepare(`
		SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, *Y, Z)
		WHERE Y.price < Y.previous.price AND Z.price > 10`)
	if err != nil {
		t.Fatal(err)
	}
	out := q.Explain()
	for _, want := range []string{"pattern (X, *Y, Z)", "cluster by name", "sequence by date", "theta =", "shift :"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
}

// TestPlainSelect runs a pattern-less SQL query through the same API.
func TestPlainSelect(t *testing.T) {
	db := quoteDB(t)
	insertSeries(t, db, "IBM", 10000, 81, 80.5, 84)
	insertSeries(t, db, "INTC", 10000, 60, 63.5, 62)

	res, err := db.Query(`SELECT name, price FROM quote WHERE price > 63`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 { // 81, 80.5, 84, 63.5
		t.Fatalf("rows = %v, want 4", res.Rows)
	}
}

// TestSQLInsertAndDates checks the SQL DML path with date literals.
func TestSQLInsertAndDates(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE quote (name VARCHAR(8), date DATE, price INTEGER)`)
	db.MustExec(`
		INSERT INTO quote VALUES
		  ('INTC', '1999-01-25', 60),
		  ('INTC', '1/26/99', 64),
		  ('INTC', '1999-01-27', 62)`)
	res, err := db.Query(`SELECT date, price FROM quote WHERE name = 'INTC'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	if got := res.Rows[1][0].String(); got != "1999-01-26" {
		t.Errorf("second date = %s, want 1999-01-26", got)
	}
}

// TestNonASCIIColumn: a table whose names are not ASCII is created,
// filled and searched through SQL, and a name is found in any case.
func TestNonASCIIColumn(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE cours (société VARCHAR(8), jour DATE, prix_é REAL)`)
	db.MustExec(`
		INSERT INTO cours VALUES
		  ('Ærø', '1999-01-25', 60), ('Ærø', '1999-01-26', 69), ('Ærø', '1999-01-27', 50),
		  ('Öl', '1999-01-25', 10), ('Öl', '1999-01-26', 11), ('Öl', '1999-01-27', 12)`)
	res, err := db.Query(`
		SELECT X.société, Y.jour, Z.PRIX_É FROM cours CLUSTER BY SOCIÉTÉ SEQUENCE BY jour
		AS (X, Y, Z) WHERE Y.prix_é > 1.10 * X.prix_é AND Z.prix_é < 0.8 * Y.prix_é`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "Ærø" || res.Rows[0][1].String() != "1999-01-26" ||
		res.Rows[0][2].Float() != 50 {
		t.Fatalf("rows = %v, want one row (Ærø, 1999-01-26, 50)", res.Rows)
	}
	if got := strings.Join(res.Columns, ","); got != "X.société,Y.jour,Z.PRIX_É" {
		t.Errorf("columns = %s", got)
	}
}

// TestOverlapOption checks SkipToNextRow through the public API.
func TestOverlapOption(t *testing.T) {
	db := quoteDB(t)
	insertSeries(t, db, "AAA", 10000, 1, 2, 3, 4)

	q, err := db.Prepare(`
		SELECT X.price FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y)
		WHERE Y.price > X.price`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 { // [1,2] and [3,4] under left-maximality
		t.Fatalf("non-overlap rows = %v, want 2", res.Rows)
	}
	over, err := q.RunWith(RunOptions{Overlap: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(over.Rows) != 3 { // [1,2] [2,3] [3,4]
		t.Fatalf("overlap rows = %v, want 3", over.Rows)
	}
}

// TestErrorMessages exercises the user-facing error paths.
func TestErrorMessages(t *testing.T) {
	db := quoteDB(t)
	cases := []struct {
		sql  string
		frag string
	}{
		{`SELECT * FROM`, "expected"},
		{`SELECT X.name FROM nosuch AS (X, Y) WHERE Y.price > X.price`, "no table"},
		{`SELECT X.name FROM quote AS (X, X) WHERE X.price > 0`, "duplicate pattern variable"},
		{`SELECT X.name FROM quote AS (X, Y) WHERE Q.price > X.price`, "unknown pattern variable"},
		{`SELECT X.name FROM quote AS (X, Y) WHERE X.nosuch > 1`, "no column"},
		{`SELECT X.name FROM quote AS (X, Y) WHERE X.next.price > 1`, "next navigation"},
		{`SELECT X.price FROM quote AS (*X, Y) WHERE Y.price > X.price`, "star variable"},
		{`SELECT X.name FROM quote CLUSTER BY nosuch AS (X, Y) WHERE X.price > 1`, "no column"},
	}
	for _, c := range cases {
		_, err := db.Prepare(c.sql)
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Prepare(%q) error = %v, want containing %q", c.sql, err, c.frag)
		}
	}
	if err := db.Exec(`DELETE FROM quote`); err == nil {
		t.Error("Exec(DELETE) should fail")
	}
	if err := db.Exec(`CREATE TABLE quote (name VARCHAR(8))`); err == nil {
		t.Error("duplicate CREATE TABLE should fail")
	}
}

// TestResultFormat smoke-tests the text table renderer.
func TestResultFormat(t *testing.T) {
	db := quoteDB(t)
	insertSeries(t, db, "IBM", 10000, 81, 90)
	res, err := db.Query(`SELECT name, price FROM quote`)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.Format(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "name") || !strings.Contains(out, "IBM") {
		t.Errorf("Format output:\n%s", out)
	}
}

// TestCSVRoundTrip loads a table from CSV through the public API.
func TestCSVRoundTrip(t *testing.T) {
	schema := storage.MustSchema(
		storage.Column{Name: "date", Type: storage.TypeDate},
		storage.Column{Name: "price", Type: storage.TypeFloat},
	)
	csv := "date,price\n1999-01-25,60\n1999-01-26,63.5\n"
	db := New()
	if err := db.LoadCSV("djia", schema, strings.NewReader(csv)); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT price FROM djia WHERE price > 60`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Float() != 63.5 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// TestNonFiniteConstantIsATypedError pins the fix for a folded constant
// that is no rational: 1e308 * 10 is +Inf, which used to reach the exact
// solver and panic inside Query. Every shape the analyzer can hand the
// solver such a constant in is an error of the statement.
func TestNonFiniteConstantIsATypedError(t *testing.T) {
	db := quoteDB(t)
	insertSeries(t, db, "INTC", 10000, 60, 70, 55, 56)
	for _, where := range []string{
		`X.price < 1e308 * 10 AND Y.price > 1`,
		`X.price > -1e308 * 10 AND Y.price > 1`,
		`X.price < Y.price + 1e308 * 10`,
		`X.price < 1e308 * 10 - 1e308 * 10 AND Y.price > 1`,
	} {
		_, err := db.Query(`SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y) WHERE ` + where)
		if !errors.Is(err, ErrNonFiniteConstant) {
			t.Errorf("WHERE %s: err = %v, want ErrNonFiniteConstant", where, err)
		}
	}
	// Statements that keep such a constant away from the solver (a huge
	// finite bound; an infinite coefficient, which the analyzer leaves to
	// the evaluator or turns into the ratio bound 1/Inf = 0) just run.
	for _, where := range []string{
		`X.price < 1e308 AND Y.price > 1`,
		`Y.price < 1e308 * 10 * Y.previous.price`,
		`1e-320 * Y.previous.price < Y.price`,
	} {
		res, err := db.Query(`SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y) WHERE ` + where)
		if err != nil || len(res.Rows) != 2 {
			t.Errorf("WHERE %s: rows = %v, err = %v, want 2 rows", where, res, err)
		}
	}
}
