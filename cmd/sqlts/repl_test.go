package main

import (
	"strings"
	"testing"

	"sqlts"
)

func TestREPLSession(t *testing.T) {
	db := sqlts.New()
	in := strings.NewReader(`
CREATE TABLE q (d DATE, p REAL);
INSERT INTO q VALUES ('2020-01-01', 1), ('2020-01-02', 2), ('2020-01-03', 1);
\tables
\counters
\exec naive
SELECT A.p FROM q
SEQUENCE BY d AS (A, B) WHERE B.p > A.p;
\exec bogus
\unknowncmd
SELECT nosuch FROM q;
\q
`)
	var out strings.Builder
	if err := repl(db, in, &out, sqlts.OPSExec, false); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"q (d DATE, p REAL) (3 rows)", // \tables
		"counters: on",
		"executor: naive",
		"(1 rows)",
		"pred-evals=",             // stats line
		"unknown executor",        // \exec bogus
		"unknown command",         // \unknowncmd
		"error:",                  // bad SELECT
		"end statements with ';'", // banner
	} {
		if !strings.Contains(got, want) {
			t.Errorf("REPL output missing %q:\n%s", want, got)
		}
	}
}

// TestREPLTimingStatsExplain covers the observability meta-commands:
// \timing (toggle and on/off forms), \stats output, \metrics exposition
// dump, and EXPLAIN ANALYZE passthrough.
func TestREPLTimingStatsExplain(t *testing.T) {
	db := sqlts.New()
	in := strings.NewReader(`
CREATE TABLE q (d DATE, p REAL);
INSERT INTO q VALUES ('2020-01-01', 1), ('2020-01-02', 2), ('2020-01-03', 1);
\timing on
\counters
SELECT A.p FROM q
SEQUENCE BY d AS (A, B) WHERE B.p > A.p;
EXPLAIN ANALYZE SELECT A.p FROM q SEQUENCE BY d AS (A, B) WHERE B.p > A.p;
\stats
\slowlog
\timing off
\timing
\timing bogus
\metrics
\q
`)
	var out strings.Builder
	if err := repl(db, in, &out, sqlts.OPSExec, false); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"timing: on",
		"timing: off",
		"Time: ",      // \timing on applied to the SELECT
		"pred-evals=", // \counters line
		"statement",   // \stats table header
		"select a.p from q sequence by d as (a, b) where (b.p > a.p)", // \stats row (normalized key)
		"slow-query log empty",    // \slowlog with no threshold set
		"QUERY PLAN",              // EXPLAIN ANALYZE passthrough
		"Naive comparison:",       // analyze comparison section
		"execute",                 // execution phase span
		`usage: \timing [on|off]`, // bad argument
		"sqlts_queries_total",     // \metrics exposition
		"sqlts_query_duration_seconds_bucket",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("REPL output missing %q:\n%s", want, got)
		}
	}
	// \timing off then \timing toggles back on.
	if !strings.Contains(got, "timing: on\n") {
		t.Errorf("toggle output missing:\n%s", got)
	}
}

// TestREPLFlightCommands covers the flight-recorder meta-commands:
// \queries lists the (empty) in-flight table, \kill validates its
// argument and reports a miss for unknown ids.
func TestREPLFlightCommands(t *testing.T) {
	db := sqlts.New()
	in := strings.NewReader("\\queries\n\\kill notanumber\n\\kill 424242\n\\q\n")
	var out strings.Builder
	if err := repl(db, in, &out, sqlts.OPSExec, false); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"0 in-flight queries", // \queries on an idle DB
		`usage: \kill <id>`,   // malformed id
		"no such in-flight",   // unknown id
	} {
		if !strings.Contains(got, want) {
			t.Errorf("REPL output missing %q:\n%s", want, got)
		}
	}
}

func TestREPLMultilineStatement(t *testing.T) {
	db := sqlts.New()
	in := strings.NewReader("CREATE TABLE t\n(a INT)\n;\n\\q\n")
	var out strings.Builder
	if err := repl(db, in, &out, sqlts.OPSExec, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "ok") {
		t.Errorf("multiline CREATE failed:\n%s", out.String())
	}
	if db.Table("t") == nil {
		t.Error("table not created")
	}
}

func TestParseExecKinds(t *testing.T) {
	ops, err1 := parseExec("ops")
	naive, err2 := parseExec("naive")
	if err1 != nil || err2 != nil || ops != sqlts.OPSExec || naive != sqlts.NaiveExec {
		t.Errorf("parseExec: ops %v %v, naive %v %v", ops, err1, naive, err2)
	}
	// The ablations are the experiments' (internal/bench).
	for _, s := range []string{"nope", "ops+skip", "ops-shift-only", "ops-no-counters", "auto", ""} {
		if _, err := parseExec(s); err == nil {
			t.Errorf("parseExec(%q) accepted", s)
		}
	}
}

// TestREPLCache covers the \cache meta-command and the cache note on
// the timing line for a repeated statement.
func TestREPLCache(t *testing.T) {
	db := sqlts.New()
	in := strings.NewReader(`
CREATE TABLE q (d DATE, p REAL);
INSERT INTO q VALUES ('2020-01-01', 1), ('2020-01-02', 2), ('2020-01-03', 1);
\timing on
SELECT A.p FROM q SEQUENCE BY d AS (A, B) WHERE B.p > A.p;
SELECT A.p FROM q SEQUENCE BY d AS (A, B) WHERE B.p > A.p;
INSERT INTO q VALUES ('2020-01-04', 3);
SELECT A.p FROM q SEQUENCE BY d AS (A, B) WHERE B.p > A.p;
\cache
\q
`)
	var out strings.Builder
	if err := repl(db, in, &out, sqlts.OPSExec, false); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"(plan: cached, partition: cached)",                      // timing note on the repeat
		"(plan: cached, partition: refreshed (1 of 1 clusters))", // and on the run after the INSERT
		"plan cache:",
		"partition cache:",
		"hit rate",
		"table q: version 2 (4 rows)", // one version bump per INSERT statement
	} {
		if !strings.Contains(got, want) {
			t.Errorf("REPL output missing %q:\n%s", want, got)
		}
	}
	// The cold first SELECT must not claim a cache hit.
	if strings.Count(got, "plan: cached") != 2 {
		t.Errorf("expected exactly two cached timing notes:\n%s", got)
	}
}

// TestREPLTimeout covers the \timeout meta-command: setting, showing,
// turning off, rejecting garbage — and an expired deadline surfacing as
// the typed error on the next statement.
func TestREPLTimeout(t *testing.T) {
	db := sqlts.New()
	in := strings.NewReader(`
CREATE TABLE q (d DATE, p REAL);
INSERT INTO q VALUES ('2020-01-01', 1), ('2020-01-02', 2), ('2020-01-03', 1);
\timeout 250ms
SELECT A.p FROM q SEQUENCE BY d AS (A, B) WHERE B.p > A.p;
\timeout
\timeout 1ns
SELECT A.p FROM q SEQUENCE BY d AS (A, B) WHERE B.p > A.p;
\timeout off
\timeout bogus
SELECT A.p FROM q SEQUENCE BY d AS (A, B) WHERE B.p > A.p;
\q
`)
	var out strings.Builder
	if err := repl(db, in, &out, sqlts.OPSExec, false); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"timeout: 250ms",
		"timeout: off",
		"deadline exceeded", // the 1ns deadline trips the typed error
		`usage: \timeout [duration|off]`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("REPL output missing %q:\n%s", want, got)
		}
	}
	// The 250ms-bounded SELECT and the final unbounded SELECT succeed.
	if strings.Count(got, "(1 rows)") != 2 {
		t.Errorf("expected two successful SELECTs:\n%s", got)
	}
}

// TestREPLWorkers covers the \workers meta-command: show, set, reject,
// and the bound riding along on statement execution.
func TestREPLWorkers(t *testing.T) {
	db := sqlts.New()
	in := strings.NewReader(`
CREATE TABLE q (d DATE, p REAL);
INSERT INTO q VALUES ('2020-01-01', 1), ('2020-01-02', 2), ('2020-01-03', 1);
\workers
\workers 2
SELECT A.p FROM q SEQUENCE BY d AS (A, B) WHERE B.p > A.p;
\workers -1
\workers 1
\workers 0
\q
`)
	var out strings.Builder
	if err := repl(db, in, &out, sqlts.OPSExec, false); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"workers: elastic",
		"workers: 2",
		"workers: serial",
		`usage: \workers [n]`,
		"(1 rows)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("REPL output missing %q:\n%s", want, got)
		}
	}
}
