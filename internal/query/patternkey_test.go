package query

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// keyStatements are the paper's queries the EXPLAIN goldens snapshot —
// Examples 1, 4, 8 and 10 — and three more shapes of WHERE.
var keyStatements = []string{
	`SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y, Z)
	 WHERE Y.price > 1.15 * X.price AND Z.price < 0.80 * Y.price`,
	`SELECT X.date FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y, Z, T, U)
	 WHERE X.name = 'IBM'
	   AND Y.price < X.price AND Z.price < Y.price
	   AND 40 < Z.price AND Z.price < 50
	   AND T.price > Z.price AND T.price < 52
	   AND U.price > T.price`,
	`SELECT X.name, FIRST(X).date, LAST(Z).date
	 FROM quote CLUSTER BY name SEQUENCE BY date AS (*X, *Y, *Z)
	 WHERE X.price > X.previous.price
	   AND Y.price < Y.previous.price
	   AND Z.price > Z.previous.price`,
	`SELECT X.next.date, X.next.price, S.previous.date, S.previous.price
	 FROM djia SEQUENCE BY date AS (X, *Y, *Z, *T, *U, *V, *W, *R, S)
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
	   AND S.price <= 1.02 * S.previous.price`,
	// A cross condition, and a disjunction.
	`SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, *Y, Z)
	 WHERE Y.price < Y.previous.price AND Z.price > 1.01 * X.price
	   AND (X.volume > 10 OR X.price < 3)`,
	// A constant conjunct that folds to false.
	`SELECT X.name FROM quote AS (X, Y) WHERE Y.price > X.price AND 1 > 2`,
}

// patternShape is what a compiled pattern is made of, as text: per element
// its name, star, local conditions and cross-condition keys.
func patternShape(c *Compiled) string {
	var b strings.Builder
	for _, e := range c.Pattern.Elems {
		fmt.Fprintf(&b, "%s star=%v", e.Name, e.Star)
		for _, cond := range e.Local {
			fmt.Fprintf(&b, " [%s]", cond)
		}
		for _, cc := range e.CrossConds {
			fmt.Fprintf(&b, " cross[%s]", cc.Key)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// selectOf parses sql, a SELECT or EXPLAIN [ANALYZE] SELECT.
func selectOf(t *testing.T, sql string) *SelectStmt {
	t.Helper()
	st, err := Parse(sql)
	if err != nil {
		t.Fatalf("%v\n%s", err, sql)
	}
	if ex, ok := st.(*ExplainStmt); ok {
		return ex.Sel
	}
	return st.(*SelectStmt)
}

// TestPatternKeyDeterminesPattern: statements whose FROM … WHERE token
// sequences are equal — whitespace, aliases, the SELECT list and EXPLAIN
// aside — analyse to the same pattern, and analysing one from another's
// analysis (AnalyzeOptions.Shared) gives what analysing it alone does; a
// WHERE that differs in one constant, operator or condition gets a
// different key. Plan sharing (sqlts's pattern cache) relies on all of it.
func TestPatternKeyDeterminesPattern(t *testing.T) {
	opts := AnalyzeOptions{PositiveColumns: []string{"price"}}
	for i, sql := range keyStatements {
		from := sql[strings.Index(sql, "FROM"):]
		variants := []string{
			sql,
			strings.Join(strings.Fields(sql), " "),
			strings.ReplaceAll(sql, " ", "\n\t  ") + ";",
			"SELECT X.price AS p, COUNT(X) AS n " + from,
			"SELECT X.name AS alias" + fmt.Sprint(i) + " " + from,
			"EXPLAIN " + sql,
			"EXPLAIN ANALYZE SELECT FIRST(X).date AS d " + from,
		}
		base := selectOf(t, sql)
		if base.PatternKey == "" {
			t.Fatalf("statement %d has no pattern key", i)
		}
		baseC := analyzeSelect(t, sql, opts)
		want := patternShape(baseC)
		shared := opts
		shared.Shared = baseC
		for _, v := range variants {
			sel := selectOf(t, v)
			if sel.PatternKey != base.PatternKey {
				t.Errorf("statement %d: variant's key differs:\n%s", i, v)
				continue
			}
			c, err := Analyze(sel, testSchema(t), opts)
			if err != nil {
				t.Fatalf("statement %d: %v\n%s", i, err, v)
			}
			if got := patternShape(c); got != want {
				t.Errorf("statement %d: equal keys, different patterns:\n%s\nvs\n%s", i, got, want)
			}
			if !reflect.DeepEqual(c.stars, baseC.stars) {
				t.Errorf("statement %d: equal keys, different stars", i)
			}
			// Starting from the base statement's analysis gives the same
			// SELECT list over the very same pattern.
			sc, err := Analyze(selectOf(t, v), testSchema(t), shared)
			if err != nil {
				t.Fatalf("statement %d, shared: %v\n%s", i, err, v)
			}
			if sc.Pattern != baseC.Pattern || sc.AlwaysEmpty() != c.AlwaysEmpty() ||
				!reflect.DeepEqual(sc.OutNames, c.OutNames) || !reflect.DeepEqual(sc.OutTypes, c.OutTypes) {
				t.Errorf("statement %d: the shared analysis differs:\n%s", i, v)
			}
		}
	}

	// Any change to FROM … WHERE is a different key.
	keys := map[string]string{}
	for _, sql := range []string{
		keyStatements[0],
		strings.Replace(keyStatements[0], "1.15", "1.16", 1),
		strings.Replace(keyStatements[0], "1.15", "1.150", 1),
		strings.Replace(keyStatements[0], "Y.price >", "Y.price >=", 1),
		strings.Replace(keyStatements[0], "CLUSTER BY name ", "", 1),
		strings.Replace(keyStatements[0], "AS (X, Y, Z)", "AS (X, *Y, Z)", 1),
		strings.Replace(keyStatements[0], "FROM quote", "FROM djia", 1),
		strings.Replace(keyStatements[1], "'IBM'", "'INTC'", 1),
		strings.Replace(keyStatements[1], "'IBM'", "'ibm'", 1),
		keyStatements[1],
	} {
		k := selectOf(t, sql).PatternKey
		if prev, dup := keys[k]; dup {
			t.Errorf("two statements share a key:\n%s\n%s", prev, sql)
		}
		keys[k] = sql
	}

	// A NUL inside a string literal could read as a token boundary: such a
	// statement gets no key.
	if k := selectOf(t, "SELECT X.name FROM quote AS (X) WHERE X.name = 'a\x00\x01b'").PatternKey; k != "" {
		t.Errorf("a literal with a NUL byte has key %q", k)
	}
}
