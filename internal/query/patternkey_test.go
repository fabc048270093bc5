package query

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sqlts/internal/testutil"
)

// keyStatements are the statements whose keys and patterns are checked
// here; the root package runs them through the serving path.
var keyStatements = testutil.KeyStatements

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
