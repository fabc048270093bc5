package query

import (
	"strings"
	"testing"

	"sqlts/internal/storage"
)

// FuzzParse: the parser must never panic and, when it accepts input, the
// rendered form must re-parse to the same rendering (a fixed point).
// Through ParseShared with a lookup that finds nothing, every input gives
// what Parse gives, error text included; with one that finds the
// statement's own FROM … WHERE, a SELECT is offered exactly its
// PatternKey and comes out rendering the same.
func FuzzParse(f *testing.F) {
	seeds := []string{
		`SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y, Z) WHERE Y.price > 1.15 * X.price`,
		`SELECT FIRST(X).date, AVG(Y.price) FROM t AS (*X, *Y) WHERE X.price > X.previous.price`,
		`CREATE TABLE t (a VARCHAR(8), b DATE, c REAL)`,
		`INSERT INTO t VALUES ('x', '1999-01-25', 1.5), (NULL, NULL, NULL)`,
		`SELECT a FROM t WHERE a + 2 * b < -c - 1 OR NOT a = 'x''y'`,
		`SELECT Z.previous->date FROM q AS (X, *Y, Z) WHERE Y.price < 0.98 * Y.previous.price`,
		"SELECT -- comment\na FROM t",
		"", ";", "(", "'", "SELECT", "***", "1e309",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		st, err := Parse(src)
		st0, err0 := ParseShared(src, func([]byte) *SelectStmt { return nil })
		if (err == nil) != (err0 == nil) || err != nil && err.Error() != err0.Error() {
			t.Fatalf("%q: Parse gives %v, ParseShared missing %v", src, err, err0)
		}
		if err != nil {
			return
		}
		r1 := Render(st)
		if r0 := Render(st0); r0 != r1 {
			t.Fatalf("%q: Parse renders %q, ParseShared missing %q", src, r1, r0)
		}
		sel, _ := st.(*SelectStmt)
		if ex, ok := st.(*ExplainStmt); ok {
			sel = ex.Sel
		}
		if sel != nil {
			offered := 0
			st2, err := ParseShared(src, func(key []byte) *SelectStmt {
				offered++
				if string(key) != sel.PatternKey {
					t.Fatalf("%q: offered key %q, PatternKey %q", src, key, sel.PatternKey)
				}
				return sel
			})
			if err != nil {
				t.Fatalf("%q: a shared tail fails: %v", src, err)
			}
			want := 0 // a statement without a key is never offered
			if sel.PatternKey != "" {
				want = 1
			}
			if offered != want {
				t.Fatalf("%q: offered the tail %d times, want %d", src, offered, want)
			}
			if r2 := Render(st2); r2 != r1 {
				t.Fatalf("%q: with its own tail renders %q, want %q", src, r2, r1)
			}
		}
		st2, err := Parse(r1)
		if err != nil {
			t.Fatalf("rendered form does not re-parse: %q → %q: %v", src, r1, err)
		}
		if r2 := Render(st2); r1 != r2 {
			t.Fatalf("render not a fixed point: %q vs %q", r1, r2)
		}
	})
}

// FuzzAnalyze: the analyzer must never panic on parseable SELECTs; it may
// reject them with an error.
func FuzzAnalyze(f *testing.F) {
	seeds := []string{
		`SELECT X.price FROM t AS (X, *Y) WHERE Y.price < 0.98 * Y.previous.price`,
		`SELECT AVG(Y.price) FROM t AS (X, *Y) WHERE Y.price > X.price`,
		`SELECT a FROM t WHERE a > 1`,
		`SELECT X.price FROM t AS (X) WHERE X.price < 10 OR X.price > 90`,
		`SELECT LAST(Y).price FROM t CLUSTER BY name SEQUENCE BY date AS (X, *Y, Z) WHERE Z.price > LAST(Y).price`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	schema := storage.MustSchema(
		storage.Column{Name: "name", Type: storage.TypeString},
		storage.Column{Name: "date", Type: storage.TypeDate},
		storage.Column{Name: "price", Type: storage.TypeFloat},
		storage.Column{Name: "a", Type: storage.TypeInt},
	)
	f.Fuzz(func(t *testing.T, src string) {
		st, err := Parse(src)
		if err != nil {
			return
		}
		sel, ok := st.(*SelectStmt)
		if !ok {
			return
		}
		// Must not panic; errors are fine.
		c, err := Analyze(sel, schema, AnalyzeOptions{PositiveColumns: []string{"price"}})
		if err != nil {
			if !strings.Contains(err.Error(), "sql-ts") && !strings.Contains(err.Error(), "pattern") {
				t.Fatalf("error without package prefix: %v", err)
			}
			return
		}
		_ = c.AlwaysEmpty()
	})
}
