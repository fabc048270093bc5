package query

import (
	"strings"
	"testing"
)

// benchDoubleBottom is the text of a cold double-bottom statement (paper
// Example 10 at 2 %, ≈ 1 KB and ≈ 200 tokens) laid out as the serving
// benchmark's cold statements are.
const benchDoubleBottom = `
		SELECT X.next.date AS start_date_17, X.next.price AS start_price,
		       S.previous.date AS end_date, S.previous.price AS end_price
		FROM djia
		  SEQUENCE BY date
		  AS (X, *Y, *Z, *T, *U, *V, *W, *R, S)
		WHERE X.price >= 0.98 * X.previous.price
		  AND Y.price < 0.98 * Y.previous.price
		  AND 0.98 * Z.previous.price < Z.price AND Z.price < 1.02 * Z.previous.price
		  AND T.price > 1.02 * T.previous.price
		  AND 0.98 * U.previous.price < U.price AND U.price < 1.02 * U.previous.price
		  AND V.price < 0.98 * V.previous.price
		  AND 0.98 * W.previous.price < W.price AND W.price < 1.02 * W.previous.price
		  AND R.price > 1.02 * R.previous.price
		  AND S.price <= 1.02 * S.previous.price`

// benchInsert is an 8-row INSERT as an ingesting client sends one.
const benchInsert = `INSERT INTO ticks VALUES ('s0421', '1970-01-11', 101.84120038316413), ` +
	`('s1783', '1970-01-11', 97.0213847116263), ('s0042', '1970-01-12', 103.5522193320977), ` +
	`('s4410', '1970-01-11', 99.11876235447102), ('s2307', '1970-01-11', 100.9327770532118), ` +
	`('s0421', '1970-01-12', 102.7717613906811), ('s3999', '1970-01-11', 98.45031972258426), ` +
	`('s0008', '1970-01-11', 100.00422135081727)`

var benchTexts = []struct{ name, src string }{
	{"double-bottom", benchDoubleBottom},
	{"insert-8", benchInsert},
}

var sinkToks int

// BenchmarkLex lexes each text as a parse does, into the token slice of
// a recycled parser (Lex adds a copy of the tokens as []Token).
func BenchmarkLex(b *testing.B) {
	for _, tc := range benchTexts {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(tc.src)))
			for i := 0; i < b.N; i++ {
				p := newParser()
				if err := p.lex(tc.src); err != nil {
					b.Fatal(err)
				}
				sinkToks = len(p.toks)
				p.release()
			}
		})
	}
}

var sinkStmt Stmt

// BenchmarkParse parses each text whole; "double-bottom/shared" parses the
// double bottom through a tail hook that holds its FROM … WHERE, which is
// what a statement over a cached pattern pays.
func BenchmarkParse(b *testing.B) {
	for _, tc := range benchTexts {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st, err := Parse(tc.src)
				if err != nil {
					b.Fatal(err)
				}
				sinkStmt = st
			}
		})
	}
	b.Run("double-bottom/shared", func(b *testing.B) {
		st, err := Parse(strings.Replace(benchDoubleBottom, "start_date_17", "start_date", 1))
		if err != nil {
			b.Fatal(err)
		}
		held := st.(*SelectStmt)
		tail := func(key []byte) *SelectStmt {
			if string(key) == held.PatternKey {
				return held
			}
			return nil
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st, err := ParseShared(benchDoubleBottom, tail)
			if err != nil {
				b.Fatal(err)
			}
			if st.(*SelectStmt).Where != held.Where {
				b.Fatal("the tail was not taken")
			}
			sinkStmt = st
		}
	})
}
