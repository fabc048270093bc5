package core

import (
	"fmt"
	"math/rand"
	"testing"

	"sqlts/internal/constraint"
	"sqlts/internal/logic"
	"sqlts/internal/pattern"
	"sqlts/internal/storage"
)

func onePriceSchema() *storage.Schema {
	return storage.MustSchema(storage.Column{Name: "price", Type: storage.TypeFloat})
}

// randomCorePattern builds structurally diverse random patterns for
// invariant checks.
func randomCorePattern(t testing.TB, r *rand.Rand) *pattern.Pattern {
	t.Helper()
	ops := []constraint.Op{constraint.Eq, constraint.Ne, constraint.Lt, constraint.Le, constraint.Gt, constraint.Ge}
	m := 1 + r.Intn(8)
	elems := make([]pattern.Element, m)
	for e := 0; e < m; e++ {
		var conds []pattern.Cond
		for k := 0; k < 1+r.Intn(2); k++ {
			op := ops[r.Intn(len(ops))]
			switch r.Intn(3) {
			case 0:
				conds = append(conds, pattern.FieldConst(0, pattern.Cur, op, float64(r.Intn(9))))
			case 1:
				conds = append(conds, pattern.FieldField(0, pattern.Cur, op, 0, pattern.Prev, float64(r.Intn(3)-1)))
			default:
				conds = append(conds, pattern.FieldScaled(0, pattern.Cur, op, []float64{0.9, 1, 1.1}[r.Intn(3)], 0, pattern.Prev))
			}
		}
		elems[e] = pattern.Element{Name: fmt.Sprintf("E%d", e), Star: r.Intn(2) == 0, Local: conds}
	}
	p, err := pattern.Compile(onePriceSchema(), elems, pattern.Options{PositiveColumns: []string{"price"}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestTablesInvariants checks the structural invariants of the computed
// tables on random patterns:
//
//	1 ≤ shift(j) ≤ j;  0 ≤ next(j) ≤ j - shift(j) + 1;
//	next(j) = 0 ⇔ shift(j) = j (plain patterns allow next = j-shift+1,
//	star tables never exceed j-shift);  matrix diagonals θ=1/0, φ=0.
func TestTablesInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 2000; trial++ {
		p := randomCorePattern(t, r)
		for _, tables := range []*Tables{Compute(p), ComputeForStream(p), ComputeSyntactic(p)} {
			for j := 1; j <= tables.M; j++ {
				sh, nx := tables.Shift[j], tables.Next[j]
				if sh < 1 || sh > j {
					t.Fatalf("trial %d: shift(%d) = %d out of range\n%s", trial, j, sh, tables.Explain())
				}
				if nx < 0 || nx > j-sh+1 {
					t.Fatalf("trial %d: next(%d) = %d out of range for shift %d\n%s", trial, j, nx, sh, tables.Explain())
				}
				if (nx == 0) != (sh == j) {
					t.Fatalf("trial %d: next(%d)=%d inconsistent with shift=%d\n%s", trial, j, nx, sh, tables.Explain())
				}
				if tables.SkipOK != nil && tables.SkipOK[j] {
					if nx != j-sh {
						t.Fatalf("trial %d: SkipOK[%d] with next %d != j-shift %d", trial, j, nx, j-sh)
					}
					if tables.Star[nx] {
						t.Fatalf("trial %d: SkipOK[%d] certifies a star element", trial, j)
					}
				}
			}
			for j := 1; j <= tables.M; j++ {
				if v := tables.Theta.At(j, j); v != logic.True && v != logic.False {
					t.Fatalf("trial %d: θ[%d][%d] = %v on the diagonal", trial, j, j, v)
				}
				if tables.Phi.At(j, j) == logic.True {
					t.Fatalf("trial %d: φ[%d][%d] = 1 (¬p ⇒ p) without tautology", trial, j, j)
				}
			}
		}
	}
}

// TestMatrixEntriesSemantics spot-checks θ/φ entries against brute-force
// evaluation over a grid of (prev, cur) pairs: a θ=1 entry means every
// pair satisfying p_j also satisfies p_k; θ=0 means no pair satisfies
// both; φ=1 means every pair failing p_j satisfies p_k; φ=0 means every
// pair failing p_j fails p_k.
func TestMatrixEntriesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(321))
	grid := []float64{0.5, 1, 1.5, 2, 3, 4, 5, 6, 7, 8, 9}
	for trial := 0; trial < 400; trial++ {
		p := randomCorePattern(t, r)
		m := ComputeMatrices(p)
		eval := func(elem int, prev, cur float64) bool {
			seq := []storage.Row{{storage.NewFloat(prev)}, {storage.NewFloat(cur)}}
			ctx := pattern.EvalContext{Seq: storage.RowSeq(seq), Pos: 1}
			return p.EvalElem(elem, &ctx)
		}
		for j := 1; j <= p.Len(); j++ {
			for k := 1; k <= j; k++ {
				th := m.Theta.At(j, k)
				ph := m.Phi.At(j, k)
				for _, pv := range grid {
					for _, cv := range grid {
						pj := eval(j-1, pv, cv)
						pk := eval(k-1, pv, cv)
						if th == logic.True && pj && !pk {
							t.Fatalf("trial %d: θ[%d][%d]=1 refuted at prev=%g cur=%g\npattern %s", trial, j, k, pv, cv, p)
						}
						if th == logic.False && pj && pk {
							t.Fatalf("trial %d: θ[%d][%d]=0 refuted at prev=%g cur=%g", trial, j, k, pv, cv)
						}
						if ph == logic.True && !pj && !pk {
							t.Fatalf("trial %d: φ[%d][%d]=1 refuted at prev=%g cur=%g", trial, j, k, pv, cv)
						}
						if ph == logic.False && !pj && pk {
							t.Fatalf("trial %d: φ[%d][%d]=0 refuted at prev=%g cur=%g\npattern %s θ=%v", trial, j, k, pv, cv, p, th)
						}
					}
				}
			}
		}
	}
}
