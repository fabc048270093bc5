package core

import "sqlts/internal/logic"

// node identifies an entry of the implication graph: row r (pattern
// element of the original pattern), column c (element of the shifted
// pattern), with 2 ≤ r ≤ m and 1 ≤ c < r (the strictly lower triangle of
// θ, excluding the main diagonal).
type node struct{ r, c int }

// starGraph is the implication graph G_P^j for a failure at element j:
// rows 2..j-1 take their values from θ, row j takes its values from φ.
// Arcs are derived on demand from the star flags and node values per the
// five transition rules of §5.1; arcs to or from a 0-valued node are
// dropped.
type starGraph struct {
	j    int // failing element; the graph's last row
	m    *Matrices
	star []bool // 1-indexed star flags (star[0] unused)
}

func newStarGraph(j int, m *Matrices, star []bool) *starGraph {
	return &starGraph{j: j, m: m, star: star}
}

// val returns the value of node (r, c): θ for rows above j, φ for row j.
func (g *starGraph) val(n node) logic.Value {
	if n.r == g.j {
		return g.m.Phi.At(n.r, n.c)
	}
	return g.m.Theta.At(n.r, n.c)
}

// inGraph reports whether (r, c) is a node of G_P^j at all.
func (g *starGraph) inGraph(n node) bool {
	return n.r >= 2 && n.r <= g.j && n.c >= 1 && n.c < n.r
}

// out returns the outgoing arcs of n, already filtered to targets that
// exist and are non-zero. A 0-valued source has no outgoing arcs. Nodes
// in the last row are terminal.
func (g *starGraph) out(n node) []node {
	if !g.inGraph(n) || n.r == g.j || g.val(n) == logic.False {
		return nil
	}
	starR, starC := g.star[n.r], g.star[n.c]
	var cands []node
	switch {
	case starR && starC:
		if g.val(n) == logic.True {
			// Rule 2: both stars, θ = 1 — every tuple satisfying p_r also
			// satisfies p_c, so the shifted star never ends first.
			cands = []node{{n.r + 1, n.c}, {n.r + 1, n.c + 1}}
		} else {
			// Rule 1: both stars, θ = U.
			cands = []node{{n.r, n.c + 1}, {n.r + 1, n.c}, {n.r + 1, n.c + 1}}
		}
	case !starR && !starC:
		// Rule 3: both plain — the cursors advance in lockstep.
		cands = []node{{n.r + 1, n.c + 1}}
	case starR && !starC:
		// Rule 4: original stays on its star or both advance.
		cands = []node{{n.r, n.c + 1}, {n.r + 1, n.c + 1}}
	default:
		// Rule 5: shifted stays on its star or both advance.
		cands = []node{{n.r + 1, n.c}, {n.r + 1, n.c + 1}}
	}
	arcs := cands[:0]
	for _, t := range cands {
		if g.inGraph(t) && g.val(t) != logic.False {
			arcs = append(arcs, t)
		}
	}
	return arcs
}

// reachesLastRow marks every node from which the last row of G_P^j is
// reachable, via a reverse traversal seeded with the non-zero last-row
// nodes (the paper's inverse-graph-with-root construction). The result
// maps nodes to true; last-row nodes themselves are included.
func (g *starGraph) reachesLastRow() map[node]bool {
	reached := make(map[node]bool)
	var stack []node
	for c := 1; c < g.j; c++ {
		n := node{g.j, c}
		if g.val(n) != logic.False {
			reached[n] = true
			stack = append(stack, n)
		}
	}
	// Reverse BFS: repeatedly find predecessors of reached nodes. The
	// graph has O(m²) nodes and out-degree ≤ 3, so scanning predecessors
	// via the forward rule is O(m²) per level and O(m³) overall in the
	// worst case, well within the paper's compile-time budget.
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range g.preds(t) {
			if !reached[p] {
				reached[p] = true
				stack = append(stack, p)
			}
		}
	}
	return reached
}

// preds returns the candidate predecessors of t: nodes whose out() set
// contains t. By the arc rules a predecessor differs from t by at most one
// step in row and column.
func (g *starGraph) preds(t node) []node {
	var out []node
	for _, p := range []node{{t.r - 1, t.c - 1}, {t.r - 1, t.c}, {t.r, t.c - 1}} {
		if !g.inGraph(p) || g.val(p) == logic.False {
			continue
		}
		for _, q := range g.out(p) {
			if q == t {
				out = append(out, p)
				break
			}
		}
	}
	return out
}

// starShiftNext computes shift(j) and next(j) for one failing element j of
// a pattern with star elements, per Definition 1 and the deterministic
// walk of §5.1.
//
// The third result, skipOK, marks an optimization beyond the paper (the
// star analogue of the plain-pattern case 2, next = j-shift+1): when the
// walk reaches the last row at a 1-valued φ node whose column element is
// plain, the failed input tuple is known to satisfy that element, so the
// runtime may consume it without re-testing and resume at the following
// element. The paper's star runtime always re-tests (next = j-shift);
// enable the skip with the engine.LastRowSkip variant.
func starShiftNext(j int, m *Matrices, star []bool) (shift, next int, skipOK bool) {
	if j == 1 {
		return 1, 0, false
	}
	g := newStarGraph(j, m, star)
	reached := g.reachesLastRow()

	// σ(j) = { s | a path exists from θ[s+1][1] to the last row }, over
	// start nodes strictly above the last row.
	shift = 0
	for s := 1; s <= j-2; s++ {
		if reached[node{s + 1, 1}] {
			shift = s
			break
		}
	}
	if shift == 0 {
		// Definition 1, cases 2 and 3.
		if m.Phi.At(j, 1) != logic.False {
			shift = j - 1
		} else {
			return j, 0, false
		}
	}

	// next(j): walk from θ[shift+1][1] while the evolution of the shifted
	// alignment is forced and certain. The paper's walk advances through
	// "deterministic" nodes (single arc to a 1-valued node); we tighten
	// it in two ways that the runtime's count-rebasing requires for
	// soundness (and that the property tests against the naive executor
	// enforce):
	//
	//   - the current node itself must have value 1 — its column's
	//     predicate is otherwise not certified on the overlap (the
	//     paper's definition never inspects the start node's value, which
	//     would let an Unknown θ[shift+1][1] be skipped);
	//   - a plain (non-star) column may only be certified by a plain row:
	//     a star row's span can cover several tuples, while the plain
	//     shifted element consumes exactly one, so equating the two spans
	//     in count'[c] = count[shift+c] - count[shift] would desync the
	//     alignment (a star column is fine either way — its one-or-more
	//     span matches the row span, and the single-diagonal-arc
	//     condition below certifies that greedy consumption closes the
	//     span exactly at the row boundary, because the stay-on-star arc
	//     must have been dropped by a 0 entry);
	//   - the single arc must be the diagonal one — a forced vertical or
	//     horizontal arc means the shifted elements do not align
	//     one-to-one with the original elements, invalidating the
	//     count(shift+t)-based rollback arithmetic.
	//
	// The first node that fails these checks gives next(j) = its column;
	// reaching the last row means nothing before element j-shift needs
	// re-testing.
	cur := node{shift + 1, 1}
	for {
		if cur.r == g.j {
			next = j - shift
			skipOK = cur.c == next && !star[next] && g.val(cur) == logic.True
			return shift, next, skipOK
		}
		if g.val(cur) != logic.True {
			return shift, cur.c, false
		}
		if !star[cur.c] && star[cur.r] {
			return shift, cur.c, false
		}
		arcs := g.out(cur)
		if len(arcs) != 1 || arcs[0] != (node{cur.r + 1, cur.c + 1}) {
			return shift, cur.c, false
		}
		cur = arcs[0]
	}
}
