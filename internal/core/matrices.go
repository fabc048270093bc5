// Package core implements the compile-time side of the OPS (Optimized
// Pattern Search) algorithm from Sadri & Zaniolo, "Optimization of
// Sequence Queries in Database Systems" (PODS 2001): the three-valued
// positive (θ) and negative (φ) precondition matrices, the shift matrix S
// and shift/next arrays for plain patterns (§4.2), and the implication
// graphs G_P and G_P^j with the graph-based shift/next computation for
// patterns containing star elements (§5.1).
//
// Soundness note for predicates referencing the sequence predecessor: the
// matrices are computed as if every tuple had a predecessor. At runtime a
// predecessor can be missing only for the first tuple of a cluster, and
// the optimizer's inferences (θ entries with j ≥ 2, φ rows with j ≥ 2)
// are only ever applied to input positions at least one past a match
// start, i.e. positions that do have a predecessor; failures at the very
// first tuple roll back through shift(1) = 1, next(1) = 0, which uses no
// matrix information. Cross (alignment-dependent) conditions are excluded
// from certainty in both directions: they can never make an entry 1, and
// only alignment-independent parts may make an entry 0.
package core

import (
	"sqlts/internal/constraint"
	"sqlts/internal/logic"
	"sqlts/internal/pattern"
)

// Matrices holds the θ and φ precondition matrices for a pattern, both
// m×m lower-triangular and 1-indexed like the paper.
type Matrices struct {
	Theta *logic.TriMatrix
	Phi   *logic.TriMatrix
}

// ComputeMatrices derives θ and φ from the pattern's per-element
// constraint systems using the GSW implication engine:
//
//	θ[j][k] = 1 if p_j ⇒ p_k and p_j ≢ F; 0 if p_j ⇒ ¬p_k; U otherwise
//	φ[j][k] = 1 if ¬p_j ⇒ p_k; 0 if ¬p_j ⇒ ¬p_k and p_j ≢ T; U otherwise
//
// Each element's predicate is closed once (constraint.Prepare); the m²
// entries are then lookups in those closures plus one joint closure per
// exclusion test.
func ComputeMatrices(p *pattern.Pattern) *Matrices {
	m := p.Len()
	preds := make([]*constraint.Formula, m)
	for i := range p.Elems {
		preds[i] = p.Elems[i].Sys
	}
	var out *Matrices
	constraint.Prepare(preds, func(ps []*constraint.Prepared) {
		es := make([]elemPred, m)
		for i := range es {
			es[i] = elemPred{Prepared: ps[i], cross: p.Elems[i].HasCross()}
		}
		out = &Matrices{Theta: logic.NewTriMatrix(m, logic.Unknown), Phi: logic.NewTriMatrix(m, logic.Unknown)}
		for j := 1; j <= m; j++ {
			for k := 1; k <= j; k++ {
				out.Theta.Set(j, k, thetaEntry(&es[j-1], &es[k-1]))
				out.Phi.Set(j, k, phiEntry(&es[j-1], &es[k-1]))
			}
		}
	})
	return out
}

// elemPred is one element's prepared analyzable predicate L_x and whether
// the element also has a cross (alignment-dependent) part.
type elemPred struct {
	*constraint.Prepared
	cross bool
}

// thetaEntry computes one θ entry. With L_x the alignment-independent
// part of p_x and cross_x the rest:
//
//   - p_j ⇒ ¬p_k is certified by L_j ∧ L_k unsatisfiable (sound because
//     p_j ∧ p_k entails L_j ∧ L_k);
//   - p_j ⇒ p_k is certified by L_j ⇒ L_k, which requires p_k to have no
//     cross part (a cross condition's truth under the shifted alignment
//     cannot be predicted);
//   - the p_j ≢ F guard is checked on L_j (if cross conditions make p_j
//     unsatisfiable anyway, p_j never succeeds and the entry is unused).
func thetaEntry(ej, ek *elemPred) logic.Value {
	if ej.Excludes(ek.Prepared) {
		return logic.False
	}
	if !ek.cross && ej.Satisfiable() && ej.Implies(ek.Prepared) {
		return logic.True
	}
	return logic.Unknown
}

// phiEntry computes one φ entry. When p_j has a cross part, its failure
// tells us nothing about L_j, so the premise ¬p_j is unusable: the entry
// can be 1 only for a tautological cross-free p_k, and can never be 0.
func phiEntry(ej, ek *elemPred) logic.Value {
	if ej.cross {
		if ek.tautology() {
			return logic.True
		}
		return logic.Unknown
	}
	// ¬p_j ⇒ p_k requires certifying all of p_k.
	if !ek.cross && ej.NegImplies(ek.Prepared) {
		return logic.True
	}
	// ¬p_j ⇒ ¬p_k iff p_k ⇒ p_j; certified by L_k ⇒ L_j (premise
	// weakening is sound). Guard: p_j ≢ T.
	if !ej.tautology() && ek.Implies(ej.Prepared) {
		return logic.False
	}
	return logic.Unknown
}

// tautology reports whether the whole predicate is certainly TRUE: it
// must be cross-free and its analyzable part a tautology.
func (e *elemPred) tautology() bool {
	return !e.cross && e.Tautology()
}
