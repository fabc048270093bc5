package core

import (
	"fmt"

	"sqlts/internal/pattern"
	"sqlts/internal/storage"
)

// ReversePattern builds the pattern that recognizes exactly the same
// matches when the input sequence is traversed backwards (§8 "searching
// the input stream in either the forward or the reverse direction").
//
// For a star-free pattern, element e covers the single tuple t_e, and a
// condition of element e that references the predecessor constrains the
// pair (t_e, t_{e-1}). In the reversed traversal that pair is visible
// when the cursor sits on t_{e-1} (whose reversed predecessor is t_e), so
// the condition moves to the reversed element covering t_{e-1}, with the
// cur/prev roles swapped. Conditions that reference only the current
// tuple stay with their element. Predecessor conditions of element 1
// reference the tuple before the match, which the reversed traversal
// never visits as a cursor position; they become cross conditions on the
// last reversed element that peek one position past the match.
//
// Star patterns are not mechanically reversible with per-element uniform
// conditions (the element-boundary pair would need a different predicate
// than the span interior), matching the paper's future-work status for
// reverse optimization; an error is returned for them, as well as for
// patterns with cross or opaque conditions.
func ReversePattern(p *pattern.Pattern) (*pattern.Pattern, error) {
	m := len(p.Elems)
	for i := range p.Elems {
		e := &p.Elems[i]
		if e.Star {
			return nil, fmt.Errorf("core: cannot reverse pattern %s: star element %s", p, e.Name)
		}
		if e.HasCross() {
			return nil, fmt.Errorf("core: cannot reverse pattern %s: element %s has cross conditions", p, e.Name)
		}
		for _, c := range e.Local {
			if c.Kind == pattern.OpaqueCond {
				return nil, fmt.Errorf("core: cannot reverse pattern %s: element %s has opaque conditions", p, e.Name)
			}
		}
	}

	elems := make([]pattern.Element, m)
	for i := 1; i <= m; i++ {
		fwd := m + 1 - i // forward element whose tuple reversed element i covers
		var local []pattern.Cond
		// Current-tuple-only conditions stay with their tuple.
		for _, c := range p.Elems[fwd-1].Local {
			if !refersPrev(c) {
				local = append(local, c)
			}
		}
		// Predecessor conditions of the next forward element constrain the
		// pair ending at this tuple; they arrive role-swapped.
		if fwd+1 <= m {
			for _, c := range p.Elems[fwd].Local {
				if refersPrev(c) {
					local = append(local, swapRoles(c))
				}
			}
		}
		elems[i-1] = pattern.Element{Name: p.Elems[fwd-1].Name, Local: local}
	}

	// Predecessor conditions of forward element 1 peek past the reversed
	// match end: in reversed coordinates, forward t_0 sits at Pos+1 when
	// the cursor is on forward t_1 (the last reversed element).
	missingPrev := p.MissingPrevTrue
	for _, c := range p.Elems[0].Local {
		if !refersPrev(c) {
			continue
		}
		// Precompile a one-element pattern so the closure only evaluates.
		single := pattern.MustCompile(p.Schema, []pattern.Element{{Name: "t", Local: []pattern.Cond{c}}}, pattern.Options{
			MissingPrevTrue: p.MissingPrevTrue,
		})
		last := &elems[m-1]
		last.CrossConds = append(last.CrossConds, pattern.Cross(
			"rev-head:"+c.String(),
			func(ctx *pattern.EvalContext) bool {
				if ctx.Pos+1 >= ctx.Seq.Len() {
					return missingPrev
				}
				// Evaluate the forward condition with cur = this tuple and
				// prev = the reversed successor (forward predecessor).
				window := []storage.Row{ctx.Seq.Row(ctx.Pos+1, nil), ctx.Seq.Row(ctx.Pos, nil)}
				sub := pattern.EvalContext{Seq: storage.RowSeq(window), Pos: 1}
				return single.EvalElem(0, &sub)
			}))
	}

	positive := make([]string, 0, len(p.PositiveCols))
	for col := range p.PositiveCols {
		positive = append(positive, p.Schema.Columns[col].Name)
	}
	return pattern.Compile(p.Schema, elems, pattern.Options{
		MissingPrevTrue: p.MissingPrevTrue,
		PositiveColumns: positive,
	})
}

// refersPrev reports whether a condition references the predecessor tuple.
func refersPrev(c pattern.Cond) bool {
	switch c.Kind {
	case pattern.NumFieldConst, pattern.StrFieldLit:
		return c.LRole == pattern.Prev
	case pattern.NumFieldField, pattern.NumFieldScaled, pattern.StrFieldField:
		return c.LRole == pattern.Prev || c.RRole == pattern.Prev
	default:
		return false
	}
}

// swapRoles exchanges cur and prev in a field-reference condition.
func swapRoles(c pattern.Cond) pattern.Cond {
	flip := func(r pattern.Role) pattern.Role {
		if r == pattern.Cur {
			return pattern.Prev
		}
		return pattern.Cur
	}
	switch c.Kind {
	case pattern.NumFieldConst, pattern.StrFieldLit:
		c.LRole = flip(c.LRole)
	case pattern.NumFieldField, pattern.NumFieldScaled, pattern.StrFieldField:
		c.LRole, c.RRole = flip(c.LRole), flip(c.RRole)
	}
	return c
}

// Direction labels a search direction choice.
type Direction uint8

// Search directions.
const (
	Forward Direction = iota
	Reverse
)

// String names the direction.
func (d Direction) String() string {
	if d == Reverse {
		return "reverse"
	}
	return "forward"
}

// ChooseDirection implements the §8 heuristic: compute the optimizer
// tables for both directions and prefer the one with the larger average
// shift, breaking ties with the average next. It returns the chosen
// direction and both table sets (reverse tables are nil if the pattern is
// not reversible, in which case Forward is chosen).
func ChooseDirection(p *pattern.Pattern) (Direction, *Tables, *Tables) {
	fwd := Compute(p)
	rp, err := ReversePattern(p)
	if err != nil {
		return Forward, fwd, nil
	}
	rev := Compute(rp)
	if rev.AvgShift() > fwd.AvgShift() ||
		(rev.AvgShift() == fwd.AvgShift() && rev.AvgNext() > fwd.AvgNext()) {
		return Reverse, fwd, rev
	}
	return Forward, fwd, rev
}
