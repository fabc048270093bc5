package query

import (
	"fmt"
	"strings"

	"sqlts/internal/constraint"
	"sqlts/internal/pattern"
	"sqlts/internal/storage"
)

// AnalyzeOptions tune the semantic analysis.
type AnalyzeOptions struct {
	// MissingPrevTrue selects the policy for predecessor references on a
	// cluster's first tuple (see DESIGN.md).
	MissingPrevTrue bool
	// PositiveColumns declares columns with strictly positive domains,
	// enabling the §6 ratio transform for X op C*Y conditions (e.g.
	// declare "price" positive for the double-bottom query).
	PositiveColumns []string
	// Shared, when set, is the analysis of a statement with this one's
	// PatternKey under the same schema and options. Its pattern is this
	// statement's (see SelectStmt.PatternKey), so Analyze takes it instead
	// of compiling the WHERE clause again, and analyses the SELECT list
	// only.
	Shared *Compiled
}

// Compiled is an analyzed, executable SQL-TS SELECT.
type Compiled struct {
	Stmt       *SelectStmt
	Table      string
	Schema     *storage.Schema
	ClusterBy  []string
	SequenceBy []string
	// Pattern is the compiled search pattern; nil for a plain SQL SELECT
	// without an AS pattern clause.
	Pattern *pattern.Pattern
	// OutNames are the result column names in order.
	OutNames []string
	// OutTypes are best-effort inferred result column types.
	OutTypes []storage.Type

	outExprs        []Expr
	varOf           map[string]int // upper-cased variable name → element index
	stars           []bool
	alwaysEmpty     bool
	plainWhere      Expr // WHERE of a non-pattern SELECT
	missingPrevTrue bool
}

// Analyze type-checks a SELECT against a schema and compiles its WHERE
// clause into a search pattern (when an AS pattern is present).
func Analyze(st *SelectStmt, schema *storage.Schema, opts AnalyzeOptions) (*Compiled, error) {
	c := &Compiled{
		Stmt:            st,
		Table:           st.Table,
		Schema:          schema,
		ClusterBy:       st.ClusterBy,
		SequenceBy:      st.SequenceBy,
		varOf:           map[string]int{},
		missingPrevTrue: opts.MissingPrevTrue,
	}
	for _, col := range append(append([]string{}, st.ClusterBy...), st.SequenceBy...) {
		if _, ok := schema.ColumnIndex(col); !ok {
			return nil, fmt.Errorf("sql-ts: no column %q in table %s", col, st.Table)
		}
	}

	if len(st.Pattern) == 0 {
		return c.analyzePlain(st, opts)
	}

	for i, pv := range st.Pattern {
		key := strings.ToUpper(pv.Name)
		if _, dup := c.varOf[key]; dup {
			return nil, fmt.Errorf("sql-ts: duplicate pattern variable %q", pv.Name)
		}
		c.varOf[key] = i
		c.stars = append(c.stars, pv.Star)
	}
	if sh := opts.Shared; sh != nil {
		c.Pattern, c.alwaysEmpty = sh.Pattern, sh.alwaysEmpty
		return c, c.compileSelectItems(st)
	}

	elems := make([]pattern.Element, len(st.Pattern))
	for i, pv := range st.Pattern {
		elems[i] = pattern.Element{Name: pv.Name, Star: pv.Star}
	}

	if st.Where != nil {
		var aggErr error
		walkAggs(st.Where, func(a *AggExpr) {
			if aggErr == nil {
				aggErr = fmt.Errorf("sql-ts: aggregate %s is not allowed in WHERE", a)
			}
		})
		if aggErr != nil {
			return nil, aggErr
		}
		for _, conj := range splitAnd(st.Where) {
			if err := c.placeConjunct(conj, elems, opts); err != nil {
				return nil, err
			}
		}
	}

	pat, err := pattern.Compile(schema, elems, pattern.Options{
		MissingPrevTrue: opts.MissingPrevTrue,
		PositiveColumns: opts.PositiveColumns,
	})
	if err != nil {
		return nil, err
	}
	c.Pattern = pat

	return c, c.compileSelectItems(st)
}

// analyzePlain handles SELECT without a pattern: filter + project.
func (c *Compiled) analyzePlain(st *SelectStmt, opts AnalyzeOptions) (*Compiled, error) {
	check := func(e Expr) error {
		var err error
		walkRefs(e, func(f *FieldRef) {
			if err != nil {
				return
			}
			if f.Var != "" || f.Fn != SpanNone || len(f.Navs) > 0 {
				err = fmt.Errorf("sql-ts: reference %s needs an AS pattern clause", f)
				return
			}
			if _, ok := c.Schema.ColumnIndex(f.Field); !ok {
				err = fmt.Errorf("sql-ts: no column %q in table %s", f.Field, st.Table)
			}
		})
		return err
	}
	if st.Where != nil {
		if err := check(st.Where); err != nil {
			return nil, err
		}
		c.plainWhere = st.Where
	}
	return c, c.compileSelectItems(st)
}

// refInfo is a resolved field reference.
type refInfo struct {
	ref    *FieldRef
	varIdx int // -1 for bare column refs
	col    int
}

// resolveRefs gathers and validates every field reference in an
// expression against the pattern variables and schema, and notes on each
// what it resolved to.
func (c *Compiled) resolveRefs(e Expr) ([]refInfo, error) {
	var out []refInfo
	var err error
	walkRefs(e, func(f *FieldRef) {
		if err != nil {
			return
		}
		if f.Var == "" {
			err = fmt.Errorf("sql-ts: unqualified column %q in a pattern query; qualify it with a pattern variable", f.Field)
			return
		}
		vi, ok := c.varOf[strings.ToUpper(f.Var)]
		if !ok {
			err = fmt.Errorf("sql-ts: unknown pattern variable %q in %s", f.Var, f)
			return
		}
		col, ok := c.Schema.ColumnIndex(f.Field)
		if !ok {
			err = fmt.Errorf("sql-ts: no column %q in table %s", f.Field, c.Table)
			return
		}
		f.elem, f.col = vi, col
		out = append(out, refInfo{ref: f, varIdx: vi, col: col})
	})
	return out, err
}

// placeConjunct classifies one WHERE conjunct and attaches it to a
// pattern element, either as an analyzable local condition, an opaque
// local condition, or a cross condition.
func (c *Compiled) placeConjunct(conj Expr, elems []pattern.Element, opts AnalyzeOptions) error {
	refs, err := c.resolveRefs(conj)
	if err != nil {
		return err
	}
	if len(refs) == 0 {
		// Constant condition: fold it now.
		v, err := evalExpr(conj, func(*FieldRef) (storage.Value, bool) { return storage.Null, false })
		if err != nil {
			return err
		}
		if !truthy(v) {
			c.alwaysEmpty = true
		}
		return nil
	}

	// Validate navigation inside WHERE.
	for _, r := range refs {
		if len(r.ref.Navs) > 1 {
			return fmt.Errorf("sql-ts: chained navigation %s is not supported in WHERE", r.ref)
		}
		if len(r.ref.Navs) == 1 && r.ref.Navs[0] == NavNext {
			return fmt.Errorf("sql-ts: next navigation (%s) is not supported in WHERE; rewrite the condition on the following variable", r.ref)
		}
	}

	attach := 0
	for _, r := range refs {
		if r.varIdx > attach {
			attach = r.varIdx
		}
	}

	// Try the local (alignment-independent) classification: every
	// reference resolves to the attach element's current tuple or its
	// sequence predecessor.
	local := true
	for _, r := range refs {
		switch {
		case r.ref.Fn != SpanNone:
			local = false
		case r.varIdx == attach && len(r.ref.Navs) == 0:
			// cur
		case r.varIdx == attach && r.ref.Navs[0] == NavPrevious:
			// prev
		case r.varIdx == attach-1 && len(r.ref.Navs) == 0 &&
			!c.stars[attach] && !c.stars[attach-1]:
			// Adjacent rewrite (Example 1): for consecutive plain
			// elements U, V the reference U.f equals V.previous.f.
		default:
			local = false
		}
	}
	if local {
		cond, ok, err := c.localCond(conj, refs, attach)
		if err != nil {
			return err
		}
		if ok {
			elems[attach].Local = append(elems[attach].Local, cond)
			return nil
		}
	}

	// Cross condition: compile a context evaluator.
	cond, err := c.crossCond(conj, refs, attach)
	if err != nil {
		return err
	}
	elems[attach].CrossConds = append(elems[attach].CrossConds, cond)
	return nil
}

// role maps a (validated local) reference to its cur/prev role relative
// to the attach element.
func (c *Compiled) role(r refInfo, attach int) pattern.Role {
	if r.varIdx == attach-1 || (len(r.ref.Navs) == 1 && r.ref.Navs[0] == NavPrevious) {
		return pattern.Prev
	}
	return pattern.Cur
}

// linTerm is a normalized linear term: Coef * ref + Cons.
type linTerm struct {
	coef float64
	ref  *refInfo // nil when constant
	cons float64
}

// linearize reduces a numeric expression over the given references to a
// linear term with at most one field reference.
func (c *Compiled) linearize(e Expr, refs []refInfo) (linTerm, bool) {
	switch x := e.(type) {
	case *NumberLit:
		return linTerm{cons: x.Value}, true
	case *FieldRef:
		for i := range refs {
			if refs[i].ref == x {
				t := c.Schema.Columns[refs[i].col].Type
				if !t.Numeric() {
					return linTerm{}, false
				}
				return linTerm{coef: 1, ref: &refs[i]}, true
			}
		}
		return linTerm{}, false
	case *UnaryExpr:
		if x.Op != "-" {
			return linTerm{}, false
		}
		l, ok := c.linearize(x.X, refs)
		if !ok {
			return linTerm{}, false
		}
		l.coef, l.cons = -l.coef, -l.cons
		return l, true
	case *BinaryExpr:
		l, okL := c.linearize(x.L, refs)
		r, okR := c.linearize(x.R, refs)
		if !okL || !okR {
			return linTerm{}, false
		}
		switch x.Op {
		case "+", "-":
			s := 1.0
			if x.Op == "-" {
				s = -1
			}
			switch {
			case l.ref != nil && r.ref != nil:
				return linTerm{}, false // two refs on one side
			case r.ref != nil:
				return linTerm{coef: s * r.coef, ref: r.ref, cons: l.cons + s*r.cons}, true
			default:
				return linTerm{coef: l.coef, ref: l.ref, cons: l.cons + s*r.cons}, true
			}
		case "*":
			switch {
			case l.ref == nil:
				return linTerm{coef: l.cons * r.coef, ref: r.ref, cons: l.cons * r.cons}, true
			case r.ref == nil:
				return linTerm{coef: r.cons * l.coef, ref: l.ref, cons: r.cons * l.cons}, true
			default:
				return linTerm{}, false
			}
		case "/":
			if r.ref != nil || r.cons == 0 {
				return linTerm{}, false
			}
			return linTerm{coef: l.coef / r.cons, ref: l.ref, cons: l.cons / r.cons}, true
		default:
			return linTerm{}, false
		}
	default:
		return linTerm{}, false
	}
}

// localCond compiles a local conjunct to a typed pattern condition:
// first as a single typed comparison, then as an analyzable disjunction
// of typed comparisons (the §8 disjunctive-conditions extension), and
// finally — still sound, just invisible to the optimizer — as an opaque
// local condition.
func (c *Compiled) localCond(conj Expr, refs []refInfo, attach int) (pattern.Cond, bool, error) {
	if b, ok := conj.(*BinaryExpr); ok && isCmpOp(b.Op) {
		if cond, ok := c.typedCmpCond(b, refs, attach); ok {
			return cond, true, nil
		}
	}
	if cond, ok := c.orCond(conj, refs, attach); ok {
		return cond, true, nil
	}
	// Alignment-independent but not analyzable: opaque local condition.
	return c.opaqueLocal(conj, refs, attach)
}

// typedCmpCond recognizes the analyzable comparison shapes.
func (c *Compiled) typedCmpCond(b *BinaryExpr, refs []refInfo, attach int) (pattern.Cond, bool) {
	op, err := cmpOpOf(b.Op)
	if err != nil {
		return pattern.Cond{}, false
	}
	// String comparisons.
	if cond, ok := c.stringCond(b, refs, attach, op); ok {
		return cond, true
	}
	// Date constants.
	if cond, ok := c.dateCond(b, refs, attach, op); ok {
		return cond, true
	}
	// Linear numeric shapes.
	l, okL := c.linearize(b.L, refs)
	r, okR := c.linearize(b.R, refs)
	if okL && okR {
		if cond, ok := c.numericCond(l, r, op, attach); ok {
			return cond, true
		}
	}
	return pattern.Cond{}, false
}

// orCond compiles a disjunction whose every leaf is a typed comparison
// into an analyzable OrCond; any non-conforming leaf rejects the whole
// disjunction (the caller falls back to an opaque condition).
func (c *Compiled) orCond(conj Expr, refs []refInfo, attach int) (pattern.Cond, bool) {
	branches := splitOr(conj)
	if len(branches) < 2 {
		return pattern.Cond{}, false
	}
	out := make([][]pattern.Cond, 0, len(branches))
	for _, br := range branches {
		var bconds []pattern.Cond
		for _, leaf := range splitAnd(br) {
			b, ok := leaf.(*BinaryExpr)
			if !ok || !isCmpOp(b.Op) {
				return pattern.Cond{}, false
			}
			cond, ok := c.typedCmpCond(b, refs, attach)
			if !ok {
				return pattern.Cond{}, false
			}
			bconds = append(bconds, cond)
		}
		out = append(out, bconds)
	}
	return pattern.Or(out...), true
}

func cmpOpOf(op string) (constraint.Op, error) {
	switch op {
	case "=":
		return constraint.Eq, nil
	case "<>":
		return constraint.Ne, nil
	case "<":
		return constraint.Lt, nil
	case "<=":
		return constraint.Le, nil
	case ">":
		return constraint.Gt, nil
	case ">=":
		return constraint.Ge, nil
	default:
		return 0, fmt.Errorf("sql-ts: %q is not a comparison", op)
	}
}

// stringCond recognizes ref op 'lit' and ref op ref over string columns.
func (c *Compiled) stringCond(b *BinaryExpr, refs []refInfo, attach int, op constraint.Op) (pattern.Cond, bool) {
	asRef := func(e Expr) *refInfo {
		f, ok := e.(*FieldRef)
		if !ok {
			return nil
		}
		for i := range refs {
			if refs[i].ref == f && c.Schema.Columns[refs[i].col].Type == storage.TypeString {
				return &refs[i]
			}
		}
		return nil
	}
	l := asRef(b.L)
	r := asRef(b.R)
	switch {
	case l != nil && r == nil:
		if lit, ok := b.R.(*StringLit); ok {
			return pattern.FieldStr(l.col, c.role(*l, attach), op, lit.Value), true
		}
	case l == nil && r != nil:
		if lit, ok := b.L.(*StringLit); ok {
			return pattern.FieldStr(r.col, c.role(*r, attach), op.Flip(), lit.Value), true
		}
	case l != nil && r != nil:
		return pattern.FieldStrField(l.col, c.role(*l, attach), op, r.col, c.role(*r, attach)), true
	}
	return pattern.Cond{}, false
}

// dateCond recognizes dateref op 'literal' with a parseable date string.
func (c *Compiled) dateCond(b *BinaryExpr, refs []refInfo, attach int, op constraint.Op) (pattern.Cond, bool) {
	asDateRef := func(e Expr) *refInfo {
		f, ok := e.(*FieldRef)
		if !ok {
			return nil
		}
		for i := range refs {
			if refs[i].ref == f && c.Schema.Columns[refs[i].col].Type == storage.TypeDate {
				return &refs[i]
			}
		}
		return nil
	}
	if l := asDateRef(b.L); l != nil {
		if lit, ok := b.R.(*StringLit); ok {
			if d, err := storage.ParseValue(lit.Value, storage.TypeDate); err == nil {
				return pattern.FieldConst(l.col, c.role(*l, attach), op, float64(d.DateDays())), true
			}
		}
	}
	if r := asDateRef(b.R); r != nil {
		if lit, ok := b.L.(*StringLit); ok {
			if d, err := storage.ParseValue(lit.Value, storage.TypeDate); err == nil {
				return pattern.FieldConst(r.col, c.role(*r, attach), op.Flip(), float64(d.DateDays())), true
			}
		}
	}
	return pattern.Cond{}, false
}

// numericCond classifies a linear comparison l op r into the typed
// condition families of the pattern package.
func (c *Compiled) numericCond(l, r linTerm, op constraint.Op, attach int) (pattern.Cond, bool) {
	switch {
	case l.ref == nil && r.ref == nil:
		return pattern.Cond{}, false // constant; caller folds via opaque
	case l.ref != nil && r.ref == nil:
		if l.coef == 0 {
			return pattern.Cond{}, false
		}
		cc := (r.cons - l.cons) / l.coef
		if l.coef < 0 {
			op = op.Flip()
		}
		return pattern.FieldConst(l.ref.col, c.role(*l.ref, attach), op, cc), true
	case l.ref == nil && r.ref != nil:
		return c.numericCond(r, l, op.Flip(), attach)
	default:
		// a*F1 + b1 op c*F2 + b2
		if l.coef == 0 || r.coef == 0 {
			return pattern.Cond{}, false
		}
		lr, rr := *l.ref, *r.ref
		if l.coef == r.coef {
			cc := (r.cons - l.cons) / l.coef
			if l.coef < 0 {
				op = op.Flip()
			}
			return pattern.FieldField(lr.col, c.role(lr, attach), op, rr.col, c.role(rr, attach), cc), true
		}
		if l.cons == 0 && r.cons == 0 {
			coef := r.coef / l.coef
			if l.coef < 0 {
				op = op.Flip()
			}
			if coef <= 0 {
				return pattern.Cond{}, false
			}
			return pattern.FieldScaled(lr.col, c.role(lr, attach), op, coef, rr.col, c.role(rr, attach)), true
		}
		return pattern.Cond{}, false
	}
}

// opaqueLocal wraps an alignment-independent but non-linear conjunct as
// an opaque condition. The key canonicalizes variable names to cur/prev
// so that identical conditions on different elements unify in θ/φ.
func (c *Compiled) opaqueLocal(conj Expr, refs []refInfo, attach int) (pattern.Cond, bool, error) {
	key := c.canonicalKey(conj, refs, attach)
	resolvers := make(map[*FieldRef]struct {
		col  int
		role pattern.Role
	}, len(refs))
	for _, r := range refs {
		resolvers[r.ref] = struct {
			col  int
			role pattern.Role
		}{r.col, c.role(r, attach)}
	}
	missingPrevTrue := c.missingPrevTrue
	fn := func(cur, prev storage.Row) bool {
		missing := false
		v, err := evalExpr(conj, func(f *FieldRef) (storage.Value, bool) {
			rs, ok := resolvers[f]
			if !ok {
				return storage.Null, false
			}
			if rs.role == pattern.Prev {
				if prev == nil {
					missing = true
					return storage.Null, false
				}
				return prev[rs.col], true
			}
			return cur[rs.col], true
		})
		if missing {
			return missingPrevTrue
		}
		return err == nil && truthy(v)
	}
	return pattern.Opaque(key, fn), true, nil
}

// canonicalKey renders a conjunct with variable references normalized to
// cur/prev form, so element-independent textual identity holds.
func (c *Compiled) canonicalKey(conj Expr, refs []refInfo, attach int) string {
	roleOf := make(map[*FieldRef]pattern.Role, len(refs))
	for _, r := range refs {
		roleOf[r.ref] = c.role(r, attach)
	}
	var render func(e Expr) string
	render = func(e Expr) string {
		switch x := e.(type) {
		case *FieldRef:
			if role, ok := roleOf[x]; ok {
				return fmt.Sprintf("%s.%s", role, strings.ToLower(x.Field))
			}
			return x.String()
		case *BinaryExpr:
			return fmt.Sprintf("(%s %s %s)", render(x.L), x.Op, render(x.R))
		case *UnaryExpr:
			if x.Op == "NOT" {
				return fmt.Sprintf("(NOT %s)", render(x.X))
			}
			return fmt.Sprintf("(%s%s)", x.Op, render(x.X))
		default:
			return e.String()
		}
	}
	return render(conj)
}

// crossCond compiles an alignment-dependent conjunct into a cross
// condition evaluated against the match in progress.
func (c *Compiled) crossCond(conj Expr, refs []refInfo, attach int) (pattern.Cond, error) {
	type plan struct {
		col    int
		varIdx int
		fn     SpanFn
		nav    int // -1 previous, +1 next, 0 none
	}
	plans := make(map[*FieldRef]plan, len(refs))
	for _, r := range refs {
		p := plan{col: r.col, varIdx: r.varIdx, fn: r.ref.Fn}
		if len(r.ref.Navs) == 1 {
			if r.ref.Navs[0] == NavPrevious {
				p.nav = -1
			} else {
				p.nav = 1
			}
		}
		if r.varIdx == attach {
			// FIRST(V) is well-defined while V is being matched (the
			// span's first tuple is fixed); LAST(V) is not.
			if p.fn == SpanLast {
				return pattern.Cond{}, fmt.Errorf("sql-ts: %s refers to the span of %s before it is complete; LAST is only available to later variables", r.ref, r.ref.Var)
			}
		} else {
			// Earlier element: its span is complete when the attach
			// element is evaluated.
			if c.stars[r.varIdx] && p.fn == SpanNone {
				return pattern.Cond{}, fmt.Errorf("sql-ts: %s references star variable %s; use FIRST(%s) or LAST(%s)", r.ref, r.ref.Var, r.ref.Var, r.ref.Var)
			}
		}
		plans[r.ref] = p
	}
	key := conj.String()
	fn := func(ctx *pattern.EvalContext) bool {
		v, err := evalExpr(conj, func(f *FieldRef) (storage.Value, bool) {
			p, ok := plans[f]
			if !ok {
				return storage.Null, false
			}
			var idx int
			if p.varIdx == attach {
				if p.fn == SpanFirst {
					// The first tuple of the in-progress span: the
					// binding if already set, else the current tuple
					// (which is about to become the first).
					idx = ctx.Pos
					if span := ctx.Bind[p.varIdx]; span.Set {
						idx = span.Start
					}
					idx += p.nav
				} else {
					idx = ctx.Pos + p.nav
				}
			} else {
				span := ctx.Bind[p.varIdx]
				if !span.Set {
					return storage.Null, false
				}
				switch p.fn {
				case SpanLast:
					idx = span.End
				default: // SpanFirst or a plain (non-star) reference
					idx = span.Start
				}
				switch p.nav {
				case -1:
					idx = span.Start - 1
					if p.fn == SpanLast {
						idx = span.End - 1
					}
				case 1:
					idx = span.End + 1
					if p.fn == SpanFirst {
						idx = span.Start + 1
					}
				}
			}
			if idx < 0 || idx >= ctx.Seq.Len() {
				return storage.Null, false
			}
			return ctx.Seq.At(idx, p.col), true
		})
		return err == nil && truthy(v)
	}
	return pattern.Cross(key, fn), nil
}

// compileSelectItems resolves output expressions and infers names/types.
func (c *Compiled) compileSelectItems(st *SelectStmt) error {
	for _, item := range st.Items {
		name := item.Alias
		if name == "" {
			name = item.Expr.String()
		}
		if c.Pattern != nil {
			if _, err := c.resolveRefs(item.Expr); err != nil {
				return err
			}
			if err := c.checkSelectRef(item.Expr); err != nil {
				return err
			}
			if err := c.checkAggs(item.Expr); err != nil {
				return err
			}
		} else {
			var aggErr error
			walkAggs(item.Expr, func(a *AggExpr) {
				if aggErr == nil {
					aggErr = fmt.Errorf("sql-ts: aggregate %s needs an AS pattern clause", a)
				}
			})
			if aggErr != nil {
				return aggErr
			}
		}
		c.OutNames = append(c.OutNames, name)
		c.OutTypes = append(c.OutTypes, c.inferType(item.Expr))
		c.outExprs = append(c.outExprs, item.Expr)
	}
	return nil
}

// checkSelectRef validates references in SELECT items. A bare star
// variable reference (the paper's Example 8 writes SELECT X.name with
// *X) defaults to the FIRST tuple of the span.
func (c *Compiled) checkSelectRef(e Expr) error {
	var err error
	walkRefs(e, func(f *FieldRef) {
		if err != nil {
			return
		}
		if f.Var == "" {
			err = fmt.Errorf("sql-ts: unqualified column %q in a pattern query", f.Field)
		}
	})
	return err
}

// checkAggs validates span aggregates in a SELECT item and notes on each
// what its variable and column resolved to.
func (c *Compiled) checkAggs(e Expr) error {
	var err error
	walkAggs(e, func(a *AggExpr) {
		if err != nil {
			return
		}
		vi, ok := c.varOf[strings.ToUpper(a.Var)]
		if !ok {
			err = fmt.Errorf("sql-ts: unknown pattern variable %q in %s", a.Var, a)
			return
		}
		a.elem = vi
		if a.Field == "" {
			return // COUNT(X)
		}
		i, ok := c.Schema.ColumnIndex(a.Field)
		if !ok {
			err = fmt.Errorf("sql-ts: no column %q in table %s", a.Field, c.Table)
			return
		}
		a.col = i
		t := c.Schema.Columns[i].Type
		switch a.Fn {
		case "AVG", "SUM":
			if !t.Numeric() {
				err = fmt.Errorf("sql-ts: %s over non-numeric column %q", a.Fn, a.Field)
			}
		case "MIN", "MAX":
			if !t.Ordered() {
				err = fmt.Errorf("sql-ts: %s over unordered column %q", a.Fn, a.Field)
			}
		}
	})
	return err
}

func (c *Compiled) inferType(e Expr) storage.Type {
	switch x := e.(type) {
	case *NumberLit:
		if x.IsInt {
			return storage.TypeInt
		}
		return storage.TypeFloat
	case *StringLit:
		return storage.TypeString
	case *BoolLit:
		return storage.TypeBool
	case *NullLit:
		return storage.TypeNull
	case *FieldRef:
		if i, ok := c.Schema.ColumnIndex(x.Field); ok {
			return c.Schema.Columns[i].Type
		}
		return storage.TypeNull
	case *AggExpr:
		switch x.Fn {
		case "COUNT":
			return storage.TypeInt
		case "AVG":
			return storage.TypeFloat
		default: // SUM, MIN, MAX follow the column type
			if i, ok := c.Schema.ColumnIndex(x.Field); ok {
				return c.Schema.Columns[i].Type
			}
			return storage.TypeNull
		}
	case *UnaryExpr:
		if x.Op == "NOT" {
			return storage.TypeBool
		}
		return c.inferType(x.X)
	case *BinaryExpr:
		if isCmpOp(x.Op) || x.Op == "AND" || x.Op == "OR" {
			return storage.TypeBool
		}
		lt, rt := c.inferType(x.L), c.inferType(x.R)
		if lt == storage.TypeDate || rt == storage.TypeDate {
			return storage.TypeDate
		}
		if x.Op == "/" || lt == storage.TypeFloat || rt == storage.TypeFloat {
			return storage.TypeFloat
		}
		return storage.TypeInt
	default:
		return storage.TypeNull
	}
}

// AlwaysEmpty reports whether a constant-false WHERE conjunct makes the
// query return no rows.
func (c *Compiled) AlwaysEmpty() bool { return c.alwaysEmpty }

// EvalSelect produces the output row for one completed match.
func (c *Compiled) EvalSelect(seq []storage.Row, spans []pattern.Span) (storage.Row, error) {
	view := storage.RowSeq(seq)
	return c.EvalSelectInto(nil, &view, spans)
}

// EvalSelectInto is EvalSelect over any sequence view (a cluster's rows
// or a stream window), writing into dst when its capacity allows, for
// callers that recycle the output row between matches. The returned row
// aliases dst on reuse.
func (c *Compiled) EvalSelectInto(dst storage.Row, seq *storage.Seq, spans []pattern.Span) (storage.Row, error) {
	out := dst
	if cap(out) >= len(c.outExprs) {
		out = out[:len(c.outExprs)]
	} else {
		out = make(storage.Row, len(c.outExprs))
	}
	ref := func(f *FieldRef) (storage.Value, bool) { return matchRef(f, seq, spans) }
	agg := func(a *AggExpr) (storage.Value, error) { return c.matchAgg(a, seq, spans) }
	for i, e := range c.outExprs {
		if f, ok := e.(*FieldRef); ok {
			// The usual item, a bare reference: no tree to walk.
			out[i], _ = matchRef(f, seq, spans)
			continue
		}
		v, err := evalExprAgg(e, ref, agg)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// matchAgg evaluates a span aggregate over a completed match. NULLs are
// ignored (SQL semantics); an all-NULL span yields NULL, COUNT counts
// tuples regardless.
func (c *Compiled) matchAgg(a *AggExpr, seq *storage.Seq, spans []pattern.Span) (storage.Value, error) {
	span := spans[a.elem]
	if !span.Set {
		return storage.Null, nil
	}
	if a.Fn == "COUNT" {
		return storage.NewInt(int64(span.Len())), nil
	}
	col := a.col
	var (
		sum   float64
		n     int64
		best  storage.Value
		isInt = c.Schema.Columns[col].Type == storage.TypeInt
	)
	for i := span.Start; i <= span.End && i < seq.Len(); i++ {
		v := seq.At(i, col)
		if v.IsNull() {
			continue
		}
		switch a.Fn {
		case "AVG", "SUM":
			sum += v.Float()
			n++
		case "MIN":
			if best.IsNull() {
				best = v
			} else if cmp, err := v.Compare(best); err == nil && cmp < 0 {
				best = v
			}
		case "MAX":
			if best.IsNull() {
				best = v
			} else if cmp, err := v.Compare(best); err == nil && cmp > 0 {
				best = v
			}
		}
	}
	switch a.Fn {
	case "AVG":
		if n == 0 {
			return storage.Null, nil
		}
		return storage.NewFloat(sum / float64(n)), nil
	case "SUM":
		if n == 0 {
			return storage.Null, nil
		}
		if isInt {
			return storage.NewInt(int64(sum)), nil
		}
		return storage.NewFloat(sum), nil
	default: // MIN, MAX
		return best, nil
	}
}

// matchRef resolves a field reference against a completed match:
// FIRST/LAST pin span endpoints; the first previous step from a bare
// variable moves before the span, the first next step moves after it.
// Out of range (or an unset span) is not ok and reads as NULL.
func matchRef(f *FieldRef, seq *storage.Seq, spans []pattern.Span) (storage.Value, bool) {
	span := spans[f.elem]
	if !span.Set {
		return storage.Null, false
	}
	var idx int
	switch f.Fn {
	case SpanFirst:
		idx = span.Start
	case SpanLast:
		idx = span.End
	default:
		idx = span.Start
		if len(f.Navs) > 0 {
			// Bare variable with navigation: previous leaves the span on
			// the left, next on the right (X.next = first tuple after
			// X's span, per §2).
			if f.Navs[0] == NavPrevious {
				idx = span.Start
			} else {
				idx = span.End
			}
		}
	}
	for _, nav := range f.Navs {
		if nav == NavPrevious {
			idx--
		} else {
			idx++
		}
	}
	if idx < 0 || idx >= seq.Len() {
		return storage.Null, false
	}
	return seq.At(idx, f.col), true
}

// EvalPlainRow evaluates the WHERE filter and output row for a plain
// (pattern-less) SELECT.
func (c *Compiled) EvalPlainRow(row storage.Row) (storage.Row, bool, error) {
	env := func(f *FieldRef) (storage.Value, bool) {
		i, ok := c.Schema.ColumnIndex(f.Field)
		if !ok {
			return storage.Null, false
		}
		return row[i], true
	}
	if c.plainWhere != nil {
		v, err := evalExpr(c.plainWhere, env)
		if err != nil {
			return nil, false, err
		}
		if !truthy(v) {
			return nil, false, nil
		}
	}
	out := make(storage.Row, len(c.outExprs))
	for i, e := range c.outExprs {
		v, err := evalExpr(e, env)
		if err != nil {
			return nil, false, err
		}
		out[i] = v
	}
	return out, true, nil
}
