// Package pattern models compiled SQL-TS search patterns: an ordered list
// of pattern elements (tuple variables), each optionally starred, each
// carrying the conjunction of WHERE conditions that apply to it.
//
// A condition is kept in two synchronized forms. The evaluable form (Cond)
// is what the runtime executes against the input sequence. The analyzable
// form (a constraint.System per element) is what the compile-time OPS
// optimizer feeds to the GSW implication engine to build the θ and φ
// matrices. Conditions that reference only the current tuple and its
// sequence predecessor are alignment-independent and participate in the
// analysis; conditions that reference earlier pattern variables ("cross"
// conditions, e.g. Z.previous.price < 0.5 * X.price in the paper's
// Example 2) are alignment-dependent, so they are evaluated at runtime but
// deliberately excluded from the matrices (see Element.HasCross and the
// core package for how that keeps the optimization sound).
package pattern

import (
	"fmt"
	"strings"

	"sqlts/internal/constraint"
	"sqlts/internal/storage"
)

// Role says which tuple of the sliding window a field reference names.
type Role uint8

// The two alignment-independent roles. Cur is the tuple currently being
// tested; Prev is its immediate predecessor in the cluster's sequence.
const (
	Cur Role = iota
	Prev
)

// String returns "cur" or "prev".
func (r Role) String() string {
	if r == Prev {
		return "prev"
	}
	return "cur"
}

// Span is the inclusive input-index range [Start, End] matched by one
// pattern element. Star elements span one or more tuples; plain elements
// span exactly one.
type Span struct {
	Start, End int
	Set        bool
}

// Len returns the number of tuples covered (0 if unset).
func (s Span) Len() int {
	if !s.Set {
		return 0
	}
	return s.End - s.Start + 1
}

// EvalContext carries everything a condition may inspect at runtime.
type EvalContext struct {
	Seq  storage.Seq
	Pos  int    // index of the tuple being tested
	Bind []Span // per-element spans of the match in progress

	// rows is scratch for the tuples an opaque condition reads whole
	// from a sequence that has no rows of its own (a stream window),
	// made on first use: a context stays small for the search loops it
	// sits beside.
	rows *[2]storage.Row
}

// Cur returns the tuple under test.
func (c *EvalContext) Cur() storage.Row { return c.tuple(c.Pos, 0) }

// Prev returns the predecessor tuple and whether one exists.
func (c *EvalContext) Prev() (storage.Row, bool) {
	if c.Pos == 0 {
		return nil, false
	}
	return c.tuple(c.Pos-1, 1), true
}

// tuple returns position i as a row: the sequence's own, or its values
// decoded into scratch row k, valid until the next decode into it.
func (c *EvalContext) tuple(i, k int) storage.Row {
	if rows := c.Seq.Rows(); rows != nil {
		return rows[i]
	}
	if c.rows == nil {
		c.rows = new([2]storage.Row)
	}
	c.rows[k] = c.Seq.Row(i, c.rows[k])
	return c.rows[k]
}

// CondKind discriminates the evaluable condition forms.
type CondKind uint8

// Condition forms. The first four are analyzable; OpaqueCond is
// alignment-independent but not analyzable; CrossCond is
// alignment-dependent.
const (
	NumFieldConst  CondKind = iota // field(role,col) op C
	NumFieldField                  // field op field' + C
	NumFieldScaled                 // field op Coef * field'
	StrFieldLit                    // field op "Lit"
	StrFieldField                  // field op field'
	OpaqueCond                     // fn(cur, prev)
	CrossCond                      // fn(ctx)
	OrCond                         // disjunction of conjunctions of the above (minus CrossCond)
)

// Cond is one conjunct of a pattern element's predicate.
type Cond struct {
	Kind  CondKind
	Op    constraint.Op
	LCol  int
	LRole Role
	RCol  int
	RRole Role
	C     float64 // additive constant (NumFieldField) or constant (NumFieldConst)
	Coef  float64 // multiplier (NumFieldScaled)
	Lit   string  // string literal (StrFieldLit)
	Key   string  // canonical text for opaque/cross conditions
	Fn    func(cur, prev storage.Row) bool
	CtxFn func(ctx *EvalContext) bool
	// Branches holds an OrCond's alternatives; each branch is a
	// conjunction of alignment-independent conditions. The condition
	// holds when any branch's conditions all hold.
	Branches [][]Cond
}

// FieldConst builds field(role,col) op c.
func FieldConst(col int, role Role, op constraint.Op, c float64) Cond {
	return Cond{Kind: NumFieldConst, Op: op, LCol: col, LRole: role, C: c}
}

// FieldField builds field(lrole,lcol) op field(rrole,rcol) + c.
func FieldField(lcol int, lrole Role, op constraint.Op, rcol int, rrole Role, c float64) Cond {
	return Cond{Kind: NumFieldField, Op: op, LCol: lcol, LRole: lrole, RCol: rcol, RRole: rrole, C: c}
}

// FieldScaled builds field(lrole,lcol) op coef * field(rrole,rcol).
func FieldScaled(lcol int, lrole Role, op constraint.Op, coef float64, rcol int, rrole Role) Cond {
	return Cond{Kind: NumFieldScaled, Op: op, LCol: lcol, LRole: lrole, RCol: rcol, RRole: rrole, Coef: coef}
}

// FieldStr builds field(role,col) op "lit" (op must be = or ≠ to be
// analyzable; ordered string comparisons become opaque).
func FieldStr(col int, role Role, op constraint.Op, lit string) Cond {
	return Cond{Kind: StrFieldLit, Op: op, LCol: col, LRole: role, Lit: lit}
}

// FieldStrField builds field op field' over string columns.
func FieldStrField(lcol int, lrole Role, op constraint.Op, rcol int, rrole Role) Cond {
	return Cond{Kind: StrFieldField, Op: op, LCol: lcol, LRole: lrole, RCol: rcol, RRole: rrole}
}

// Opaque wraps an arbitrary alignment-independent predicate. key must be a
// canonical rendering: equal keys mean the same condition.
func Opaque(key string, fn func(cur, prev storage.Row) bool) Cond {
	return Cond{Kind: OpaqueCond, Key: key, Fn: fn}
}

// Cross wraps an alignment-dependent predicate that may inspect earlier
// pattern-variable bindings through the EvalContext.
func Cross(key string, fn func(ctx *EvalContext) bool) Cond {
	return Cond{Kind: CrossCond, Key: key, CtxFn: fn}
}

// Or builds a disjunctive condition from branches, each a conjunction of
// alignment-independent conditions (the §8 disjunctive-conditions
// extension). The condition holds when any branch holds, and the
// optimizer analyzes it as a DNF formula rather than an opaque atom.
func Or(branches ...[]Cond) Cond {
	return Cond{Kind: OrCond, Branches: branches}
}

// String renders the condition canonically against a schema-free vocabulary
// ("cur.3 < prev.3 + 2"); the sqlts layer renders user-facing text itself.
func (c Cond) String() string {
	f := func(col int, role Role) string { return fmt.Sprintf("%s.%d", role, col) }
	switch c.Kind {
	case NumFieldConst:
		return fmt.Sprintf("%s %s %g", f(c.LCol, c.LRole), c.Op, c.C)
	case NumFieldField:
		if c.C == 0 {
			return fmt.Sprintf("%s %s %s", f(c.LCol, c.LRole), c.Op, f(c.RCol, c.RRole))
		}
		return fmt.Sprintf("%s %s %s + %g", f(c.LCol, c.LRole), c.Op, f(c.RCol, c.RRole), c.C)
	case NumFieldScaled:
		return fmt.Sprintf("%s %s %g * %s", f(c.LCol, c.LRole), c.Op, c.Coef, f(c.RCol, c.RRole))
	case StrFieldLit:
		return fmt.Sprintf("%s %s %q", f(c.LCol, c.LRole), c.Op, c.Lit)
	case StrFieldField:
		return fmt.Sprintf("%s %s %s", f(c.LCol, c.LRole), c.Op, f(c.RCol, c.RRole))
	case OpaqueCond:
		return c.Key
	case CrossCond:
		return "cross:" + c.Key
	case OrCond:
		parts := make([]string, len(c.Branches))
		for i, br := range c.Branches {
			sub := make([]string, len(br))
			for k, bc := range br {
				sub[k] = bc.String()
			}
			parts[i] = "(" + strings.Join(sub, " AND ") + ")"
		}
		return strings.Join(parts, " OR ")
	default:
		return fmt.Sprintf("Cond(kind=%d)", c.Kind)
	}
}

// Element is one pattern element: a named tuple variable, its star flag,
// and its conjunction of conditions split into alignment-independent
// (Local) and alignment-dependent (CrossConds) parts.
type Element struct {
	Name       string
	Star       bool
	Local      []Cond
	CrossConds []Cond
	// Sys is the analyzable predicate (a DNF formula) for the Local
	// conditions, built by Compile. Opaque local conditions appear as
	// opaque atoms; disjunctive conditions contribute multiple disjuncts.
	Sys *constraint.Formula
}

// HasCross reports whether the element carries alignment-dependent
// conditions, which the optimizer must treat conservatively.
func (e *Element) HasCross() bool { return len(e.CrossConds) > 0 }

// Pattern is a compiled search pattern over rows of a fixed schema.
type Pattern struct {
	Schema *storage.Schema
	Elems  []Element
	// MissingPrevTrue selects the policy for conditions that reference the
	// predecessor of a cluster's first tuple: false (default) makes them
	// fail, true makes them hold vacuously. See DESIGN.md.
	MissingPrevTrue bool
	// PositiveCols marks columns declared to range over positive numbers,
	// enabling the §6 ratio transform for X op C*Y conditions.
	PositiveCols map[int]bool
}

// Options configure pattern compilation.
type Options struct {
	MissingPrevTrue bool
	// PositiveColumns lists schema columns with strictly positive domains
	// (e.g. prices), by name.
	PositiveColumns []string
}

// Compile validates elements against the schema and builds per-element
// constraint systems. The returned pattern is immutable by convention.
func Compile(schema *storage.Schema, elems []Element, opts Options) (*Pattern, error) {
	if len(elems) == 0 {
		return nil, fmt.Errorf("pattern: empty pattern")
	}
	p := &Pattern{Schema: schema, Elems: make([]Element, len(elems)), MissingPrevTrue: opts.MissingPrevTrue, PositiveCols: map[int]bool{}}
	for _, name := range opts.PositiveColumns {
		i, ok := schema.ColumnIndex(name)
		if !ok {
			return nil, fmt.Errorf("pattern: positive column %q not in schema %s", name, schema)
		}
		if !schema.Columns[i].Type.Numeric() {
			return nil, fmt.Errorf("pattern: positive column %q is not numeric", name)
		}
		p.PositiveCols[i] = true
	}
	seen := map[string]bool{}
	alloc := newVarAlloc()
	for i, e := range elems {
		if e.Name == "" {
			return nil, fmt.Errorf("pattern: element %d has no name", i+1)
		}
		if seen[e.Name] {
			return nil, fmt.Errorf("pattern: duplicate element name %q", e.Name)
		}
		seen[e.Name] = true
		for _, c := range append(append([]Cond(nil), e.Local...), e.CrossConds...) {
			if err := p.checkCond(c); err != nil {
				return nil, fmt.Errorf("pattern: element %s: %w", e.Name, err)
			}
		}
		sys, err := p.analyze(e.Local, alloc)
		if err != nil {
			return nil, fmt.Errorf("pattern: element %s: %w", e.Name, err)
		}
		p.Elems[i] = Element{
			Name:       e.Name,
			Star:       e.Star,
			Local:      append([]Cond(nil), e.Local...),
			CrossConds: append([]Cond(nil), e.CrossConds...),
			Sys:        sys,
		}
	}
	return p, nil
}

// MustCompile is Compile that panics on error; for tests and examples.
func MustCompile(schema *storage.Schema, elems []Element, opts Options) *Pattern {
	p, err := Compile(schema, elems, opts)
	if err != nil {
		panic(err)
	}
	return p
}

// Len returns the number of pattern elements (the paper's m).
func (p *Pattern) Len() int { return len(p.Elems) }

func (p *Pattern) checkCond(c Cond) error {
	checkNum := func(col int) error {
		if col < 0 || col >= p.Schema.Len() {
			return fmt.Errorf("column %d out of range", col)
		}
		if t := p.Schema.Columns[col].Type; !t.Numeric() && t != storage.TypeDate {
			return fmt.Errorf("column %q is %s, want numeric", p.Schema.Columns[col].Name, t)
		}
		return nil
	}
	checkStr := func(col int) error {
		if col < 0 || col >= p.Schema.Len() {
			return fmt.Errorf("column %d out of range", col)
		}
		if t := p.Schema.Columns[col].Type; t != storage.TypeString {
			return fmt.Errorf("column %q is %s, want VARCHAR", p.Schema.Columns[col].Name, t)
		}
		return nil
	}
	switch c.Kind {
	case NumFieldConst:
		return checkNum(c.LCol)
	case NumFieldField, NumFieldScaled:
		if err := checkNum(c.LCol); err != nil {
			return err
		}
		return checkNum(c.RCol)
	case StrFieldLit:
		return checkStr(c.LCol)
	case StrFieldField:
		if err := checkStr(c.LCol); err != nil {
			return err
		}
		return checkStr(c.RCol)
	case OpaqueCond:
		if c.Fn == nil || c.Key == "" {
			return fmt.Errorf("opaque condition needs key and fn")
		}
		return nil
	case CrossCond:
		if c.CtxFn == nil || c.Key == "" {
			return fmt.Errorf("cross condition needs key and fn")
		}
		return nil
	case OrCond:
		if len(c.Branches) == 0 {
			return fmt.Errorf("disjunction needs at least one branch")
		}
		for _, br := range c.Branches {
			for _, bc := range br {
				if bc.Kind == CrossCond {
					return fmt.Errorf("cross conditions cannot appear inside a disjunction")
				}
				if bc.Kind == OrCond {
					return fmt.Errorf("nested disjunctions are not supported; flatten the branches")
				}
				if err := p.checkCond(bc); err != nil {
					return err
				}
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown condition kind %d", c.Kind)
	}
}

// --- variable allocation for the constraint systems -------------------------

// varAlloc hands out constraint variables for (role, column) field
// references and for per-column ratio variables cur/prev. All elements of
// one pattern share the allocator so that θ/φ comparisons see the same
// variable space.
type varAlloc struct {
	next  constraint.Var
	field map[[2]int]constraint.Var // {col, role}
	ratio map[int]constraint.Var    // col → cur/prev ratio var
}

func newVarAlloc() *varAlloc {
	return &varAlloc{field: map[[2]int]constraint.Var{}, ratio: map[int]constraint.Var{}}
}

func (a *varAlloc) fieldVar(col int, role Role) constraint.Var {
	key := [2]int{col, int(role)}
	if v, ok := a.field[key]; ok {
		return v
	}
	v := a.next
	a.next++
	a.field[key] = v
	return v
}

func (a *varAlloc) ratioVar(col int) constraint.Var {
	if v, ok := a.ratio[col]; ok {
		return v
	}
	v := a.next
	a.next++
	a.ratio[col] = v
	return v
}

// analyze maps the local conditions to a DNF predicate formula.
func (p *Pattern) analyze(conds []Cond, alloc *varAlloc) (*constraint.Formula, error) {
	parts := make([]*constraint.Formula, 0, len(conds))
	for _, c := range conds {
		f, err := p.condFormula(c, alloc)
		if err != nil {
			return nil, err
		}
		parts = append(parts, f)
	}
	return constraint.AndF(parts...), nil
}

// condFormula maps one condition to a formula: atomic conditions become
// one-atom systems, disjunctions become multi-disjunct formulas.
func (p *Pattern) condFormula(c Cond, alloc *varAlloc) (*constraint.Formula, error) {
	if c.Kind == OrCond {
		branches := make([]*constraint.Formula, 0, len(c.Branches))
		for _, br := range c.Branches {
			bf := make([]*constraint.Formula, 0, len(br))
			for _, bc := range br {
				f, err := p.condFormula(bc, alloc)
				if err != nil {
					return nil, err
				}
				bf = append(bf, f)
			}
			branches = append(branches, constraint.AndF(bf...))
		}
		return constraint.OrF(branches...), nil
	}
	sys := &constraint.System{}
	switch c.Kind {
	case NumFieldConst:
		sys.AddNum(constraint.NewAtomVC(alloc.fieldVar(c.LCol, c.LRole), c.Op, c.C))
	case NumFieldField:
		sys.AddNum(constraint.NewAtomVVC(alloc.fieldVar(c.LCol, c.LRole), c.Op, alloc.fieldVar(c.RCol, c.RRole), c.C))
	case NumFieldScaled:
		atom, ok := p.ratioAtom(c, alloc)
		if ok {
			sys.AddNum(atom)
		} else {
			// Not transformable: keep it sound as an opaque atom.
			sys.AddOpaque(constraint.OpaqueAtom{Key: c.String()})
		}
	case StrFieldLit:
		if c.Op == constraint.Eq || c.Op == constraint.Ne {
			sys.AddStr(constraint.NewStrAtomVL(alloc.fieldVar(c.LCol, c.LRole), c.Op, c.Lit))
		} else {
			sys.AddOpaque(constraint.OpaqueAtom{Key: c.String()})
		}
	case StrFieldField:
		if c.Op == constraint.Eq || c.Op == constraint.Ne {
			sys.AddStr(constraint.NewStrAtomVV(alloc.fieldVar(c.LCol, c.LRole), c.Op, alloc.fieldVar(c.RCol, c.RRole)))
		} else {
			sys.AddOpaque(constraint.OpaqueAtom{Key: c.String()})
		}
	case OpaqueCond:
		sys.AddOpaque(constraint.OpaqueAtom{Key: c.Key})
	default:
		return nil, fmt.Errorf("condition %s is not local", c)
	}
	// A constant folded to NaN or ±Inf is no rational: reject it here, as
	// an error of the statement, before the solver meets it.
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("condition %s: %w", c, err)
	}
	return constraint.FromSystem(sys), nil
}

// ratioAtom applies the §6 transform X op C*Y → (X/Y) op C. It fires for
// cur-vs-prev comparisons on one positive-domain column, in either
// orientation, with a positive coefficient.
func (p *Pattern) ratioAtom(c Cond, alloc *varAlloc) (constraint.Atom, bool) {
	if c.LCol != c.RCol || !p.PositiveCols[c.LCol] || c.Coef <= 0 {
		return constraint.Atom{}, false
	}
	r := alloc.ratioVar(c.LCol)
	switch {
	case c.LRole == Cur && c.RRole == Prev:
		// cur op coef*prev  ⇔  cur/prev op coef (prev > 0).
		return constraint.NewAtomVC(r, c.Op, c.Coef), true
	case c.LRole == Prev && c.RRole == Cur:
		// prev op coef*cur ⇔ 1 op coef*(cur/prev) ⇔ cur/prev flip(op) 1/coef.
		return constraint.NewAtomVC(r, c.Op.Flip(), 1/c.Coef), true
	default:
		return constraint.Atom{}, false
	}
}

// --- runtime evaluation ------------------------------------------------------

// EvalElem evaluates pattern element j (0-based) at ctx. This is the
// operation the paper's experiments count.
func (p *Pattern) EvalElem(j int, ctx *EvalContext) bool {
	e := &p.Elems[j]
	for i := range e.Local {
		if !p.evalCond(&e.Local[i], ctx) {
			return false
		}
	}
	for i := range e.CrossConds {
		if !e.CrossConds[i].CtxFn(ctx) {
			return false
		}
	}
	return true
}

func (p *Pattern) evalCond(c *Cond, ctx *EvalContext) bool {
	// A field is read at position i less its role (cur 0, prev 1).
	seq, i := &ctx.Seq, ctx.Pos
	if c.Kind != OpaqueCond && c.Kind != CrossCond && c.Kind != OrCond && i == 0 {
		if c.LRole == Prev || ((c.Kind == NumFieldField || c.Kind == NumFieldScaled || c.Kind == StrFieldField) && c.RRole == Prev) {
			return p.MissingPrevTrue
		}
	}
	switch c.Kind {
	case NumFieldConst:
		v := seq.At(i-int(c.LRole), c.LCol)
		if v.IsNull() {
			return false
		}
		return cmpNum(v.Num(), c.C, c.Op)
	case NumFieldField:
		l, r := seq.At(i-int(c.LRole), c.LCol), seq.At(i-int(c.RRole), c.RCol)
		if l.IsNull() || r.IsNull() {
			return false
		}
		return cmpNum(l.Num(), r.Num()+c.C, c.Op)
	case NumFieldScaled:
		l, r := seq.At(i-int(c.LRole), c.LCol), seq.At(i-int(c.RRole), c.RCol)
		if l.IsNull() || r.IsNull() {
			return false
		}
		return cmpNum(l.Num(), c.Coef*r.Num(), c.Op)
	case StrFieldLit:
		v := seq.At(i-int(c.LRole), c.LCol)
		if v.IsNull() {
			return false
		}
		return cmpStr(v.Str(), c.Lit, c.Op)
	case StrFieldField:
		l, r := seq.At(i-int(c.LRole), c.LCol), seq.At(i-int(c.RRole), c.RCol)
		if l.IsNull() || r.IsNull() {
			return false
		}
		return cmpStr(l.Str(), r.Str(), c.Op)
	case OpaqueCond:
		prev, _ := ctx.Prev()
		return c.Fn(ctx.Cur(), prev)
	case CrossCond:
		return c.CtxFn(ctx)
	case OrCond:
		for i := range c.Branches {
			all := true
			for k := range c.Branches[i] {
				if !p.evalCond(&c.Branches[i][k], ctx) {
					all = false
					break
				}
			}
			if all {
				return true
			}
		}
		return false
	default:
		return false
	}
}

func cmpNum(a, b float64, op constraint.Op) bool {
	switch op {
	case constraint.Eq:
		return a == b
	case constraint.Ne:
		return a != b
	case constraint.Lt:
		return a < b
	case constraint.Le:
		return a <= b
	case constraint.Gt:
		return a > b
	case constraint.Ge:
		return a >= b
	default:
		return false
	}
}

func cmpStr(a, b string, op constraint.Op) bool {
	switch op {
	case constraint.Eq:
		return a == b
	case constraint.Ne:
		return a != b
	case constraint.Lt:
		return a < b
	case constraint.Le:
		return a <= b
	case constraint.Gt:
		return a > b
	case constraint.Ge:
		return a >= b
	default:
		return false
	}
}

// String renders the pattern shape, e.g. "(X, *Y, Z)".
func (p *Pattern) String() string {
	parts := make([]string, len(p.Elems))
	for i, e := range p.Elems {
		if e.Star {
			parts[i] = "*" + e.Name
		} else {
			parts[i] = e.Name
		}
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
