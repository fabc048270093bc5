package storage

import (
	"fmt"
	"slices"
)

// Projection is a columnar view of a row sequence: for each referenced
// column, the values decoded once into a flat array — numerics and dates
// widened to float64, strings kept as-is — plus a per-column null mask.
// The pattern kernels (internal/pattern) evaluate their compiled
// predicate chains against these arrays instead of re-decoding boxed
// Values on every probe, which is where the interpreter spends most of
// its time.
//
// A Projection covers one cluster (or one streaming window, whose
// columns the stream points at its window's own and decodes a row at a
// time with SetRow). Arrays are indexed by schema column number; columns
// that were not requested stay nil. Reset retains capacity so executors
// can reuse one Projection across clusters; Reserve sizes every column at
// once from one slab per element type.
type Projection struct {
	// Num[c][i] is row i's column c widened to float64 (dates as
	// days-since-epoch). Nil for columns not projected numerically.
	Num [][]float64
	// Str[c][i] is row i's column c string payload. Nil for columns not
	// projected as strings.
	Str [][]string
	// Null[c][i] reports whether row i's column c is NULL. Non-nil for
	// every projected column (numeric or string).
	Null [][]bool

	numCols []int
	strCols []int
	n       int
}

// NewProjection prepares a projection over a width-column schema that
// will decode numCols numerically and strCols as strings. A column may
// appear in both lists. Column indexes must be in [0, width). The lists
// are retained, not copied (a stream builds one projection per cluster
// from its kernel's lists); the caller must not modify them afterwards.
func NewProjection(width int, numCols, strCols []int) *Projection {
	p := &Projection{
		Num:     make([][]float64, width),
		Str:     make([][]string, width),
		Null:    make([][]bool, width),
		numCols: numCols,
		strCols: strCols,
	}
	for _, cols := range [2][]int{numCols, strCols} {
		for _, c := range cols {
			if c < 0 || c >= width {
				panic(fmt.Sprintf("storage: projection column %d out of range [0,%d)", c, width))
			}
			p.Null[c] = []bool{}
		}
	}
	for _, c := range numCols {
		p.Num[c] = []float64{}
	}
	for _, c := range strCols {
		p.Str[c] = []string{}
	}
	return p
}

// Covers reports whether the projection was prepared (NewProjection) for
// exactly these columns over a width-column schema, so that one built for
// another consumer of the same columns can be reused as scratch.
func (p *Projection) Covers(width int, numCols, strCols []int) bool {
	return len(p.Null) == width && slices.Equal(p.numCols, numCols) && slices.Equal(p.strCols, strCols)
}

// Reserve gives every column room for rows rows, keeping its content:
// the columns of each element type are carved from one slab, so however
// many columns are projected a resize costs one allocation per type, and
// SetRows allocates nothing until rows is exceeded.
func (p *Projection) Reserve(rows int) {
	rows = max(rows, p.n)
	reserve(p.Num, rows)
	reserve(p.Str, rows)
	reserve(p.Null, rows)
}

// Grow is Reserve only when some column lacks room for rows rows: a
// projection that has held as many allocates nothing.
func (p *Projection) Grow(rows int) {
	if short(p.Num, rows) || short(p.Str, rows) || short(p.Null, rows) {
		p.Reserve(rows)
	}
}

// reserve re-carves the non-nil columns of cols from one slab with room
// for rows rows each, keeping their content.
func reserve[T any](cols [][]T, rows int) {
	n := 0
	for _, col := range cols {
		if col != nil {
			n++
		}
	}
	slab := make([]T, n*rows)
	for c, col := range cols {
		if col != nil {
			cols[c] = slab[:copy(slab[:rows], col):rows]
			slab = slab[rows:]
		}
	}
}

// Len returns the number of projected rows.
func (p *Projection) Len() int { return p.n }

// Reset truncates the projection to zero rows, retaining capacity.
func (p *Projection) Reset() {
	for _, c := range p.numCols {
		p.Num[c] = p.Num[c][:0]
	}
	for _, c := range p.strCols {
		p.Str[c] = p.Str[c][:0]
	}
	for c := range p.Null {
		if p.Null[c] != nil {
			p.Null[c] = p.Null[c][:0]
		}
	}
	p.n = 0
}

// SetRow decodes row r into row i of every projected column, which
// must be at least i+1 long; Len is unchanged. It is SetRows for one row
// of columns a caller points at storage of its own (a streaming window's
// columns, one row per push).
func (p *Projection) SetRow(i int, r Row) {
	for _, c := range p.numCols {
		v := &r[c]
		p.Num[c][i] = numOf(v)
		p.Null[c][i] = v.typ == TypeNull
	}
	for _, c := range p.strCols {
		v := &r[c]
		p.Str[c][i] = strOf(v)
		p.Null[c][i] = v.typ == TypeNull
	}
}

// numOf is *v as a numeric column holds it: a number widened to float64,
// a date as its days since the epoch, NULL as 0 (its null flag says
// which). It takes a pointer so that the type tag is read in place: a
// Value passed by value is spilled with a byte store that a wider load
// then reads back, which the store buffer cannot forward.
func numOf(v *Value) float64 {
	switch v.typ {
	case TypeFloat, TypeNull: // NULL's payload is zero
		return v.f
	case TypeInt, TypeDate:
		return float64(v.i)
	}
	return notProjected(v.typ)
}

// strOf is *v as a string column holds it: NULL as "".
func strOf(v *Value) string {
	if v.typ != TypeString && v.typ != TypeNull {
		notProjected(v.typ)
	}
	return v.s // NULL's payload is zero
}

// notProjected panics on a value its projected column cannot hold (the
// schema's types rule it out). It is out of line, and typed as numOf's
// result, so that numOf and strOf stay cheap enough to inline.
//
//go:noinline
func notProjected(t Type) float64 {
	panic("storage: cannot project a " + t.String() + " value")
}

// SetRows resets the projection and decodes rows — the once-per-cluster
// projection step of batch execution. It sizes every column once
// (Grow) and decodes column by column: each
// pass writes one dense array and reads one field of every row.
func (p *Projection) SetRows(rows []Row) {
	p.Reset()
	n := len(rows)
	p.Grow(n)
	for _, c := range p.numCols {
		num := p.Num[c][:n]
		for i, r := range rows {
			num[i] = numOf(&r[c])
		}
		p.Num[c] = num
	}
	for _, c := range p.strCols {
		str := p.Str[c][:n]
		for i, r := range rows {
			str[i] = strOf(&r[c])
		}
		p.Str[c] = str
	}
	for c, null := range p.Null {
		if null != nil {
			null = null[:n]
			for i, r := range rows {
				null[i] = r[c].IsNull()
			}
			p.Null[c] = null
		}
	}
	p.n = n
}

// short reports whether some projected column of cols lacks room for n
// rows.
func short[T any](cols [][]T, n int) bool {
	for _, col := range cols {
		if col != nil && cap(col) < n {
			return true
		}
	}
	return false
}
