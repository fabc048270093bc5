package storage

import (
	"fmt"
	"math"
	"slices"
)

// Seq is a read view of one cluster's sequence: position i's column col
// is At(i, col). It is a concrete value, so passing one allocates nothing,
// over one of two sources: a cluster's rows (RowSeq), or a stream
// window's typed regions (Window.Seq). The interpreter, cross conditions
// and SELECT read every sequence through it. Its methods take a pointer:
// a read through a value receiver copies the view's six words first.
type Seq struct {
	rows  []Row
	w     *Window
	lo, n int
}

// RowSeq views rows as a sequence.
func RowSeq(rows []Row) Seq { return Seq{rows: rows, n: len(rows)} }

// Len returns the number of positions.
func (s *Seq) Len() int { return s.n }

// At returns position i's column col, by value. i must be in [0, Len).
func (s *Seq) At(i, col int) Value {
	if s.w == nil {
		return s.rows[i][col]
	}
	return s.w.at(s.lo+i, col)
}

// Row returns position i as a row, for a caller that needs the tuple
// whole (an opaque condition): a RowSeq's own row, with dst unused, or a
// window's values decoded into dst, which grows when it is short.
func (s *Seq) Row(i int, dst Row) Row {
	if s.w == nil {
		return s.rows[i]
	}
	return s.w.row(s.lo+i, dst)
}

// Rows returns a RowSeq's rows, nil for a window's view.
func (s *Seq) Rows() []Row { return s.rows }

// A WindowSet lays out the typed windows of a stream's clusters: the
// region each column's values are held in, and each cluster's CLUSTER BY
// values, held once. A window holds a region of capacity values per
// column, of the column's own type: REAL as float64, INT, DATE and BOOL
// as int64, STRING as string, and a null flag per value. None of the
// numeric regions holds a pointer. A REAL region is also the float64
// column the kernel's projection reads (Window.Project); a projected
// INT or DATE column has a float64 region beside its int64 one, widened
// as the projection widens it.
//
// A CLUSTER BY column is the same in every tuple of a cluster, so it has
// no region unless the kernel projects it: it is held once per cluster,
// in dense arrays by cluster id, which is also what routing compares a
// tuple with (SameKey). A REAL key is the exception: NaNs of different
// payloads are one cluster (AppendKey writes every NaN alike), so its
// values are kept per slot and the held copy only routes.
type WindowSet struct {
	types []Type
	loc   []colLoc
	// The columns whose values each kind of region holds, in region
	// order: the float64 regions are reals' then wides' (projected INT
	// and DATE columns widened), and nulls has a flag region per column
	// with any region.
	reals, wides, ints, strs, nulls []int
	// The projection's columns and the regions it reads them from: the
	// float64 regions of its numeric columns, the string regions of its
	// string columns, and the null regions of both.
	projNum, projStr, projNull []colRegion

	// The held keys: cluster id's key column k is heldNull[id*len(key)+k],
	// and, when not NULL, heldNum or heldStr at id*numKeys+keyAt[k] or
	// id*strKeys+keyAt[k] (REAL as its bits).
	key              []int
	keyAt            []int
	numKeys, strKeys int
	heldNum          []int64
	heldStr          []string
	heldNull         []bool
	clusters         int32
}

// colLoc is where At finds a column: a region (reg, with its null flags
// in null region nul) or a held key (reg indexes the cluster's held
// values of the kind, nul its held null flags).
type colLoc struct {
	kind     uint8
	typ      Type
	reg, nul int32
}

// The kinds of colLoc.
const (
	inF64 uint8 = iota
	inI64
	inStr
	heldNum
	heldStr
)

// colRegion names column col's region reg of one element type.
type colRegion struct{ col, reg int }

// NewWindowSet lays out windows over schema, holding the key columns
// once per cluster, with no column projected (Reproject attaches a
// kernel's projection).
func NewWindowSet(schema *Schema, key []int) *WindowSet {
	ws := &WindowSet{key: key, keyAt: make([]int, len(key))}
	for _, c := range schema.Columns {
		ws.types = append(ws.types, c.Type)
	}
	for k, c := range key {
		if ws.types[c] == TypeString {
			ws.keyAt[k] = ws.strKeys
			ws.strKeys++
		} else {
			ws.keyAt[k] = ws.numKeys
			ws.numKeys++
		}
	}
	ws.Reproject(nil)
	return ws
}

// Reproject lays out windows for projection proj (nil for none), whose
// projected columns then get regions the projection reads in place
// (Window.Project). Windows made before are not relaid: the caller
// replaces them (Empty).
func (ws *WindowSet) Reproject(proj *Projection) {
	var numCols, strCols []int
	if proj != nil {
		numCols, strCols = proj.numCols, proj.strCols
	}
	ws.reals, ws.wides, ws.ints, ws.strs, ws.nulls = nil, nil, nil, nil, nil
	ws.projNum, ws.projStr, ws.projNull = nil, nil, nil
	ws.loc = make([]colLoc, len(ws.types))
	for c, t := range ws.types {
		l := &ws.loc[c]
		l.typ = t
		numProj, strProj := slices.Contains(numCols, c), slices.Contains(strCols, c)
		if k := slices.Index(ws.key, c); k >= 0 && t != TypeFloat && !numProj && !strProj {
			l.kind, l.reg, l.nul = heldNum, int32(ws.keyAt[k]), int32(k)
			if t == TypeString {
				l.kind = heldStr
			}
			continue
		}
		l.nul = int32(len(ws.nulls))
		ws.nulls = append(ws.nulls, c)
		if numProj || strProj {
			ws.projNull = append(ws.projNull, colRegion{c, int(l.nul)})
		}
		switch t {
		case TypeFloat:
			l.kind, l.reg = inF64, int32(len(ws.reals))
			ws.reals = append(ws.reals, c)
		case TypeString:
			l.kind, l.reg = inStr, int32(len(ws.strs))
			ws.strs = append(ws.strs, c)
			if strProj {
				ws.projStr = append(ws.projStr, colRegion{c, int(l.reg)})
			}
		default:
			l.kind, l.reg = inI64, int32(len(ws.ints))
			ws.ints = append(ws.ints, c)
			if numProj {
				ws.wides = append(ws.wides, c)
			}
		}
	}
	// A projected REAL column's float64 region is its values'; an INT or
	// DATE column's is its widened copy, after the reals'.
	for _, c := range numCols {
		r := int(ws.loc[c].reg)
		if ws.types[c] != TypeFloat {
			r = len(ws.reals) + slices.Index(ws.wides, c)
		}
		ws.projNum = append(ws.projNum, colRegion{c, r})
	}
}

// Check reports a tuple whose arity or value types do not fit the
// schema: a typed region holds only its column's type (or NULL).
func (ws *WindowSet) Check(row Row) error {
	if len(row) != len(ws.types) {
		return fmt.Errorf("storage: window tuple arity %d, want %d", len(row), len(ws.types))
	}
	for c, t := range ws.types {
		if v := row[c].typ; v != t && v != TypeNull {
			return fmt.Errorf("storage: window column %d holds %s, got %s", c, t, v)
		}
	}
	return nil
}

// Open holds the CLUSTER BY values of key (a tuple of the new cluster;
// nil when there are no key columns) and returns the new cluster's
// window of capacity empty slots. Cluster ids are dense, in Open order.
func (ws *WindowSet) Open(key Row, capacity int) Window {
	id := ws.clusters
	if int(id) == cap(ws.heldNull) && len(ws.key) > 0 {
		// Double exactly, as the stream's records do.
		n := max(1, 2*int(id))
		ws.heldNull = append(make([]bool, 0, n*len(ws.key)), ws.heldNull...)
		ws.heldNum = append(make([]int64, 0, n*ws.numKeys), ws.heldNum...)
		ws.heldStr = append(make([]string, 0, n*ws.strKeys), ws.heldStr...)
	}
	for _, c := range ws.key {
		v := &key[c]
		ws.heldNull = append(ws.heldNull, v.typ == TypeNull)
		if ws.types[c] == TypeString {
			ws.heldStr = append(ws.heldStr, v.s)
		} else {
			ws.heldNum = append(ws.heldNum, keyBits(v))
		}
	}
	ws.clusters++
	return ws.Empty(id, capacity)
}

// keyBits is a held numeric key value: a REAL's bits, which tell -0 from
// +0 as the routing key does, or the integer payload.
func keyBits(v *Value) int64 {
	if v.typ == TypeFloat {
		return int64(math.Float64bits(v.f))
	}
	return v.i
}

// SameKey reports whether row's CLUSTER BY values are cluster id's held
// key: the same type and payload, a REAL by its bits. It may report false
// for values whose routing keys agree (two NaNs of different bits), never
// true for values whose keys differ (-0 and +0 are two keys, NULL is not
// the string 'NULL').
func (ws *WindowSet) SameKey(id int32, row Row) bool {
	nk := len(ws.key)
	for k, c := range ws.key {
		v := &row[c]
		if ws.heldNull[int(id)*nk+k] {
			if v.typ != TypeNull {
				return false
			}
			continue
		}
		if v.typ == TypeNull {
			return false
		}
		if ws.types[c] == TypeString {
			if ws.heldStr[int(id)*ws.strKeys+ws.keyAt[k]] != v.s {
				return false
			}
		} else if ws.heldNum[int(id)*ws.numKeys+ws.keyAt[k]] != keyBits(v) {
			return false
		}
	}
	return true
}

// Empty returns an empty window of capacity slots for cluster id, whose
// key is held: a new cluster's first, or a larger one for a window that
// grows (Window.Copy carries its live slots over).
func (ws *WindowSet) Empty(id int32, capacity int) Window {
	w := Window{set: ws, id: id, cap: int32(capacity)}
	if n := (len(ws.reals) + len(ws.wides)) * capacity; n > 0 {
		w.f64 = make([]float64, n)
	}
	if n := len(ws.ints) * capacity; n > 0 {
		w.i64 = make([]int64, n)
	}
	if n := len(ws.strs) * capacity; n > 0 {
		w.str = make([]string, n)
	}
	if n := len(ws.nulls) * capacity; n > 0 {
		w.null = make([]bool, n)
	}
	return w
}

// Window is one cluster's typed window: cap slots in each of its set's
// regions, a region's slots contiguous (slot s of region r is at
// r*cap+s), one slab per element type.
type Window struct {
	set  *WindowSet
	id   int32
	cap  int32
	f64  []float64
	i64  []int64
	str  []string
	null []bool
}

// Cap returns the window's capacity in slots.
func (w *Window) Cap() int { return int(w.cap) }

// Seq views slots [lo, lo+n) as a sequence: its position i is slot lo+i.
func (w *Window) Seq(lo, n int) Seq { return Seq{w: w, lo: lo, n: n} }

// Set decodes row, which Check accepts, into slot s: each value into its
// column's regions, a NULL as a set flag and a zero payload. Held key
// columns are not written.
func (w *Window) Set(s int, row Row) {
	ws, c := w.set, int(w.cap)
	for r, col := range ws.reals {
		w.f64[r*c+s] = row[col].f
	}
	for r, col := range ws.wides {
		w.f64[(len(ws.reals)+r)*c+s] = float64(row[col].i)
	}
	for r, col := range ws.ints {
		w.i64[r*c+s] = row[col].i
	}
	for r, col := range ws.strs {
		w.str[r*c+s] = row[col].s
	}
	for r, col := range ws.nulls {
		w.null[r*c+s] = row[col].typ == TypeNull
	}
}

// Copy copies slots [from, from+n) of src, a window of the same set and
// cluster, to slots [0, n) of w: a compaction when src is w, a growth's
// carry-over when w is larger.
func (w *Window) Copy(src *Window, from, n int) {
	copyRegions(w.f64, int(w.cap), src.f64, int(src.cap), from, n)
	copyRegions(w.i64, int(w.cap), src.i64, int(src.cap), from, n)
	copyRegions(w.str, int(w.cap), src.str, int(src.cap), from, n)
	copyRegions(w.null, int(w.cap), src.null, int(src.cap), from, n)
}

// copyRegions copies slots [from, from+n) of each region of src, srcCap
// slots long, to slots [0, n) of dst's, dstCap long.
func copyRegions[T any](dst []T, dstCap int, src []T, srcCap, from, n int) {
	for r := 0; r*srcCap < len(src); r++ {
		copy(dst[r*dstCap:r*dstCap+n], src[r*srcCap+from:r*srcCap+from+n])
	}
}

// Project points the projected columns of p, the set's projection, at
// the window's regions: the kernel's row probes read the window in place,
// and a tuple Set decodes is in the projection at once.
func (w *Window) Project(p *Projection) {
	ws, c := w.set, int(w.cap)
	for _, cr := range ws.projNum {
		p.Num[cr.col] = w.f64[cr.reg*c : (cr.reg+1)*c : (cr.reg+1)*c]
	}
	for _, cr := range ws.projStr {
		p.Str[cr.col] = w.str[cr.reg*c : (cr.reg+1)*c : (cr.reg+1)*c]
	}
	for _, cr := range ws.projNull {
		p.Null[cr.col] = w.null[cr.reg*c : (cr.reg+1)*c : (cr.reg+1)*c]
	}
}

// at returns slot s's column col.
func (w *Window) at(s, col int) Value {
	ws, c := w.set, int(w.cap)
	l := &ws.loc[col]
	switch l.kind {
	case inF64, inI64, inStr:
		if w.null[int(l.nul)*c+s] {
			return Null
		}
		k := int(l.reg)*c + s
		switch l.kind {
		case inF64:
			return Value{typ: TypeFloat, f: w.f64[k]}
		case inI64:
			return Value{typ: l.typ, i: w.i64[k]}
		}
		return Value{typ: TypeString, s: w.str[k]}
	}
	if ws.heldNull[int(w.id)*len(ws.key)+int(l.nul)] {
		return Null
	}
	if l.kind == heldStr {
		return Value{typ: TypeString, s: ws.heldStr[int(w.id)*ws.strKeys+int(l.reg)]}
	}
	return Value{typ: l.typ, i: ws.heldNum[int(w.id)*ws.numKeys+int(l.reg)]}
}

// row decodes slot s into dst, grown to the width when it is short.
func (w *Window) row(s int, dst Row) Row {
	n := len(w.set.types)
	if cap(dst) < n {
		dst = make(Row, n)
	}
	dst = dst[:n]
	for col := range dst {
		dst[col] = w.at(s, col)
	}
	return dst
}
