package storage

import (
	"math"
	"testing"
)

func windowSchema() *Schema {
	return MustSchema(
		Column{Name: "sym", Type: TypeString},
		Column{Name: "lvl", Type: TypeFloat},
		Column{Name: "day", Type: TypeDate},
		Column{Name: "qty", Type: TypeInt},
		Column{Name: "px", Type: TypeFloat},
		Column{Name: "up", Type: TypeBool},
		Column{Name: "note", Type: TypeString},
		Column{Name: "grp", Type: TypeInt},
	)
}

// sameValue reports whether two values are one value: type and payload,
// a REAL's bits included.
func sameValue(a, b Value) bool {
	if a.typ == TypeFloat && b.typ == TypeFloat {
		return math.Float64bits(a.f) == math.Float64bits(b.f)
	}
	return a == b
}

// TestWindowHoldsEveryKind: a typed window gives back, through its Seq
// view, every value it was given, whatever the column's type or its
// being NULL, with the key columns held once per cluster (sym, a STRING,
// and grp, an INT) or per slot (lvl, a REAL, and qty, which the
// projection reads); a compaction and a growth keep them; and the
// projection reads the window's own regions, numbers widened as SetRows
// widens them.
func TestWindowHoldsEveryKind(t *testing.T) {
	s := windowSchema()
	key := []int{0, 1, 3, 7}
	proj := NewProjection(s.Len(), []int{2, 3, 4}, []int{6})
	ws := NewWindowSet(s, key)
	ws.Reproject(proj)
	nan := math.Float64frombits(0x7ff8000000000005)
	rows := []Row{
		{NewString("A"), NewFloat(nan), NewDateDays(1), NewInt(7), NewFloat(1.5), NewBool(true), NewString("x"), NewInt(3)},
		{NewString("A"), NewFloat(math.NaN()), NewDateDays(2), Null, NewFloat(math.Copysign(0, -1)), Null, Null, NewInt(3)},
		{NewString("A"), NewFloat(nan), Null, NewInt(-1 << 60), Null, NewBool(false), NewString("y"), NewInt(3)},
		{NewString("A"), NewFloat(nan), NewDateDays(4), NewInt(9), NewFloat(2), NewBool(true), NewString(""), NewInt(3)},
	}
	other := ws.Open(Row{Null, Null, Null, Null, Null, Null, Null, NewInt(3)}, 4)
	w := ws.Open(rows[0], 4)
	for i, r := range rows {
		if err := ws.Check(r); err != nil {
			t.Fatal(err)
		}
		w.Set(i, r)
	}
	check := func(label string, seq Seq, want []Row) {
		t.Helper()
		if seq.Len() != len(want) {
			t.Fatalf("%s: Len %d, want %d", label, seq.Len(), len(want))
		}
		for i, r := range want {
			got := seq.Row(i, nil)
			for c, v := range r {
				if !sameValue(seq.At(i, c), v) || !sameValue(got[c], v) {
					t.Errorf("%s: position %d column %d is %v, want %v", label, i, c, seq.At(i, c), v)
				}
			}
		}
	}
	check("set", w.Seq(0, 4), rows)
	check("view from slot 1", w.Seq(1, 3), rows[1:])

	w.Project(proj)
	for i, r := range rows {
		for _, c := range []int{2, 3, 4} {
			v := r[c]
			if proj.Null[c][i] != v.IsNull() || (!v.IsNull() && math.Float64bits(proj.Num[c][i]) != math.Float64bits(numOf(&v))) {
				t.Errorf("projection row %d column %d: %v (null %v), want %v", i, c, proj.Num[c][i], proj.Null[c][i], v)
			}
		}
		if proj.Str[6][i] != strOf(&r[6]) || proj.Null[6][i] != r[6].IsNull() {
			t.Errorf("projection row %d column 6: %q, want %v", i, proj.Str[6][i], r[6])
		}
	}

	w.Copy(&w, 2, 2) // a compaction: slots 2 and 3 to 0 and 1
	check("compacted", w.Seq(0, 2), rows[2:])
	grown := ws.Empty(1, 8)
	grown.Copy(&w, 0, 2)
	grown.Set(2, rows[0])
	check("grown", grown.Seq(0, 3), []Row{rows[2], rows[3], rows[0]})

	// The other cluster's NULL keys stay NULL, and its held grp is its own.
	other.Set(0, Row{Null, Null, NewDateDays(5), Null, Null, Null, Null, NewInt(4)})
	check("other", other.Seq(0, 1), []Row{{Null, Null, NewDateDays(5), Null, Null, Null, Null, NewInt(3)}})
}

// TestWindowSameKey: routing compares a tuple with a cluster's held key
// as the routing map keys it, apart from NaN payloads: -0 and +0 differ,
// NULL and the string 'NULL' differ, and a NaN of another payload is not
// the held key (the map then finds the one cluster of every NaN).
func TestWindowSameKey(t *testing.T) {
	s := windowSchema()
	ws := NewWindowSet(s, []int{0, 1})
	keys := []Row{
		{NewString("A"), NewFloat(0)},
		{NewString("A"), NewFloat(math.Copysign(0, -1))},
		{Null, NewFloat(1)},
		{NewString("NULL"), NewFloat(1)},
		{NewString("A"), NewFloat(math.NaN())},
	}
	full := func(k Row) Row {
		r := make(Row, s.Len())
		copy(r, k)
		return r
	}
	for _, k := range keys {
		ws.Open(full(k), 4)
	}
	for id, k := range keys {
		for j, o := range keys {
			if got := ws.SameKey(int32(id), full(o)); got != (id == j) {
				t.Errorf("cluster %d (%v) against %v: SameKey %v", id, k, o, got)
			}
		}
	}
	if ws.SameKey(4, full(Row{NewString("A"), NewFloat(math.Float64frombits(0x7ff8000000000009))})) {
		t.Error("a NaN of another payload reads as the held key")
	}
}
