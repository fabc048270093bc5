package pattern

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sqlts/internal/constraint"
	"sqlts/internal/storage"
)

func vecSchema() *storage.Schema {
	return storage.MustSchema(
		storage.Column{Name: "a", Type: storage.TypeFloat},
		storage.Column{Name: "b", Type: storage.TypeFloat},
		storage.Column{Name: "s", Type: storage.TypeString},
		storage.Column{Name: "t", Type: storage.TypeString},
	)
}

// vecRows draws n rows over vecSchema from small value sets, so that every
// operator fires and fails often; with nulls, about one value in eight is
// NULL, and one float in sixteen is NaN.
func vecRows(r *rand.Rand, n int, nulls bool) []storage.Row {
	strs := []string{"", "a", "b", "ab"}
	rows := make([]storage.Row, n)
	for i := range rows {
		row := storage.Row{
			storage.NewFloat(float64(r.Intn(4))), storage.NewFloat(float64(r.Intn(4)) / 2),
			storage.NewString(strs[r.Intn(4)]), storage.NewString(strs[r.Intn(4)]),
		}
		for c := range row {
			switch {
			case nulls && r.Intn(8) == 0:
				row[c] = storage.Null
			case c < 2 && r.Intn(16) == 0:
				row[c] = storage.NewFloat(math.NaN())
			}
		}
		rows[i] = row
	}
	return rows
}

var allOps = []constraint.Op{constraint.Eq, constraint.Ne, constraint.Lt, constraint.Le, constraint.Gt, constraint.Ge}

// checkMasks asserts that every vectorized element's mask equals the row
// kernel's (and the interpreter's) verdict bit for bit and carries
// nothing past row n.
func checkMasks(t *testing.T, label string, p *Pattern, k *Kernel, rows []storage.Row, proj *storage.Projection, ms *MaskSet) {
	t.Helper()
	n := len(rows)
	if ms.Rows() != n {
		t.Fatalf("%s: masks cover %d rows, want %d", label, ms.Rows(), n)
	}
	ctx := &EvalContext{Seq: rows, Bind: make([]Span, p.Len())}
	for j := range p.Elems {
		m := ms.Elem(j)
		if !k.vecs[j].ok {
			if m != nil {
				t.Fatalf("%s: element %d is not vectorized but has a mask", label, j)
			}
			continue
		}
		if len(m) != storage.MaskWords(n) {
			t.Fatalf("%s: element %d mask has %d words for %d rows", label, j, len(m), n)
		}
		hits := int64(0)
		for i := 0; i < n; i++ {
			ctx.Pos = i
			row, interp, bit := k.EvalElem(j, proj, ctx), p.EvalElem(j, ctx), storage.MaskHas(m, i)
			if bit != row || bit != interp {
				t.Fatalf("%s: element %d row %d: mask %v, row kernel %v, interpreter %v", label, j, i, bit, row, interp)
			}
			if bit {
				hits++
			}
		}
		if got := storage.MaskPopcount(m); got != hits {
			t.Fatalf("%s: element %d mask has %d bits set, %d of them below row %d", label, j, got, hits, n)
		}
	}
}

// TestMaskBuildersMatchRowKernels is the differential of the batch loops
// against the row closures: every condition kind × operator × cur/prev
// role combination × missing-predecessor policy × with and without NULLs,
// at lengths on both sides of every word boundary.
func TestMaskBuildersMatchRowKernels(t *testing.T) {
	roles := []Role{Cur, Prev}
	type shape struct {
		name string
		cond func(op constraint.Op, l, r Role) Cond
		two  bool // has a right-hand field
	}
	shapes := []shape{
		{"NumFieldConst", func(op constraint.Op, l, _ Role) Cond { return FieldConst(0, l, op, 2) }, false},
		{"NumFieldField", func(op constraint.Op, l, r Role) Cond { return FieldField(0, l, op, 1, r, 0.5) }, true},
		{"NumFieldField/self", func(op constraint.Op, l, r Role) Cond { return FieldField(0, l, op, 0, r, 0) }, true},
		{"NumFieldScaled", func(op constraint.Op, l, r Role) Cond { return FieldScaled(0, l, op, 2, 1, r) }, true},
		{"StrFieldLit", func(op constraint.Op, l, _ Role) Cond { return FieldStr(2, l, op, "a") }, false},
		{"StrFieldField", func(op constraint.Op, l, r Role) Cond { return FieldStrField(2, l, op, 3, r) }, true},
	}
	r := rand.New(rand.NewSource(8))
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 6300} {
		for _, nulls := range []bool{false, true} {
			rows := vecRows(r, n, nulls)
			for _, mpt := range []bool{false, true} {
				// One pattern per policy holds every case as an element, so a
				// single projection and build covers them all.
				var elems []Element
				for _, sh := range shapes {
					for _, op := range allOps {
						for _, l := range roles {
							for _, rr := range roles {
								if !sh.two && rr == Prev {
									continue
								}
								elems = append(elems, Element{
									Name:  fmt.Sprintf("%s_%d_%s_%s", sh.name, op, l, rr),
									Local: []Cond{sh.cond(op, l, rr)},
								})
							}
						}
					}
				}
				p := MustCompile(vecSchema(), elems, Options{MissingPrevTrue: mpt})
				k := p.CompileKernel()
				if k.VecElems() != len(elems) {
					t.Fatalf("%d of %d elements vectorized", k.VecElems(), len(elems))
				}
				proj := k.NewProjection()
				proj.SetRows(rows)
				label := fmt.Sprintf("n=%d nulls=%v mpt=%v", n, nulls, mpt)
				checkMasks(t, label, p, k, rows, proj, k.BuildMasks(proj, nil))
			}
		}
	}
}

// sharingPattern repeats condition lists the way Example 10 does, beside
// the shapes sharing must not disturb: a disjunction (twice), a
// two-condition element whose conditions other elements hold singly, an
// element with no conditions, and one that does not vectorize.
func sharingPattern(mpt bool) *Pattern {
	fall := FieldScaled(0, Cur, constraint.Lt, 0.98, 0, Prev)
	rise := FieldScaled(0, Cur, constraint.Gt, 1.02, 0, Prev)
	flatLo := FieldScaled(0, Prev, constraint.Lt, 1/0.98, 0, Cur)
	flatHi := FieldScaled(0, Cur, constraint.Lt, 1.02, 0, Prev)
	either := Or([]Cond{fall}, []Cond{rise, FieldStr(2, Cur, constraint.Eq, "a")})
	opaque := Opaque("odd", func(cur, _ storage.Row) bool { return true })
	return MustCompile(vecSchema(), []Element{
		{Name: "X", Local: []Cond{FieldScaled(0, Cur, constraint.Ge, 0.98, 0, Prev)}},
		{Name: "Y", Star: true, Local: []Cond{fall}},
		{Name: "Z", Star: true, Local: []Cond{flatLo, flatHi}},
		{Name: "T", Star: true, Local: []Cond{rise}},
		{Name: "U", Star: true, Local: []Cond{flatLo, flatHi}},
		{Name: "V", Star: true, Local: []Cond{fall}},
		{Name: "W", Star: true, Local: []Cond{flatHi, flatLo}}, // Z's conditions, another order
		{Name: "O1", Local: []Cond{either}},
		{Name: "O2", Local: []Cond{either, fall}},
		{Name: "E"},
		{Name: "Q", Local: []Cond{fall, opaque}},
		{Name: "S", Local: []Cond{FieldScaled(0, Cur, constraint.Le, 1.02, 0, Prev)}},
	}, Options{MissingPrevTrue: mpt})
}

// example10Pattern is the paper's Example 10 double bottom at the 2 %
// threshold: nine elements over five distinct condition lists.
func example10Pattern() *Pattern {
	fall := FieldScaled(0, Cur, constraint.Lt, 0.98, 0, Prev)
	rise := FieldScaled(0, Cur, constraint.Gt, 1.02, 0, Prev)
	flat := []Cond{FieldScaled(0, Prev, constraint.Lt, 1/0.98, 0, Cur), FieldScaled(0, Cur, constraint.Lt, 1.02, 0, Prev)}
	return MustCompile(vecSchema(), []Element{
		{Name: "X", Local: []Cond{FieldScaled(0, Cur, constraint.Ge, 0.98, 0, Prev)}},
		{Name: "Y", Star: true, Local: []Cond{fall}},
		{Name: "Z", Star: true, Local: flat},
		{Name: "T", Star: true, Local: []Cond{rise}},
		{Name: "U", Star: true, Local: flat},
		{Name: "V", Star: true, Local: []Cond{fall}},
		{Name: "W", Star: true, Local: flat},
		{Name: "R", Star: true, Local: []Cond{rise}},
		{Name: "S", Local: []Cond{FieldScaled(0, Cur, constraint.Le, 1.02, 0, Prev)}},
	}, Options{})
}

// TestBuildMasksColdAllocs pins what a never-seen cluster pays for its
// masks: the MaskSet, the slice heads and the slab, however many elements
// and conditions the kernel holds.
func TestBuildMasksColdAllocs(t *testing.T) {
	p := example10Pattern()
	k := p.CompileKernel()
	rows := vecRows(rand.New(rand.NewSource(11)), 10, false)
	proj := k.NewProjection()
	proj.SetRows(rows)
	checkMasks(t, "example 10", p, k, rows, proj, k.BuildMasks(proj, nil))
	if allocs := testing.AllocsPerRun(20, func() { k.BuildMasks(proj, nil) }); allocs > 3 {
		t.Fatalf("cold BuildMasks allocated %.1f times, want at most 3", allocs)
	}
}

// TestWarmMaskRebuildAllocatesNothing pins the reuse contract of
// BuildMasks: into a MaskSet the kernel has built before, over a
// projection no longer than that one, it allocates nothing, and what it
// leaves behind is still every element's mask, shared or not.
func TestWarmMaskRebuildAllocatesNothing(t *testing.T) {
	p := sharingPattern(false)
	k := p.CompileKernel()
	r := rand.New(rand.NewSource(10))
	long, short := k.NewProjection(), k.NewProjection()
	rows := vecRows(r, 6300, true)
	long.SetRows(rows)
	short.SetRows(vecRows(r, 70, true))
	ms := k.BuildMasks(long, nil)
	if allocs := testing.AllocsPerRun(20, func() {
		k.BuildMasks(short, ms)
		k.BuildMasks(long, ms)
	}); allocs != 0 {
		t.Fatalf("warmed BuildMasks allocated %.1f times per rebuild pair, want 0", allocs)
	}
	checkMasks(t, "rebuilt", p, k, rows, long, ms)
	if &ms.Elem(1)[0] != &ms.Elem(5)[0] || &ms.Elem(2)[0] != &ms.Elem(4)[0] {
		t.Fatal("elements with one condition list do not share a mask")
	}
}
