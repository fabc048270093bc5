package pattern

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
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

// checkMasks asserts that every distinct condition's mask holds, row by
// row, the verdict the row path computes from the same atoms; that every
// compiled element's mask equals the row kernel's and the interpreter's
// verdict bit for bit; and that no mask carries anything past row n.
func checkMasks(t *testing.T, label string, p *Pattern, k *Kernel, rows []storage.Row, proj *storage.Projection, ms *MaskSet) {
	t.Helper()
	n := len(rows)
	if ms.Rows() != n {
		t.Fatalf("%s: masks cover %d rows, want %d", label, ms.Rows(), n)
	}
	for ci := range k.conds {
		m := ms.slot(ci)
		for i := 0; i < n; i++ {
			if row, bit := k.conds[ci].holds(proj, i, p.MissingPrevTrue), storage.MaskHas(m, i); row != bit {
				t.Fatalf("%s: condition %d row %d: mask %v, row verdict %v", label, ci, i, bit, row)
			}
		}
	}
	ctx := &EvalContext{Seq: storage.RowSeq(rows), Bind: make([]Span, p.Len())}
	for j := range p.Elems {
		m := ms.Elem(j)
		if !k.ElemCompiled(j) {
			if m != nil {
				t.Fatalf("%s: element %d is not compiled but has a mask", label, j)
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
// against the row path over the same atoms, and of both against the
// interpreter: every condition kind — disjunctions included, one with an
// empty branch — × operator × cur/prev role combination ×
// missing-predecessor policy × with and without NULLs, at lengths on both
// sides of every word boundary.
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
		{"OrCond", func(op constraint.Op, l, r Role) Cond {
			return Or([]Cond{FieldField(0, l, op, 1, r, 0.5)}, []Cond{FieldStr(2, r, op, "a"), FieldConst(1, l, op, 1)})
		}, true},
		{"OrCond/empty", func(op constraint.Op, l, r Role) Cond {
			return Or([]Cond{FieldStrField(2, l, op, 3, r), FieldScaled(0, r, op, 2, 1, l)}, nil)
		}, true},
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
				if k.CompiledElems() != len(elems) || k.VecElems() != len(elems) {
					t.Fatalf("%d of %d elements compiled, %d with a mask", k.CompiledElems(), len(elems), k.VecElems())
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
// element with no conditions, and one that is not compiled.
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
// masks: the MaskSet and the slab, however many elements and conditions
// the kernel holds.
func TestBuildMasksColdAllocs(t *testing.T) {
	p := example10Pattern()
	k := p.CompileKernel()
	rows := vecRows(rand.New(rand.NewSource(11)), 10, false)
	proj := k.NewProjection()
	proj.SetRows(rows)
	checkMasks(t, "example 10", p, k, rows, proj, k.BuildMasks(proj, nil))
	if allocs := testing.AllocsPerRun(20, func() { k.BuildMasks(proj, nil) }); allocs > 2 {
		t.Fatalf("cold BuildMasks allocated %.1f times, want at most 2", allocs)
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

// TestRunBuilderMatchesPerCluster holds BuildRun — one []MaskSet and one
// slab for a run of clusters, one scratch projection, shared disjunction
// scratch — to its one-cluster case: over seeded kernels (all-pure,
// repeated conditions beside a disjunction and an opaque element, a cross
// condition) and runs mixing lengths on both sides of the word seams, with
// and without NULLs, every slot of every cluster's set (each element's
// mask, each intermediate condition's, each column's null mask) equals
// BuildMasks over a projection of that cluster alone, word for word, and
// the static tables say what the set says. Then every other cluster is
// rebuilt as one run over their indexes while readers walk the shared
// slab: nothing of the slab may be written (meaningful under -race).
func TestRunBuilderMatchesPerCluster(t *testing.T) {
	crossed := MustCompile(vecSchema(), []Element{
		{Name: "X", Local: []Cond{FieldConst(0, Cur, constraint.Ge, 1)}},
		{Name: "Y", Star: true, Local: []Cond{FieldConst(1, Cur, constraint.Lt, 1)},
			CrossConds: []Cond{Cross("anything", func(*EvalContext) bool { return true })}},
		{Name: "Z", Local: []Cond{FieldStr(2, Cur, constraint.Ne, "a")}},
	}, Options{})
	kernels := []struct {
		name    string
		p       *Pattern
		allPure bool
	}{
		{"example10", example10Pattern(), true},
		{"sharing", sharingPattern(false), false},
		{"sharing/mpt", sharingPattern(true), false},
		{"cross", crossed, false},
	}
	lengths := []int{0, 1, 63, 64, 65, 130, 10, 0, 64, 1}
	r := rand.New(rand.NewSource(22))
	for _, kc := range kernels {
		k := kc.p.CompileKernel()
		if k.AllPure() != kc.allPure {
			t.Fatalf("%s: AllPure() = %v, want %v", kc.name, k.AllPure(), kc.allPure)
		}
		for j, s := range k.PureSlots() {
			if want := k.ElemCompiled(j) && !k.ElemHasCross(j); (s >= 0) != want {
				t.Fatalf("%s: element %d pure slot %d, compiled-without-cross %v", kc.name, j, s, want)
			}
		}
		for _, nulls := range []bool{false, true} {
			clusters := make([][]storage.Row, len(lengths))
			for i, n := range lengths {
				clusters[i] = vecRows(r, n, nulls)
			}
			label := fmt.Sprintf("%s nulls=%v", kc.name, nulls)
			masks := make([]*MaskSet, len(clusters))
			// The run is the middle of the list: its neighbours stay unbuilt.
			lo, hi := 1, len(clusters)-1
			sets := k.BuildRun(hi-lo, func(j int) []storage.Row { return clusters[lo+j] })
			if len(sets) != hi-lo {
				t.Fatalf("%s: BuildRun built %d sets for a run of %d", label, len(sets), hi-lo)
			}
			for j := range sets {
				masks[lo+j] = &sets[j]
			}
			for ci := lo; ci < hi; ci++ {
				own := k.NewProjection()
				own.SetRows(clusters[ci])
				want, got := k.BuildMasks(own, nil), masks[ci]
				checkMasks(t, label, kc.p, k, clusters[ci], own, got)
				if !slices.Equal(got.slab, want.slab) {
					t.Fatalf("%s: cluster %d (%d rows): slab differs from BuildMasks:\n%x\n%x", label, ci, len(clusters[ci]), got.slab, want.slab)
				}
				for j := 0; j < k.Len(); j++ {
					if !slices.Equal(got.Elem(j), want.Elem(j)) {
						t.Fatalf("%s: cluster %d element %d differs from BuildMasks", label, ci, j)
					}
				}
				for _, c := range k.nullCols {
					if !slices.Equal(got.null(c), want.null(c)) {
						t.Fatalf("%s: cluster %d column %d null mask differs from BuildMasks", label, ci, c)
					}
				}
			}

			// Rebuild one cluster beside the shared slab, readers on it.
			before := make([][]uint64, len(masks))
			for ci := lo; ci < hi; ci++ {
				before[ci] = slices.Clone(masks[ci].slab)
			}
			stop := make(chan struct{})
			var readers sync.WaitGroup
			for g := 0; g < 2; g++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						for ci := lo; ci < hi; ci++ {
							for j := 0; j < k.Len(); j++ {
								storage.MaskPopcount(masks[ci].Elem(j))
							}
						}
					}
				}()
			}
			// Every other cluster of the run, rebuilt as one run over their
			// indexes, as a partition refresh rebuilds its stale clusters.
			var stale []int
			for ci := lo; ci < hi; ci += 2 {
				stale = append(stale, ci)
			}
			again := k.BuildRun(len(stale), func(j int) []storage.Row { return clusters[stale[j]] })
			close(stop)
			readers.Wait()
			for j, ci := range stale {
				if &again[j] == masks[ci] || !slices.Equal(again[j].slab, before[ci]) {
					t.Fatalf("%s: cluster %d rebuilt: not a new, equal set", label, ci)
				}
			}
			for ci := lo; ci < hi; ci++ {
				if !slices.Equal(masks[ci].slab, before[ci]) {
					t.Fatalf("%s: rebuilding cluster %d wrote the shared slab", label, ci)
				}
			}
		}
	}
}
