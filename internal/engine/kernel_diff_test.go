package engine

// Differential tests for the compiled predicate kernels: every executor
// must produce byte-identical matches AND identical Stats — pred-evals in
// particular, since they are the paper's reported metric — whether probes
// run through the condition interpreter, through the kernel's row path or
// through its masks. Random patterns cover the tricky corners: prev-roles
// probed at position 0, NULLs in the data, disjunctive conditions, opaque
// conditions (interpreter fallback), string columns, dates, and star
// elements.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sqlts/internal/constraint"
	"sqlts/internal/core"
	"sqlts/internal/pattern"
	"sqlts/internal/storage"
)

// diffSchema exercises every column shape the projection decodes:
// float, int (widened), string, and date (widened via epoch days).
func diffSchema() *storage.Schema {
	return storage.MustSchema(
		storage.Column{Name: "price", Type: storage.TypeFloat},
		storage.Column{Name: "vol", Type: storage.TypeInt},
		storage.Column{Name: "name", Type: storage.TypeString},
		storage.Column{Name: "day", Type: storage.TypeDate},
	)
}

// diffCond draws one random condition. An opaque condition forces the
// whole element onto the interpreter, so its frequency controls how often
// the fallback path is differenced.
func diffCond(r *rand.Rand) pattern.Cond {
	ops := []constraint.Op{constraint.Eq, constraint.Ne, constraint.Lt, constraint.Le, constraint.Gt, constraint.Ge}
	op := ops[r.Intn(len(ops))]
	role := func() pattern.Role {
		if r.Intn(3) == 0 {
			return pattern.Prev
		}
		return pattern.Cur
	}
	numCol := func() int { return r.Intn(2) } // price or vol
	switch r.Intn(10) {
	case 0, 1:
		return pattern.FieldConst(numCol(), role(), op, float64(1+r.Intn(6)))
	case 2, 3:
		return pattern.FieldField(numCol(), role(), op, numCol(), role(), float64(r.Intn(3)-1))
	case 4:
		return pattern.FieldScaled(numCol(), role(), op, 0.5+float64(r.Intn(4))*0.5, numCol(), role())
	case 5:
		lit := string(rune('a' + r.Intn(3)))
		eqOps := []constraint.Op{constraint.Eq, constraint.Ne}
		return pattern.FieldStr(2, role(), eqOps[r.Intn(2)], lit)
	case 6:
		return pattern.FieldStrField(2, role(), op, 2, role())
	case 7:
		return pattern.FieldConst(3, role(), op, float64(100+r.Intn(6)))
	case 8:
		lo := float64(1 + r.Intn(4))
		return pattern.Opaque(fmt.Sprintf("price>=%g(opaque)", lo),
			func(cur, prev storage.Row) bool {
				return !cur[0].IsNull() && cur[0].Float() >= lo
			})
	default:
		return pattern.Or(
			[]pattern.Cond{pattern.FieldConst(0, pattern.Cur, constraint.Le, float64(1+r.Intn(4)))},
			[]pattern.Cond{pattern.FieldConst(1, pattern.Cur, constraint.Ge, float64(2+r.Intn(4)))},
		)
	}
}

// diffOr draws a disjunction whose branches mix kinds and read the
// predecessor, so that its atoms meet row 0's missing predecessor.
func diffOr(r *rand.Rand) pattern.Cond {
	ops := []constraint.Op{constraint.Eq, constraint.Ne, constraint.Lt, constraint.Le, constraint.Gt, constraint.Ge}
	op := ops[r.Intn(len(ops))]
	return pattern.Or(
		[]pattern.Cond{pattern.FieldField(0, pattern.Prev, op, 1, pattern.Cur, float64(r.Intn(3)-1))},
		[]pattern.Cond{
			pattern.FieldStr(2, pattern.Prev, constraint.Eq, string(rune('a'+r.Intn(3)))),
			pattern.FieldConst(1, pattern.Cur, op, float64(1+r.Intn(6))),
		},
	)
}

// diffPattern draws a random pattern over diffSchema: 2–5 elements,
// 0–3 local conditions each, occasional stars and cross conditions.
func diffPattern(t testing.TB, r *rand.Rand) *pattern.Pattern {
	t.Helper()
	return diffCompile(t, r, diffElems(r))
}

// diffElems draws diffPattern's elements.
func diffElems(r *rand.Rand) []pattern.Element {
	m := 2 + r.Intn(4)
	elems := make([]pattern.Element, m)
	for i := range elems {
		e := pattern.Element{Name: fmt.Sprintf("E%d", i)}
		for k := r.Intn(4); k > 0; k-- {
			e.Local = append(e.Local, diffCond(r))
		}
		if i > 0 && r.Intn(4) == 0 {
			e.Star = true
		}
		if i > 0 && r.Intn(6) == 0 {
			// Alignment-dependent condition: always interpreted via
			// CtxFn on both paths, so it must not perturb equality.
			e.CrossConds = append(e.CrossConds,
				pattern.Cross("firstspan<=4", func(ctx *pattern.EvalContext) bool {
					sp := ctx.Bind[0]
					return !sp.Set || sp.End-sp.Start <= 4
				}))
		}
		elems[i] = e
	}
	return elems
}

// diffCompile compiles elems over diffSchema under a missing-predecessor
// policy drawn from r.
func diffCompile(t testing.TB, r *rand.Rand, elems []pattern.Element) *pattern.Pattern {
	t.Helper()
	p, err := pattern.Compile(diffSchema(), elems, pattern.Options{MissingPrevTrue: r.Intn(2) == 0})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

// diffSeq draws rows with small domains (so matches actually occur) and
// a sprinkling of NULLs in every column.
func diffSeq(r *rand.Rand, n int) []storage.Row {
	out := make([]storage.Row, n)
	for i := range out {
		row := storage.Row{
			storage.NewFloat(float64(1 + r.Intn(6))),
			storage.NewInt(int64(1 + r.Intn(6))),
			storage.NewString(string(rune('a' + r.Intn(3)))),
			storage.NewDateDays(int64(100 + r.Intn(6))),
		}
		for c := range row {
			if r.Intn(12) == 0 {
				row[c] = storage.Null
			}
		}
		out[i] = row
	}
	return out
}

// diffCheck runs interpreter vs kernel on one executor pair and
// requires identical matches and identical Stats.
func diffCheck(t *testing.T, label, pat string, interp, kernel Executor, seq []storage.Row) {
	t.Helper()
	im, is := interp.FindAll(seq)
	km, ks := kernel.FindAll(seq)
	if !matchesEqual(im, km) {
		t.Fatalf("%s: kernel matches diverge\npattern: %s\ninterp: %s\nkernel: %s",
			label, pat, fmtMatches(im), fmtMatches(km))
	}
	if is != ks {
		t.Fatalf("%s: kernel stats diverge\npattern: %s\ninterp: %+v\nkernel: %+v", label, pat, is, ks)
	}
}

func TestKernelDifferential(t *testing.T) {
	iters := 400
	if testing.Short() {
		iters = 60
	}
	for seed := 0; seed < iters; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		p := diffPattern(t, r)
		k := p.CompileKernel()
		seq := diffSeq(r, 40+r.Intn(160))
		tab := core.Compute(p)
		pat := explain(p)

		for _, policy := range []SkipPolicy{SkipPastLastRow, SkipToNextRow} {
			ni := NewNaive(p, policy)
			nk := NewNaive(p, policy)
			nk.UseKernel(k)
			diffCheck(t, fmt.Sprintf("seed %d naive/%v", seed, policy), pat, ni, nk, seq)

			oi := NewOPS(p, tab, OPSConfig{Policy: policy})
			ok := NewOPS(p, tab, OPSConfig{Policy: policy})
			ok.UseKernel(k)
			diffCheck(t, fmt.Sprintf("seed %d ops/%v", seed, policy), pat, oi, ok, seq)

			// Vectorized mode: probes resolve against precomputed selection
			// bitmasks and zero-runs of element 1 bulk-skip, yet matches and
			// Stats — pred-evals above all — must stay bit-identical.
			nv := NewNaive(p, policy)
			nv.UseKernel(k)
			nv.SetVectorized(true)
			diffCheck(t, fmt.Sprintf("seed %d naive-vec/%v", seed, policy), pat, ni, nv, seq)

			ov := NewOPS(p, tab, OPSConfig{Policy: policy})
			ov.UseKernel(k)
			ov.SetVectorized(true)
			diffCheck(t, fmt.Sprintf("seed %d ops-vec/%v", seed, policy), pat, oi, ov, seq)
		}

		// Executor reuse across clusters: the projection must be rebuilt
		// per FindAll, so a second run over different rows stays equal.
		seq2 := diffSeq(r, 30)
		oi := NewOPS(p, tab, OPSConfig{})
		ok := NewOPS(p, tab, OPSConfig{})
		ok.UseKernel(k)
		oi.FindAll(seq)
		ok.FindAll(seq)
		diffCheck(t, fmt.Sprintf("seed %d ops/reuse", seed), pat, oi, ok, seq2)
	}
}

// TestKernelDifferentialStream differences the incremental matcher:
// rows arrive one at a time, the projection grows with the window and is
// compacted with it, and indices are window slots. Every pattern holds a
// disjunction reading the predecessor in one element, which the kernel's
// row path evaluates unless the element also holds an opaque condition.
func TestKernelDifferentialStream(t *testing.T) {
	iters := 200
	if testing.Short() {
		iters = 40
	}
	compiledOr := 0
	for seed := 0; seed < iters; seed++ {
		r := rand.New(rand.NewSource(int64(1000 + seed)))
		elems := diffElems(r)
		or := r.Intn(len(elems))
		elems[or].Local = append(elems[or].Local, diffOr(r))
		p := diffCompile(t, r, elems)
		k := p.CompileKernel()
		if k.ElemCompiled(or) {
			compiledOr++
		}
		seq := diffSeq(r, 40+r.Intn(120))
		cfg := StreamConfig{MaxBuffer: []int{0, 0, 16}[r.Intn(3)]}
		if r.Intn(2) == 0 {
			cfg.Policy = SkipToNextRow
		}

		run := func(attach bool) ([]Match, Stats) {
			var out []Match
			s := NewStreamer(p, cfg, func(m Match) { out = append(out, m) })
			if attach {
				s.UseKernel(k)
			}
			for _, row := range seq {
				if err := s.Push(row); err != nil {
					t.Fatalf("seed %d: push: %v", seed, err)
				}
			}
			s.Flush()
			return out, s.Stats()
		}
		im, is := run(false)
		km, ks := run(true)
		if !matchesEqual(im, km) {
			t.Fatalf("seed %d: stream kernel matches diverge\npattern: %s\ninterp: %s\nkernel: %s",
				seed, explain(p), fmtMatches(im), fmtMatches(km))
		}
		if is != ks {
			t.Fatalf("seed %d: stream kernel stats diverge\npattern: %s\ninterp: %+v\nkernel: %+v",
				seed, explain(p), is, ks)
		}
	}
	if compiledOr < iters/2 {
		t.Fatalf("the disjunctive element was compiled in %d of %d patterns", compiledOr, iters)
	}
}

// TestKernelRowFormIffMask is the compile invariant of the one predicate
// compiler over the differentials' pattern generators: an element has a
// row form exactly when it has a mask, and it has neither exactly when a
// local condition — or a disjunct of one — is opaque.
func TestKernelRowFormIffMask(t *testing.T) {
	opaque := func(c pattern.Cond) bool {
		if c.Kind == pattern.OpaqueCond {
			return true
		}
		for _, br := range c.Branches {
			for _, bc := range br {
				if bc.Kind == pattern.OpaqueCond {
					return true
				}
			}
		}
		return false
	}
	compiled := 0
	for seed := 0; seed < 400; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		var p *pattern.Pattern
		switch seed % 4 {
		case 0:
			p = diffPattern(t, r)
		case 1:
			elems := diffElems(r)
			elems[0].Local = append(elems[0].Local, diffOr(r))
			p = diffCompile(t, r, elems)
		case 2:
			p = purePattern(t, r)
		default:
			p = repeatPattern(t, r)
		}
		k := p.CompileKernel()
		proj := k.NewProjection()
		proj.SetRows(diffSeq(r, 70))
		ms := k.BuildMasks(proj, nil)
		if k.CompiledElems() != k.VecElems() || k.CompiledElems()+k.FallbackElems() != p.Len() {
			t.Fatalf("seed %d: %d compiled, %d with a mask, %d interpreted of %d", seed, k.CompiledElems(), k.VecElems(), k.FallbackElems(), p.Len())
		}
		for j := range p.Elems {
			wantRow := !slices.ContainsFunc(p.Elems[j].Local, opaque)
			if k.ElemCompiled(j) != wantRow || (ms.Elem(j) != nil) != wantRow {
				t.Fatalf("seed %d element %d: row form %v, mask %v, want both %v\npattern: %s",
					seed, j, k.ElemCompiled(j), ms.Elem(j) != nil, wantRow, explain(p))
			}
			if wantRow {
				compiled++
			}
		}
	}
	if compiled < 400 {
		t.Fatalf("%d compiled elements in all; the invariant must cover at least 400", compiled)
	}
}

// vecSeedCorpus pins the random seeds CI runs under -race: a small,
// fixed corpus chosen to cover stars, crosses, fallbacks, and NULLs so
// the data race detector sees every vectorized code path on every push.
var vecSeedCorpus = []int64{0, 3, 7, 11, 19, 42, 101, 137}

// TestVectorDifferentialSeeds is the seed-corpus differential: fixed
// seeds, all three executors (interpreter, row kernel, vectorized), one
// streaming kernel pass. Fast enough for `-race` in CI's bench-smoke job.
func TestVectorDifferentialSeeds(t *testing.T) {
	for _, seed := range vecSeedCorpus {
		r := rand.New(rand.NewSource(seed))
		p := diffPattern(t, r)
		k := p.CompileKernel()
		seq := diffSeq(r, 60+r.Intn(80))
		tab := core.Compute(p)
		pat := explain(p)

		ni := NewNaive(p, SkipPastLastRow)
		nv := NewNaive(p, SkipPastLastRow)
		nv.UseKernel(k)
		nv.SetVectorized(true)
		diffCheck(t, fmt.Sprintf("corpus %d naive-vec", seed), pat, ni, nv, seq)

		oi := NewOPS(p, tab, OPSConfig{})
		ov := NewOPS(p, tab, OPSConfig{})
		ov.UseKernel(k)
		ov.SetVectorized(true)
		diffCheck(t, fmt.Sprintf("corpus %d ops-vec", seed), pat, oi, ov, seq)

		var im, vm []Match
		si := NewStreamer(p, StreamConfig{MaxBuffer: 24}, func(m Match) { im = append(im, m) })
		sv := NewStreamer(p, StreamConfig{MaxBuffer: 24}, func(m Match) { vm = append(vm, m) })
		sv.UseKernel(k)
		for _, row := range seq {
			if err := si.Push(row); err != nil {
				t.Fatalf("corpus %d: push: %v", seed, err)
			}
			if err := sv.Push(row); err != nil {
				t.Fatalf("corpus %d: push: %v", seed, err)
			}
		}
		si.Flush()
		sv.Flush()
		if !matchesEqual(im, vm) {
			t.Fatalf("corpus %d: stream kernel matches diverge\npattern: %s\ninterp: %s\nkernel: %s",
				seed, pat, fmtMatches(im), fmtMatches(vm))
		}
		if si.Stats() != sv.Stats() {
			t.Fatalf("corpus %d: stream kernel stats diverge\npattern: %s\ninterp: %+v\nkernel: %+v",
				seed, pat, si.Stats(), sv.Stats())
		}
	}
}
