package engine

// Tests for the Streamer's owned window: tuples are copied into slots the
// Streamer keeps, pruning only advances head, the store is compacted or
// doubled when it fills, and every index the machine holds is a slot.

import (
	"fmt"
	"math/rand"
	"testing"

	"sqlts/internal/constraint"
	"sqlts/internal/core"
	"sqlts/internal/pattern"
	"sqlts/internal/storage"
)

// rec is the Streamer's one cluster record.
func (s *Streamer) rec() *streamRec { return &s.a.recs[0] }

// windowRun pushes seq through one Streamer and reports what the window
// did: a push that changed the capacity is a growth, one that moved the
// origin (the global index of slot 0) without one is a compaction.
type windowRun struct {
	matches              []Match
	stats                Stats
	compactions, growths int
}

func runWindow(t *testing.T, label string, p *pattern.Pattern, k *pattern.Kernel, cfg StreamConfig, seq []storage.Row) windowRun {
	t.Helper()
	var out windowRun
	s := NewStreamer(p, cfg, func(m Match) {
		m.Spans = append([]pattern.Span(nil), m.Spans...)
		out.matches = append(out.matches, m)
	})
	s.UseKernel(k)
	peak := 0
	for i, row := range seq {
		capacity, origin := s.rec().win.Cap(), s.rec().off
		if err := s.Push(row); err != nil {
			t.Fatalf("%s: push %d: %v", label, i, err)
		}
		switch {
		case s.rec().win.Cap() != capacity:
			out.growths++
		case s.rec().off != origin:
			out.compactions++
		}
		live := s.BufferLen()
		peak = max(peak, live)
		if cfg.MaxBuffer > 0 && live > cfg.MaxBuffer+1 {
			t.Fatalf("%s: %d tuples retained after push %d, MaxBuffer %d", label, live, i, cfg.MaxBuffer)
		}
		// The live window is what is left of the last push's before its
		// prune, so the capacity is held against that.
		if s.rec().win.Cap() > max(streamInitRows, 4*(peak+1)) {
			t.Fatalf("%s: capacity %d after push %d, longest live window %d", label, s.rec().win.Cap(), i, peak)
		}
		if w, base := s.Window(); w.Len() != live || base+live != i+1 {
			t.Fatalf("%s: window of %d from %d after push %d, BufferLen %d", label, w.Len(), base, i, live)
		}
	}
	s.Flush()
	out.stats = s.Stats()
	return out
}

// firstSpanCross reads a tuple through a binding: true when element 1's
// first tuple is no dearer than the one under test. A binding that a
// compaction failed to rebase reads a different tuple.
func firstSpanCross() pattern.Cond {
	return pattern.Cross("E0.first.price<=price", func(ctx *pattern.EvalContext) bool {
		sp := ctx.Bind[0]
		if !sp.Set {
			return true
		}
		a, b := ctx.Seq.At(sp.Start, 0), ctx.Seq.At(ctx.Pos, 0)
		return a.IsNull() || b.IsNull() || a.Float() <= b.Float()
	})
}

// crossPattern is purePattern with firstSpanCross on some later elements.
func crossPattern(t testing.TB, r *rand.Rand) *pattern.Pattern {
	t.Helper()
	base := purePattern(t, r)
	elems := append([]pattern.Element(nil), base.Elems...)
	for i := 1; i < len(elems); i++ {
		if i == len(elems)-1 || r.Intn(2) == 0 {
			elems[i].CrossConds = append(elems[i].CrossConds, firstSpanCross())
		}
	}
	p, err := pattern.Compile(diffSchema(), elems, pattern.Options{MissingPrevTrue: r.Intn(2) == 0})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

// sawtoothFixture is a pattern and a feed that make the window breathe:
// A starts an attempt, the star B runs for a stretch that lengthens from
// block to block (so the window doubles more than once), C ends it, and a
// stretch of tuples that start nothing follows (so the dead prefix
// outgrows the live window and the store compacts).
func sawtoothFixture(t testing.TB) (*pattern.Pattern, []storage.Row) {
	t.Helper()
	p, err := pattern.Compile(diffSchema(), []pattern.Element{
		{Name: "A", Local: []pattern.Cond{pattern.FieldConst(0, pattern.Cur, constraint.Eq, 1)}},
		{Name: "B", Star: true, Local: []pattern.Cond{pattern.FieldConst(0, pattern.Cur, constraint.Eq, 2)}},
		{Name: "C", Local: []pattern.Cond{pattern.FieldConst(0, pattern.Cur, constraint.Eq, 3)},
			CrossConds: []pattern.Cond{firstSpanCross()}},
	}, pattern.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var seq []storage.Row
	add := func(price float64, n int) {
		for ; n > 0; n-- {
			seq = append(seq, storage.Row{storage.NewFloat(price), storage.NewInt(int64(len(seq))),
				storage.NewString("s"), storage.NewDateDays(int64(len(seq)))})
		}
	}
	for _, run := range []int{3, 9, 20, 45, 7, 30, 2, 60} {
		add(1, 1)
		add(2, run)
		add(3, 1)
		add(5, run/2+3)
	}
	return p, seq
}

// TestStreamWindowDifferential: over compactions and growths, a Streamer
// with the kernel attached, a Streamer interpreting, and the batch OPS
// executor, all reading the same tables, agree on matches, spans,
// PredEvals and Rollbacks. The batch leg runs wherever batch has a
// counterpart: with no MaxBuffer (batch never abandons an attempt). The
// sawtooth fixture must compact at least three times and grow at least
// twice in every unbounded stream; the random patterns, most of which
// never hold a long window, are held to a total.
func TestStreamWindowDifferential(t *testing.T) {
	type fixture struct {
		name     string
		p        *pattern.Pattern
		seq      []storage.Row
		sawtooth bool
	}
	var fixtures []fixture
	sp, sseq := sawtoothFixture(t)
	fixtures = append(fixtures, fixture{"sawtooth", sp, sseq, true})
	seeds := 120
	if testing.Short() {
		seeds = 30
	}
	for seed := 0; seed < seeds; seed++ {
		r := rand.New(rand.NewSource(int64(9000 + seed)))
		n := 300 + r.Intn(400)
		f := fixture{name: fmt.Sprintf("seed %d", seed)}
		switch seed % 4 {
		case 0:
			f.p, f.seq = purePattern(t, r), pureSeq(r, n)
		case 1:
			f.p, f.seq = repeatPattern(t, r), walkSeq(r, n)
		case 2:
			f.p, f.seq = crossPattern(t, r), pureSeq(r, n)
		default:
			f.p, f.seq = diffPattern(t, r), pureSeq(r, n)
		}
		fixtures = append(fixtures, f)
	}

	compactions, growths := 0, 0
	for _, f := range fixtures {
		k := f.p.CompileKernel()
		tab := core.Compute(f.p)
		for _, policy := range []SkipPolicy{SkipPastLastRow, SkipToNextRow} {
			for _, skip := range []bool{false, true} {
				for _, maxBuf := range []int{0, 8, 24} {
					label := fmt.Sprintf("%s %v skip=%v MaxBuffer=%d", f.name, policy, skip, maxBuf)
					cfg := StreamConfig{Policy: policy, LastRowSkip: skip, MaxBuffer: maxBuf, Tables: tab}
					ki := runWindow(t, label+" kernel", f.p, k, cfg, f.seq)
					in := runWindow(t, label+" interp", f.p, nil, cfg, f.seq)
					if !matchesEqual(in.matches, ki.matches) || in.stats != ki.stats {
						t.Fatalf("%s: kernel and interpreter diverge\npattern: %s\ninterp: %+v %s\nkernel: %+v %s",
							label, explain(f.p), in.stats, fmtMatches(in.matches), ki.stats, fmtMatches(ki.matches))
					}
					if ki.compactions != in.compactions || ki.growths != in.growths {
						t.Fatalf("%s: window moved %d+%d times with the kernel, %d+%d without",
							label, ki.compactions, ki.growths, in.compactions, in.growths)
					}
					compactions += ki.compactions
					growths += ki.growths
					if maxBuf != 0 {
						continue
					}
					if f.sawtooth && (ki.compactions < 3 || ki.growths < 2) {
						t.Fatalf("%s: %d compactions and %d growths, want at least 3 and 2", label, ki.compactions, ki.growths)
					}
					bm, bs := NewOPS(f.p, tab, OPSConfig{Policy: policy, LastRowSkip: skip}).FindAll(f.seq)
					if !matchesEqual(bm, ki.matches) || bs != ki.stats {
						t.Fatalf("%s: stream and batch diverge\npattern: %s\nbatch:  %+v %s\nstream: %+v %s",
							label, explain(f.p), bs, fmtMatches(bm), ki.stats, fmtMatches(ki.matches))
					}
				}
			}
		}
	}
	t.Logf("%d compactions, %d growths over %d fixtures", compactions, growths, len(fixtures))
	if compactions < 1000 || growths < 200 {
		t.Fatalf("%d compactions and %d growths; the differential must cover at least 1000 and 200", compactions, growths)
	}
}

// TestStreamerCopiesRows: Push copies the tuple, so a caller that reuses
// or overwrites the row it passed changes nothing the Streamer holds.
func TestStreamerCopiesRows(t *testing.T) {
	p, seq := sawtoothFixture(t)
	k := p.CompileKernel()
	want := runWindow(t, "fresh rows", p, k, StreamConfig{}, seq)
	if want.stats.Matches == 0 {
		t.Fatal("the fixture matches nothing")
	}

	for _, attach := range []bool{true, false} {
		var got []Match
		var firsts []float64
		var s *Streamer
		s = NewStreamer(p, StreamConfig{}, func(m Match) {
			// The window must still hold the tuples as they were pushed.
			w, base := s.Window()
			firsts = append(firsts, w.At(m.Start-base, 0).Float())
			m.Spans = append([]pattern.Span(nil), m.Spans...)
			got = append(got, m)
		})
		if attach {
			s.UseKernel(k)
		}
		scratch := make(storage.Row, len(seq[0]))
		for i, row := range seq {
			copy(scratch, row)
			if err := s.Push(scratch); err != nil {
				t.Fatalf("push %d: %v", i, err)
			}
			for c := range scratch {
				scratch[c] = storage.NewFloat(-1) // wrong value and, for most columns, wrong type
			}
		}
		s.Flush()
		if !matchesEqual(want.matches, got) || want.stats != s.Stats() {
			t.Fatalf("kernel=%v: reusing the pushed row changed the result\nwant: %+v %s\ngot:  %+v %s",
				attach, want.stats, fmtMatches(want.matches), s.Stats(), fmtMatches(got))
		}
		for i, f := range firsts {
			if f != 1 {
				t.Fatalf("kernel=%v: match %d starts at a tuple priced %v in the window, pushed as 1", attach, i, f)
			}
		}
	}
}

// TestStreamPredecessorAfterCompaction pins the invariant the window's
// slot indexing rests on: slot 0 is probed only when it holds global
// tuple 0. The element under test compares a tuple with its predecessor;
// MissingPrevTrue makes "no predecessor" read as true, so a probe at slot
// 0 that should have seen the retained predecessor would match where the
// real predecessor forbids it.
func TestStreamPredecessorAfterCompaction(t *testing.T) {
	p, err := pattern.Compile(priceSchema(), []pattern.Element{
		{Name: "UP", Local: []pattern.Cond{pattern.FieldField(0, pattern.Cur, constraint.Gt, 0, pattern.Prev, 0)}},
	}, pattern.Options{MissingPrevTrue: true})
	if err != nil {
		t.Fatal(err)
	}
	// Strictly falling after the first tuple: only global tuple 0 (no
	// predecessor, MissingPrevTrue) satisfies UP.
	const n = 200
	for _, attach := range []bool{true, false} {
		var got []Match
		s := NewStreamer(p, StreamConfig{}, func(m Match) { got = append(got, m) })
		if attach {
			s.UseKernel(p.CompileKernel())
		}
		compactions, probedAtZero := 0, 0
		for i := 0; i < n; i++ {
			origin := s.rec().off
			if err := s.Push(storage.Row{storage.NewFloat(float64(n - i))}); err != nil {
				t.Fatal(err)
			}
			if s.rec().off != origin {
				compactions++
				// The tuple just pushed was probed right after the move. It
				// sits past slot 0, which holds its retained predecessor.
				if s.rec().tail-1 == 0 {
					probedAtZero++
				}
			}
			if w, base := s.Window(); w.Len() == 0 || base+w.Len() != i+1 {
				t.Fatalf("window of %d from %d after push %d", w.Len(), base, i)
			}
		}
		s.Flush()
		if compactions < 3 {
			t.Fatalf("kernel=%v: %d compactions, want at least 3", attach, compactions)
		}
		if probedAtZero != 0 {
			t.Fatalf("kernel=%v: %d tuples probed at slot 0 after a compaction", attach, probedAtZero)
		}
		if len(got) != 1 || got[0].Start != 0 || got[0].End != 0 {
			t.Fatalf("kernel=%v: matches %s, want only the first tuple", attach, fmtMatches(got))
		}
		if s.Stats().PredEvals != n {
			t.Fatalf("kernel=%v: %d pred-evals for %d tuples", attach, s.Stats().PredEvals, n)
		}
	}
}
