package engine

import (
	"errors"
	"math/rand"
	"testing"

	"sqlts/internal/constraint"
	"sqlts/internal/core"
	"sqlts/internal/fault"
	"sqlts/internal/pattern"
	"sqlts/internal/storage"
)

// collectStream runs a streamer over a sequence one tuple at a time.
func collectStream(t testing.TB, p *pattern.Pattern, cfg StreamConfig, seq []storage.Row) ([]Match, *Streamer) {
	t.Helper()
	var out []Match
	s := NewStreamer(p, cfg, func(m Match) { out = append(out, m) })
	for _, r := range seq {
		if err := s.Push(r); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	return out, s
}

// TestStreamEquivalenceRandom: pushing tuples one at a time must produce
// exactly the batch executor's matches (which equal naive's), with
// pruning active throughout.
func TestStreamEquivalenceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	trials := 2500
	if testing.Short() {
		trials = 300
	}
	for trial := 0; trial < trials; trial++ {
		var p *pattern.Pattern
		if trial%2 == 0 {
			p = structuredPattern(t, r, pattern.Options{MissingPrevTrue: trial%4 == 0})
		} else {
			p = randPattern(t, r, true, pattern.Options{})
		}
		seq := walkSeq(r, 20+r.Intn(150))
		for _, policy := range []SkipPolicy{SkipPastLastRow, SkipToNextRow} {
			nm, _ := NewNaive(p, policy).FindAll(seq)
			sm, _ := collectStream(t, p, StreamConfig{Policy: policy}, seq)
			if !matchesEqual(nm, sm) {
				t.Fatalf("trial %d (policy %s): stream diverged\npattern %s\nnaive:  %s\nstream: %s\nseq: %v",
					trial, policy, explain(p), fmtMatches(nm), fmtMatches(sm), seqVals(seq))
			}
		}
	}
}

// TestStreamEvalCountMatchesBatch: the incremental machine reads the
// batch executor's tables and steps and reports the same matches and
// performs the same predicate evaluations and rollbacks, on every
// pattern, star-free ones included, under both policies.
func TestStreamEvalCountMatchesBatch(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	plain := 0
	for trial := 0; trial < 300; trial++ {
		p := structuredPattern(t, r, pattern.Options{})
		if trial%3 == 0 {
			p = starFree(p)
		}
		tab := core.Compute(p)
		if !tab.HasStar {
			plain++
		}
		seq := walkSeq(r, 50+r.Intn(100))
		for _, policy := range []SkipPolicy{SkipPastLastRow, SkipToNextRow} {
			bm, bs := NewOPS(p, tab, OPSConfig{Policy: policy}).FindAll(seq)
			var ms []Match
			sm := NewStreamer(p, StreamConfig{Policy: policy, Tables: tab}, func(m Match) { ms = append(ms, m) })
			for _, row := range seq {
				if err := sm.Push(row); err != nil {
					t.Fatal(err)
				}
			}
			sm.Flush()
			if !matchesEqual(ms, bm) || sm.Stats() != bs {
				t.Fatalf("trial %d (%v): stream %+v %s != batch %+v %s\npattern %s",
					trial, policy, sm.Stats(), fmtMatches(ms), bs, fmtMatches(bm), explain(p))
			}
		}
	}
	if plain < 100 {
		t.Fatalf("%d star-free patterns; the test must cover at least 100", plain)
	}
}

// TestStreamPruning: on a long stream with short matches the retained
// buffer stays small.
func TestStreamPruning(t *testing.T) {
	schema := priceSchema()
	b := pattern.NewBuilder(schema)
	p := b.Elem("X", b.CmpPrev("price", constraint.Lt)).
		Elem("Y", b.CmpPrev("price", constraint.Gt)).
		MustBuild()
	r := rand.New(rand.NewSource(9))
	maxBuf := 0
	s := NewStreamer(p, StreamConfig{}, func(Match) {})
	for i := 0; i < 100000; i++ {
		if err := s.Push(storage.Row{storage.NewFloat(float64(1 + r.Intn(50)))}); err != nil {
			t.Fatal(err)
		}
		if s.BufferLen() > maxBuf {
			maxBuf = s.BufferLen()
		}
	}
	s.Flush()
	if maxBuf > 8 {
		t.Errorf("buffer grew to %d for a 2-element pattern", maxBuf)
	}
	if s.Stats().Matches == 0 {
		t.Error("expected matches on the random stream")
	}
}

// TestStreamTrailingStar: a match completed only by end-of-stream is
// emitted by Flush, not before.
func TestStreamTrailingStar(t *testing.T) {
	schema := priceSchema()
	b := pattern.NewBuilder(schema).WithOptions(pattern.Options{MissingPrevTrue: true})
	p := b.Star("U", b.CmpPrev("price", constraint.Gt)).MustBuild()

	var got []Match
	s := NewStreamer(p, StreamConfig{}, func(m Match) { got = append(got, m) })
	for _, v := range []float64{1, 2, 3, 4} {
		if err := s.Push(storage.Row{storage.NewFloat(v)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 0 {
		t.Fatalf("match emitted before Flush: %v", got)
	}
	s.Flush()
	if len(got) != 1 || got[0].Start != 0 || got[0].End != 3 {
		t.Fatalf("trailing match = %s", fmtMatches(got))
	}
	if err := s.Push(storage.Row{storage.NewFloat(5)}); err == nil {
		t.Error("Push after Flush should fail")
	}
	s.Flush() // second Flush is a no-op
	if len(got) != 1 {
		t.Error("second Flush changed output")
	}
}

// TestStreamMaxBuffer: the safety valve bounds memory on adversarial
// input (an endless star run) at the cost of missing oversized matches.
func TestStreamMaxBuffer(t *testing.T) {
	schema := priceSchema()
	b := pattern.NewBuilder(schema)
	p := b.Star("A", b.CmpConst("price", pattern.Cur, constraint.Gt, 0)).
		Elem("B", b.CmpConst("price", pattern.Cur, constraint.Lt, 0)).
		MustBuild()
	s := NewStreamer(p, StreamConfig{MaxBuffer: 64}, func(Match) {})
	for i := 0; i < 50000; i++ {
		if err := s.Push(storage.Row{storage.NewFloat(1)}); err != nil {
			t.Fatal(err)
		}
		if s.BufferLen() > 80 {
			t.Fatalf("buffer %d exceeds MaxBuffer headroom at tuple %d", s.BufferLen(), i)
		}
	}
	s.Flush()
}

// TestStreamCrossConditions: cross conditions see consistent buffer
// coordinates even after pruning.
func TestStreamCrossConditions(t *testing.T) {
	schema := priceSchema()
	b := pattern.NewBuilder(schema)
	b.Elem("X", b.CmpPrev("price", constraint.Lt)).
		Star("Y", b.CmpPrev("price", constraint.Le)).
		Elem("Z", b.CmpPrev("price", constraint.Gt)).
		CrossOn("Z.price > X.price", func(ctx *pattern.EvalContext) bool {
			x := ctx.Bind[0]
			return x.Set && ctx.Seq.At(ctx.Pos, 0).Float() > ctx.Seq.At(x.Start, 0).Float()
		})
	p := b.MustBuild()

	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		seq := walkSeq(r, 30+r.Intn(100))
		nm, _ := NewNaive(p, SkipPastLastRow).FindAll(seq)
		sm, _ := collectStream(t, p, StreamConfig{}, seq)
		if !matchesEqual(nm, sm) {
			t.Fatalf("trial %d: cross-condition stream diverged\nnaive:  %s\nstream: %s\nseq: %v",
				trial, fmtMatches(nm), fmtMatches(sm), seqVals(seq))
		}
	}
}

// TestStreamResumeAfterInterrupt: a stream that one in-machine checkpoint
// (engine.eval) or one rollback (engine.ops.shift) interrupted during a
// push resumes on its next push where the interrupt stopped it, with the
// stopped probe and rollback counted once: over 100 seeded patterns that
// each spend at least 2,048 pred-evals and match, its matches and Stats
// equal an uninterrupted stream's, under both policies, interpreting and
// with the kernel.
func TestStreamResumeAfterInterrupt(t *testing.T) {
	defer fault.Reset()
	stop := errors.New("stop")
	r := rand.New(rand.NewSource(36))
	for trial := 0; trial < 100; trial++ {
		cfg := StreamConfig{Policy: SkipPolicy(trial % 2)}
		var kern *pattern.Kernel
		var p *pattern.Pattern
		var seq []storage.Row
		var want []Match
		var pushed, wantStats Stats
		for pushed.PredEvals < 2048 || pushed.Rollbacks == 0 || len(want) == 0 {
			p = structuredPattern(t, r, pattern.Options{})
			if trial%4 >= 2 {
				kern = p.CompileKernel()
			}
			seq = walkSeq(r, 2100+r.Intn(1000))
			want = nil
			s := NewStreamer(p, cfg, func(m Match) { want = append(want, m) })
			s.UseKernel(kern)
			for _, row := range seq {
				if err := s.Push(row); err != nil {
					t.Fatal(err)
				}
			}
			pushed = s.Stats()
			s.Flush()
			wantStats = s.Stats()
		}
		// The k-th hit of each point falls in a push: checkpoint k runs
		// before the (1024k)th pred-eval, and the shift point fires at every
		// rollback.
		for _, c := range []struct {
			point string
			hits  int64
		}{{"engine.eval", pushed.PredEvals >> 10}, {"engine.ops.shift", pushed.Rollbacks}} {
			k := r.Int63n(c.hits)
			if err := fault.Arm(c.point, fault.Action{Err: stop, After: k, Times: 1}); err != nil {
				t.Fatal(err)
			}
			var got []Match
			s := NewStreamer(p, cfg, func(m Match) { got = append(got, m) })
			s.UseKernel(kern)
			stopped := 0
			for _, row := range seq {
				if err := s.Push(row); errors.Is(err, stop) {
					stopped++
				} else if err != nil {
					t.Fatal(err)
				}
			}
			s.Flush()
			fault.Reset()
			if stopped != 1 || !matchesEqual(got, want) || s.Stats() != wantStats {
				t.Fatalf("trial %d, %s after %d hits: %d pushes stopped, resumed %+v %s, uninterrupted %+v %s\npattern %s",
					trial, c.point, k, stopped, s.Stats(), fmtMatches(got), wantStats, fmtMatches(want), explain(p))
			}
		}
	}
}
