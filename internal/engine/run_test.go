package engine

// Tests of the run loops (FindRun): a chunk of clusters searched as one
// Run must leave what searching them one FindAll at a time leaves — every
// cluster's matches, spans and counters, the pair scans' rows — on the
// chunk-wide pure loop, where most clusters are booked in closed form, and
// on the generic per-cluster loop alike. So must each cluster searched as a
// one-cluster Run, as EXPLAIN ANALYZE's breakdown searches them.

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sqlts/internal/constraint"
	"sqlts/internal/core"
	"sqlts/internal/pattern"
	"sqlts/internal/storage"
	"sqlts/internal/testutil"
)

// runSink records what a run hands its sink; enter, when set, is what
// Enter returns.
type runSink struct {
	entered int
	found   []foundCluster
	ticks   progress
	enter   func(i int) error
}

type foundCluster struct {
	i  int
	ms []Match
	st Stats
}

func (s *runSink) Enter(i int) error {
	s.entered++
	if s.enter != nil {
		return s.enter(i)
	}
	return nil
}

// Found keeps copies: the matches are the executor's scratch, which the
// run overwrites once Found returns.
func (s *runSink) Found(i int, ms []Match, st Stats) error {
	kept := make([]Match, len(ms))
	for k, m := range ms {
		kept[k] = Match{Start: m.Start, End: m.End, Spans: append([]Span(nil), m.Spans...)}
	}
	s.found = append(s.found, foundCluster{i, kept, st})
	return nil
}

func (s *runSink) Tick(clusters, rows, matches int64) {
	s.ticks.clusters += clusters
	s.ticks.rows += rows
	s.ticks.matches += matches
}

// runCheck searches clusters as one Run with FindRun on an executor from
// mk, and cluster by cluster with FindAll on another, and fails unless the
// sink was handed every cluster with a match — matches, spans and Stats —
// and ticked every cluster, row and match, the run's Stats are the
// clusters', an OPS's pair scans resolved the same rows, a one-cluster
// Run of each cluster on a third executor books the counters FindAll does,
// and Runs cut off the block seams, or at them, find what the whole one
// does. It does so twice: over masks that carry no booking, which FindRun
// books block by block into scratch, and over the same masks with every
// block booked under sc, as a partition memo books them; both runs must
// book the same clusters in closed form. It returns how many clusters the
// run booked in closed form and whether it took the chunk-wide pure loop,
// which calls no Enter.
func runCheck(t testing.TB, label string, mk func() Executor, clusters [][]storage.Row, masks []*pattern.MaskSet, sc Scan) (closed int64, pure bool) {
	t.Helper()
	ref := mk()
	var want []foundCluster
	var each []Stats
	var wantStats Stats
	rows := 0
	for i, seq := range clusters {
		if masks != nil {
			ref.UseMasks(masks[i])
		}
		ms, st := ref.FindAll(seq)
		if len(ms) > 0 {
			want = append(want, foundCluster{i, ms, st})
		}
		each = append(each, st)
		wantStats.Add(st)
		rows += len(seq)
	}

	scratch := chunk(clusters, masks, nil)
	booked := scratch
	booked.Masks = bookedBlocks(masks, sc)
	for pass, all := range []Run{scratch, booked} {
		label := label + [...]string{" scratch-booked", " memo-booked"}[pass]
		ex := mk()
		sink := &runSink{}
		r := all
		r.Sink = sink
		before := ClosedClusters()
		if err := ex.FindRun(&r); err != nil {
			t.Fatalf("%s: FindRun: %v", label, err)
		}
		if c := ClosedClusters() - before; pass == 0 {
			closed = c
		} else if c != closed {
			t.Fatalf("%s: %d clusters closed, %d booking into scratch", label, c, closed)
		}
		if r.Stats != wantStats {
			t.Fatalf("%s: the run's stats are %+v, the clusters' %+v", label, r.Stats, wantStats)
		}
		one := mk()
		for i := range clusters {
			r := all
			r.Lo, r.Hi, r.Sink = i, i+1, &runSink{}
			if err := one.FindRun(&r); err != nil {
				t.Fatalf("%s: FindRun of cluster %d alone: %v", label, i, err)
			}
			if r.Stats != each[i] {
				t.Fatalf("%s: cluster %d searched alone books %+v, FindAll %+v", label, i, r.Stats, each[i])
			}
		}
		// Runs cut off the block seams, and runs of whole blocks and a last
		// partial one, as a driver's chunks fall, hand the sink what the
		// whole run does, under the clusters' own indexes.
		blockCuts := []int{0}
		for lo := storage.BlockLen; lo < len(clusters); lo += storage.BlockLen {
			blockCuts = append(blockCuts, lo)
		}
		for _, cuts := range [][]int{{0, len(clusters) / 3, len(clusters)}, append(blockCuts, len(clusters))} {
			pieces, pieceStats := &runSink{}, Stats{}
			for k := 1; k < len(cuts); k++ {
				r := all
				r.Lo, r.Hi, r.Sink = cuts[k-1], cuts[k], pieces
				if err := one.FindRun(&r); err != nil {
					t.Fatalf("%s: FindRun of clusters [%d, %d): %v", label, r.Lo, r.Hi, err)
				}
				pieceStats.Add(r.Stats)
			}
			if pieceStats != wantStats || len(pieces.found) != len(want) {
				t.Fatalf("%s: runs cut at %v found %d clusters and booked %+v, want %d and %+v", label, cuts, len(pieces.found), pieceStats, len(want), wantStats)
			}
			for k, f := range pieces.found {
				if w := want[k]; f.i != w.i || f.st != w.st || !matchesEqual(f.ms, w.ms) {
					t.Fatalf("%s: runs cut at %v found cluster %d %+v, want cluster %d %+v", label, cuts, f.i, f.st, w.i, w.st)
				}
			}
		}
		if len(sink.found) != len(want) {
			t.Fatalf("%s: %d clusters found, want %d", label, len(sink.found), len(want))
		}
		for k, f := range sink.found {
			if w := want[k]; f.i != w.i || f.st != w.st || !matchesEqual(f.ms, w.ms) {
				t.Fatalf("%s: found cluster %d %+v %s, want cluster %d %+v %s", label, f.i, f.st, fmtMatches(f.ms), w.i, w.st, fmtMatches(w.ms))
			}
		}
		if wantTicks := (progress{int64(len(clusters)), int64(rows), int64(wantStats.Matches)}); sink.ticks != wantTicks {
			t.Fatalf("%s: ticked %+v, want %+v", label, sink.ticks, wantTicks)
		}
		if o, ok := ex.(*OPS); ok && o.pairRows != ref.(*OPS).pairRows {
			t.Fatalf("%s: the run's pair scans resolved %d rows, the clusters' %d", label, o.pairRows, ref.(*OPS).pairRows)
		}
		if sink.entered != 0 && sink.entered != len(clusters) {
			t.Fatalf("%s: Enter called %d times over %d clusters", label, sink.entered, len(clusters))
		}
		if sink.entered == 0 && closed+int64(len(want)) > int64(len(clusters)) {
			t.Fatalf("%s: %d clusters closed and %d matched of %d", label, closed, len(want), len(clusters))
		}
		if sink.entered != 0 && closed != 0 {
			t.Fatalf("%s: the per-cluster loop booked %d clusters in closed form", label, closed)
		}
		pure = len(clusters) > 0 && sink.entered == 0
	}
	return closed, pure
}

// chunk is clusters with their masks (nil: none), which carry no booking,
// as one Run over them all, handing its sink to sink.
func chunk(clusters [][]storage.Row, masks []*pattern.MaskSet, sink RunSink) Run {
	return Run{Clusters: blocksOf[[]storage.Row, struct{}](clusters), Masks: blocksOf[*pattern.MaskSet, Booking](masks), Hi: len(clusters), Sink: sink}
}

// blocksOf returns a storage.Blocks of a copy of s's elements, with zero
// summaries.
func blocksOf[T, S any](s []T) storage.Blocks[T, S] {
	e := storage.Blocks[T, S]{}.Edit(len(s))
	for i, v := range s {
		e.Set(i, v)
	}
	return e.Done()
}

// bookedBlocks is masks in blocks, each block booked under sc, as a
// partition memo books what it builds.
func bookedBlocks(masks []*pattern.MaskSet, sc Scan) MaskBlocks {
	e := MaskBlocks{}.Edit(len(masks))
	for i, ms := range masks {
		e.Set(i, ms)
	}
	for lo := 0; lo < len(masks); lo += storage.BlockLen {
		e.SetSum(lo, sc.Book(masks[lo:min(lo+storage.BlockLen, len(masks))]))
	}
	return e.Done()
}

// runMemo builds a memo's masks over clusters with one BuildRun; with
// refresh set, every seventh cluster is rebuilt as one more run, as a
// partition refresh rebuilds its stale clusters, so the chunk's masks come
// from two slabs.
func runMemo(k *pattern.Kernel, clusters [][]storage.Row, refresh bool) []*pattern.MaskSet {
	if k.CompiledElems() == 0 || len(clusters) == 0 {
		return nil
	}
	ms := make([]*pattern.MaskSet, len(clusters))
	sets := k.BuildRun(len(clusters), func(j int) []storage.Row { return clusters[j] })
	for i := range sets {
		ms[i] = &sets[i]
	}
	if refresh {
		again := k.BuildRun((len(clusters)+6)/7, func(j int) []storage.Row { return clusters[7*j] })
		for j := range again {
			ms[7*j] = &again[j]
		}
	}
	return ms
}

// runChecks runs runCheck for pattern p over clusters on both skip
// policies: the default OPS, each ablation config and naive over the same
// masks, and OPS interpreting. Every OPS config over the masks takes the
// chunk-wide pure loop exactly when the default one does, and the others
// never do. It returns the clusters the default runs over the masks
// booked in closed form and how many of them took the pure loop.
func runChecks(t testing.TB, label string, p *pattern.Pattern, clusters [][]storage.Row, refresh bool) (closed int64, pure int) {
	t.Helper()
	tab, k := core.Compute(p), p.CompileKernel()
	ms := runMemo(k, clusters, refresh)
	sc := NewScan(k, tab) // what a partition memo books under
	for _, policy := range []SkipPolicy{SkipPastLastRow, SkipToNextRow} {
		vec := func(cfg OPSConfig) func() Executor {
			return func() Executor {
				o := NewOPS(p, tab, cfg)
				o.UseKernel(k)
				return o
			}
		}
		cl, pu := runCheck(t, fmt.Sprintf("%s ops-vec %v", label, policy), vec(OPSConfig{Policy: policy}), clusters, ms, sc)
		closed += cl
		if pu {
			pure++
		}
		for _, cfg := range ablations(policy) {
			name := fmt.Sprintf("%s %s-vec %v", label, NewOPS(p, tab, cfg).Name(), policy)
			if _, apu := runCheck(t, name, vec(cfg), clusters, ms, sc); apu != pu {
				t.Fatalf("%s: took the chunk-wide pure loop = %v, the default config %v", name, apu, pu)
			}
		}
		for _, c := range []struct {
			name string
			mk   func() Executor
		}{
			{"naive-vec", func() Executor {
				n := NewNaive(p, policy)
				n.UseKernel(k)
				return n
			}},
			{"ops", func() Executor { return NewOPS(p, tab, OPSConfig{Policy: policy}) }},
		} {
			if _, pu := runCheck(t, fmt.Sprintf("%s %s %v", label, c.name, policy), c.mk, clusters, ms, sc); pu {
				t.Fatalf("%s %s %v: took the chunk-wide pure loop", label, c.name, policy)
			}
		}
	}
	return closed, pure
}

// cutClusters cuts seq into clusters at boundaries drawn from r: mostly
// lengths on and beside the mask's word seams, one-row clusters and short
// ones, some random.
func cutClusters(r *rand.Rand, seq []storage.Row) [][]storage.Row {
	lens := []int{1, 2, 3, 10, 10, 10, 63, 64, 65, 127, 128, 129}
	var out [][]storage.Row
	for len(seq) > 0 {
		n := lens[r.Intn(len(lens))]
		if r.Intn(4) == 0 {
			n = 1 + r.Intn(40)
		}
		n = min(n, len(seq))
		out = append(out, seq[:n:n])
		seq = seq[n:]
	}
	return out
}

// codes is a sequence of price codes over priceSchema: 1 satisfies X, 2
// satisfies Y, 0 and 3 neither (see TestPureLoopDifferential's pair
// corners).
func codes(n int, code func(i int) float64) []storage.Row {
	seq := make([]storage.Row, n)
	for i := range seq {
		seq[i] = storage.Row{storage.NewFloat(code(i))}
	}
	return seq
}

// calmWalk is a walk of moves within ±1 % and a 3 % fall one day in forty:
// the double bottom's X holds on most rows, and its pair — X, then a fall
// of over 2 % — is rare, as on the serving benchmark's many-cluster table.
func calmWalk(r *rand.Rand, n int) []storage.Row {
	out := make([]storage.Row, n)
	p := 50.0
	for i := range out {
		out[i] = storage.Row{storage.NewFloat(p)}
		step := 1 + (r.Float64()-0.5)*0.02
		if r.Intn(40) == 0 {
			step = 0.97
		}
		p *= step
	}
	return out
}

// split cuts seq into clusters of n rows.
func split(seq []storage.Row, n int) [][]storage.Row {
	var out [][]storage.Row
	for len(seq) > 0 {
		k := min(n, len(seq))
		out = append(out, seq[:k:k])
		seq = seq[k:]
	}
	return out
}

// TestKernelWithoutMasksInterprets: a batch search probes the masks it is
// handed or interprets. With a kernel attached and no masks — none, or a
// set over another number of rows — it holds no masks or projection and
// takes no pure loop, and by FindAll and by a Run (one cluster at a time)
// its matches and counters equal a search's over the kernel's masks.
func TestKernelWithoutMasksInterprets(t *testing.T) {
	p := doubleBottomShape()
	tab, k := core.Compute(p), p.CompileKernel()
	clusters := split(calmWalk(rand.New(rand.NewSource(9)), 40*200), 40)
	masks := runMemo(k, clusters, false)
	masked, bare := NewOPS(p, tab, OPSConfig{}), NewOPS(p, tab, OPSConfig{})
	masked.UseKernel(k)
	bare.UseKernel(k)
	for i, seq := range clusters {
		masked.UseMasks(masks[i])
		if i%2 == 1 {
			bare.UseMasks(testutil.Masks(k, seq[1:]))
		}
		diffCheck(t, fmt.Sprintf("cluster %d", i), explain(p), bare, masked, seq)
		if bare.masks != nil || bare.proj != nil || bare.ranPure || !masked.ranPure {
			t.Fatalf("cluster %d: a search without masks probed masks or a projection", i)
		}
	}
	want, got := &runSink{}, &runSink{}
	wr, gr := chunk(clusters, masks, want), chunk(clusters, nil, got)
	if masked.FindRun(&wr) != nil || bare.FindRun(&gr) != nil {
		t.Fatal("FindRun failed")
	}
	if gr.Stats != wr.Stats || !reflect.DeepEqual(got.found, want.found) || got.entered != len(clusters) {
		t.Fatalf("a run without masks: %+v, %d clusters matched, %d entered; over masks %+v, %d",
			gr.Stats, len(got.found), got.entered, wr.Stats, len(want.found))
	}
}

func TestRunLoopDifferential(t *testing.T) {
	var closed int64
	pure := 0
	add := func(c int64, p int) {
		closed += c
		pure += p
	}
	// Seeds from 120 on draw the same shapes star-free.
	for seed := 0; seed < 180; seed++ {
		r := rand.New(rand.NewSource(int64(9100 + seed)))
		n := 200 + r.Intn(400)
		var p *pattern.Pattern
		var seq []storage.Row
		if seed%2 == 0 {
			p, seq = purePattern(t, r), pureSeq(r, n)
		} else {
			p, seq = repeatPattern(t, r), walkSeq(r, n)
		}
		if seed >= 120 {
			p = starFree(p)
		}
		add(runChecks(t, fmt.Sprintf("seed %d", seed), p, cutClusters(r, seq), seed%4 == 1))
	}

	pb := func(elems ...pattern.Element) *pattern.Pattern {
		p, err := pattern.Compile(priceSchema(), elems, pattern.Options{})
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		return p
	}
	is := func(v float64) []pattern.Cond {
		return []pattern.Cond{pattern.FieldConst(0, pattern.Cur, constraint.Eq, v)}
	}
	rise := []pattern.Cond{pattern.FieldField(0, pattern.Cur, constraint.Gt, 0, pattern.Prev, 0)}
	xy := pb(pattern.Element{Name: "X", Local: is(1)}, pattern.Element{Name: "Y", Star: true, Local: is(2)})
	consume := pb(pattern.Element{Name: "X", Local: is(1)}, pattern.Element{Name: "Y", Local: []pattern.Cond{pattern.FieldConst(0, pattern.Cur, constraint.Ne, 1)}})
	if tab := core.Compute(consume); tab.Shift[2] != 1 || tab.Next[2] != 2 {
		t.Fatalf("the consume fixture has shift(2) = %d, next(2) = %d, want 1 and 2", tab.Shift[2], tab.Next[2])
	}
	random := func(seed int64) func(int) float64 {
		r := rand.New(rand.NewSource(seed))
		return func(int) float64 { return float64(r.Intn(4)) }
	}
	for _, c := range []struct {
		name     string
		p        *pattern.Pattern
		clusters [][]storage.Row
		pair     bool
		closed   func(int64) bool
	}{
		{"one-row clusters", xy, split(codes(500, random(1)), 1), true, func(c int64) bool { return c == 2*500 }},
		{"63-row clusters", xy, split(codes(63*40, random(2)), 63), true, nil},
		{"64-row clusters", xy, split(codes(64*40, random(3)), 64), true, nil},
		{"65-row clusters", xy, split(codes(65*40, random(4)), 65), true, nil},
		// Sparse X rows: most ten-row clusters hold no candidate at all.
		{"ten-row clusters, sparse X", xy, split(codes(10*2000, func(i int) float64 {
			return float64(min(i*7919%37, 2) % 3)
		}), 10), true, func(c int64) bool { return c > 1000 }},
		// X on a cluster's second-to-last row, Y on its last: the candidate
		// is the last pair, so no cluster is closed, and each one matches.
		{"candidate on the last pair", xy, split(codes(12*300, func(i int) float64 {
			return map[int]float64{10: 1, 11: 2}[i%12]
		}), 12), true, func(c int64) bool { return c == 0 }},
		// Every row is a failed start of two evals; every cluster is closed.
		{"X all ones, Y all zeros", pb(pattern.Element{Name: "X"}, pattern.Element{Name: "Y", Star: true, Local: is(7)}),
			split(codes(10*300, random(5)), 10), true, func(c int64) bool { return c == 2*300 }},
		// m = 1: a cluster's last row can match, so none is closed.
		{"m = 1 star", pb(pattern.Element{Name: "A", Star: true, Local: is(1)}),
			split(codes(10*300, random(6)), 10), false, func(c int64) bool { return c == 0 }},
		// next(2) = 0: the element-1 skip, closed where X has no row but the last.
		{"element-1 skip", pb(pattern.Element{Name: "X", Local: rise}, pattern.Element{Name: "Y", Star: true, Local: rise}, pattern.Element{Name: "Z", Local: is(1)}),
			split(walkSeq(rand.New(rand.NewSource(7)), 5*3000), 5), false, func(c int64) bool { return c > 0 }},
		{"double bottom, ten-row clusters", doubleBottomShape(),
			split(calmWalk(rand.New(rand.NewSource(8)), 10*3000), 10), true, func(c int64) bool { return c > 2*2000 }},
		// Star-free: three plain elements take the pair scan, and Y ≠ 1
		// failing on a row means X holds there — next(2) = 2, the tuple
		// consumed as X — which takes the element-1 skip.
		{"star-free pair scan", pb(pattern.Element{Name: "X", Local: is(1)}, pattern.Element{Name: "Y", Local: is(2)}, pattern.Element{Name: "Z", Local: is(3)}),
			split(codes(10*300, random(9)), 10), true, func(c int64) bool { return c > 0 }},
		{"star-free consume", consume, split(codes(10*300, random(10)), 10), false, nil},
	} {
		if got := NewOPS(c.p, core.Compute(c.p), OPSConfig{}).pair; got != c.pair {
			t.Fatalf("%s: the pure loop's pair scan = %v, want %v", c.name, got, c.pair)
		}
		for _, refresh := range []bool{false, true} {
			cl, pu := runChecks(t, fmt.Sprintf("%s refresh=%v", c.name, refresh), c.p, c.clusters, refresh)
			if pu != 2 {
				t.Fatalf("%s: the pure loop ran %d times of 2", c.name, pu)
			}
			if c.closed != nil && !c.closed(cl) {
				t.Fatalf("%s refresh=%v: %d clusters closed", c.name, refresh, cl)
			}
			add(cl, pu)
		}
	}

	t.Logf("the pure loop ran %d times, %d clusters booked in closed form", pure, closed)
	if pure < 100 {
		t.Fatalf("the chunk-wide pure loop ran %d times; the differential must cover at least 100", pure)
	}
	if closed < 10_000 {
		t.Fatalf("%d clusters booked in closed form; the differential must cover at least 10,000", closed)
	}
}

// TestRunBlockBooking: a run over masks whose blocks a partition memo
// booked under the default OPS executor's scan, a run booking each block
// into scratch, and FindAll cluster by cluster agree on matches, spans,
// Stats, pair-scanned rows and the clusters booked in closed form
// (runChecks), for the default executor and each ablation one, whose scan
// may not be the memo's, on both skip policies. The clusters are empty,
// one row, ten rows and 63, 64, 65 and 129 rows long, over 3 full blocks
// and a partial last one, and the runs are cut at and off the block seams.
// A run of whole blocks whose bookings were made under its scan takes them
// and books none into scratch; a run that covers part of a block, or whose
// scan is not the one the blocks were booked under, books into scratch.
func TestRunBlockBooking(t *testing.T) {
	pb := func(elems ...pattern.Element) *pattern.Pattern {
		p, err := pattern.Compile(priceSchema(), elems, pattern.Options{})
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		return p
	}
	is := func(v float64) []pattern.Cond {
		return []pattern.Cond{pattern.FieldConst(0, pattern.Cur, constraint.Eq, v)}
	}
	rise := []pattern.Cond{pattern.FieldField(0, pattern.Cur, constraint.Gt, 0, pattern.Prev, 0)}
	lens := []int{0, 1, 10, 10, 10, 10, 63, 64, 65, 129}
	cut := func(r *rand.Rand, seq []storage.Row, clusters int) [][]storage.Row {
		out := make([][]storage.Row, 0, clusters)
		for len(out) < clusters {
			n := min(lens[r.Intn(len(lens))], len(seq))
			out = append(out, seq[:n:n])
			seq = seq[n:]
		}
		return out
	}
	random := func(seed int64) func(int) float64 {
		r := rand.New(rand.NewSource(seed))
		return func(int) float64 { return float64(r.Intn(4)) }
	}
	const clusters = 3*storage.BlockLen + 9
	for _, c := range []struct {
		name string
		p    *pattern.Pattern
		seq  []storage.Row
	}{
		{"pair scan", pb(pattern.Element{Name: "X", Local: is(1)}, pattern.Element{Name: "Y", Star: true, Local: is(2)}), codes(40*clusters, random(1))},
		{"double bottom", doubleBottomShape(), calmWalk(rand.New(rand.NewSource(2)), 40*clusters)},
		{"element-1 skip", pb(pattern.Element{Name: "X", Local: rise}, pattern.Element{Name: "Y", Star: true, Local: rise}, pattern.Element{Name: "Z", Local: is(1)}), walkSeq(rand.New(rand.NewSource(3)), 40*clusters)},
		{"m = 1", pb(pattern.Element{Name: "A", Star: true, Local: is(1)}), codes(40*clusters, random(4))},
	} {
		for seed := int64(0); seed < 3; seed++ {
			cl := cut(rand.New(rand.NewSource(seed)), c.seq, clusters)
			label := fmt.Sprintf("%s seed %d", c.name, seed)
			closed, pure := runChecks(t, label, c.p, cl, seed == 1)
			if pure != 2 || (closed == 0) != (c.name == "m = 1") {
				t.Fatalf("%s: the pure loop ran %d times of 2, and booked %d clusters in closed form", label, pure, closed)
			}

			// Where the run takes the blocks' bookings and where it books.
			tab, k := core.Compute(c.p), c.p.CompileKernel()
			masks := runMemo(k, cl, false)
			booked := bookedBlocks(masks, NewScan(k, tab))
			for _, cfg := range append(ablations(SkipPastLastRow), OPSConfig{}) {
				o := NewOPS(c.p, tab, cfg)
				o.UseKernel(k)
				memo := o.scan() == NewScan(k, tab)
				for _, span := range [][2]int{{0, clusters}, {storage.BlockLen, 3 * storage.BlockLen}, {3 * storage.BlockLen, clusters}, {1, storage.BlockLen}, {storage.BlockLen, storage.BlockLen + 1}} {
					o.booked = Booking{}
					r := chunk(cl, nil, &runSink{})
					r.Masks, r.Lo, r.Hi = booked, span[0], span[1]
					if err := o.FindRun(&r); err != nil {
						t.Fatal(err)
					}
					whole := span[0]%storage.BlockLen == 0 && (span[1]%storage.BlockLen == 0 || span[1] == clusters)
					if scratch := o.booked != (Booking{}); scratch == (memo && whole) {
						t.Fatalf("%s %s: a run of [%d, %d) booked into scratch = %v, with the blocks booked under its scan = %v", label, o.Name(), span[0], span[1], scratch, memo)
					}
				}
			}
		}
	}
}

// FuzzRunLoop cuts what the seed draws from the differential's generators
// — purePattern over pureSeq for an even seed, repeatPattern over walkSeq
// for an odd one, n%2048 rows long, star-free when n's top bit is set —
// into clusters at the boundaries the cuts' bits choose, and runs
// runChecks and streamCheck on them. The seed corpus is in
// testdata/fuzz/FuzzRunLoop.
func FuzzRunLoop(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, n uint16, cuts uint64) {
		r := rand.New(rand.NewSource(seed))
		rows := int(n % 2048)
		var p *pattern.Pattern
		var seq []storage.Row
		if seed%2 == 0 {
			p, seq = purePattern(t, r), pureSeq(r, rows)
		} else {
			p, seq = repeatPattern(t, r), walkSeq(r, rows)
		}
		if n&0x8000 != 0 {
			p = starFree(p)
		}
		// Bit k of cuts ends a cluster after the row at k (mod 64) of every
		// 64-row stretch; the last cluster ends with the input.
		var clusters [][]storage.Row
		from := 0
		for i := range seq {
			if cuts>>(uint(i)%64)&1 != 0 || i == len(seq)-1 {
				clusters = append(clusters, seq[from:i+1:i+1])
				from = i + 1
			}
		}
		label := fmt.Sprintf("seed %d n=%d cuts=%x", seed, rows, cuts)
		runChecks(t, label, p, clusters, seed%4 == 1)
		streamCheck(t, label, p, clusters)
	})
}

// streamCheck pushes clusters round-robin through one StreamArena with
// the kernel attached, a row of each live cluster in turn, then flushes
// each, and fails unless every cluster's matches, and the arena's Stats,
// are what FindAll finds cluster by cluster under the default OPSConfig.
func streamCheck(t testing.TB, label string, p *pattern.Pattern, clusters [][]storage.Row) {
	t.Helper()
	tab := core.Compute(p)
	got := make([][]Match, len(clusters))
	var cur int32
	a := NewStreamArena(p, StreamConfig{Tables: tab}, nil, func(m Match) { got[cur] = append(got[cur], m) })
	a.UseKernel(p.CompileKernel())
	live := make([]int32, len(clusters))
	for id := range live {
		live[id] = a.Add(nil)
	}
	for row := 0; len(live) > 0; row++ {
		next := live[:0]
		for _, id := range live {
			cur = id
			if err := a.Push(id, clusters[id][row]); err != nil {
				t.Fatalf("%s: push to cluster %d: %v", label, id, err)
			}
			if row+1 < len(clusters[id]) {
				next = append(next, id)
			}
		}
		live = next
	}
	for id := range clusters {
		cur = int32(id)
		a.Flush(cur)
	}
	ref := NewOPS(p, tab, OPSConfig{})
	var want Stats
	for id, seq := range clusters {
		ms, st := ref.FindAll(seq)
		want.Add(st)
		if !matchesEqual(got[id], ms) {
			t.Fatalf("%s: stream cluster %d matched %s, FindAll %s", label, id, fmtMatches(got[id]), fmtMatches(ms))
		}
	}
	if a.Stats() != want {
		t.Fatalf("%s: the stream's stats are %+v, the clusters' %+v", label, a.Stats(), want)
	}
}

// tenRowChunk is 10,000 ten-row clusters of longRunFixture's pattern (A =
// 1, *B = 2): every seventh holds a match, the rest no candidate.
func tenRowChunk(t *testing.T) (*OPS, [][]storage.Row, []*pattern.MaskSet) {
	p, _ := longRunFixture(t, 0, 0)
	seq := codes(10*10_000, func(i int) float64 {
		switch c := i / 10; {
		case c%7 == 0 && i%10 == 4:
			return 1
		case c%7 == 0 && i%10 == 5:
			return 2
		}
		return float64(i % 2) // A fails, or A holds and *B fails on the next row
	})
	clusters := split(seq, 10)
	k := p.CompileKernel()
	masks := runMemo(k, clusters, false)
	o := NewOPS(p, core.Compute(p), OPSConfig{})
	o.UseKernel(k)
	return o, clusters, masks
}

// TestRunLoopCheckpointCadence: one eval count spans the chunk, so over
// 10,000 ten-row clusters — none of which crosses a 1,024-eval boundary by
// itself — the interrupt is consulted exactly PredEvals>>10 times, and the
// flight is ticked at the end of every block a checkpoint fell in (no block
// here reaches 1,024 evals), whether the run books its blocks into scratch
// or takes them booked.
func TestRunLoopCheckpointCadence(t *testing.T) {
	o, clusters, masks := tenRowChunk(t)
	for _, booked := range []bool{false, true} {
		calls := int64(0)
		o.SetInterrupt(func() error { calls++; return nil })
		sink := &tickLog{}
		r := chunk(clusters, masks, sink)
		if booked {
			r.Masks = bookedBlocks(masks, NewScan(o.kern, o.tables))
		}
		before := ClosedClusters()
		if err := o.FindRun(&r); err != nil {
			t.Fatal(err)
		}
		if closed := ClosedClusters() - before; closed < 8000 || r.Stats.Matches != (10_000+6)/7 {
			t.Fatalf("booked=%v: %d clusters closed, %d matches: the fixture is off", booked, closed, r.Stats.Matches)
		}
		if calls != r.Stats.PredEvals>>10 {
			t.Fatalf("booked=%v: interrupt consulted %d times over %d pred-evals, want %d", booked, calls, r.Stats.PredEvals, r.Stats.PredEvals>>10)
		}
		if len(sink.ticks) < int(calls) || len(sink.ticks) > int(calls)+1 {
			t.Fatalf("booked=%v: %d ticks for %d checkpoints", booked, len(sink.ticks), calls)
		}
		done := progress{}
		for _, tk := range sink.ticks {
			done.clusters += tk.clusters
			done.rows += tk.rows
			done.matches += tk.matches
		}
		if done != (progress{10_000, 100_000, int64(r.Stats.Matches)}) {
			t.Fatalf("booked=%v: ticked %+v in all", booked, done)
		}
	}
}

// tickLog is a sink that keeps every tick.
type tickLog struct {
	runSink
	ticks []progress
}

func (s *tickLog) Tick(clusters, rows, matches int64) {
	s.ticks = append(s.ticks, progress{clusters, rows, matches})
}

// TestRunLoopInterrupt: an error at the k-th checkpoint of the chunk-wide
// pure loop unwinds it inside the block the checkpoint fell in — the first
// block whose evals reach k*1024 on the chunk's count, the block's closed
// clusters booked onto it before its open clusters are searched. So when
// the closed clusters' booking crosses the boundary, no cluster of that
// block or of a later one reaches the sink; when an open cluster's search
// does, no cluster from that one on does. Either way the flight is ticked
// with exactly the clusters of the blocks before it. Both hold with the
// run booking each block into scratch and with every block booked ahead,
// as a partition memo books them; and k covers a checkpoint in a block's
// booking and one in an open cluster's search.
func TestRunLoopInterrupt(t *testing.T) {
	o, clusters, masks := tenRowChunk(t)
	sc := NewScan(o.kern, o.tables)
	// Where each block's booking, and each open cluster's search, ends on
	// the chunk's count: searched is the cluster searched, -1 for a
	// booking.
	type event struct {
		end      int64
		block    int
		searched int
	}
	var events []event
	var total int64
	for lo := 0; lo < len(clusters); lo += storage.BlockLen {
		hi := min(lo+storage.BlockLen, len(clusters))
		bk := sc.Book(masks[lo:hi])
		total += bk.evals
		events = append(events, event{total, lo, -1})
		for i := lo; i < hi; i++ {
			if bk.open>>(i-lo)&1 == 0 {
				continue
			}
			ref := NewOPS(o.p, o.tables, OPSConfig{})
			ref.UseKernel(o.kern)
			ref.UseMasks(masks[i])
			_, st := ref.FindAll(clusters[i])
			total += st.PredEvals
			events = append(events, event{total, lo, i})
		}
	}
	// The first k whose checkpoint falls in a booking, and the first whose
	// falls in a search.
	inBooking, inSearch := int64(0), int64(0)
	for k, e := int64(1), 0; k <= total>>10 && (inBooking == 0 || inSearch == 0); k++ {
		for events[e].end < k<<10 {
			e++
		}
		if events[e].searched < 0 && inBooking == 0 {
			inBooking = k
		} else if events[e].searched >= 0 && inSearch == 0 {
			inSearch = k
		}
	}
	if inBooking == 0 || inSearch == 0 {
		t.Fatalf("no checkpoint falls in a booking (%d) or in a search (%d): the fixture is off", inBooking, inSearch)
	}
	stop := errors.New("stop")
	for _, booked := range []bool{false, true} {
		for _, k := range []int64{1, 2, 50, total >> 10, inBooking, inSearch} {
			calls := int64(0)
			o.SetInterrupt(func() error {
				if calls++; calls == k {
					return stop
				}
				return nil
			})
			sink := &runSink{}
			r := chunk(clusters, masks, sink)
			if booked {
				r.Masks = bookedBlocks(masks, sc)
			}
			err := func() (err error) {
				defer func() {
					if it, ok := recover().(Interrupt); ok {
						err = it.Err
					}
				}()
				return o.FindRun(&r)
			}()
			if !errors.Is(err, stop) || calls != k {
				t.Fatalf("booked=%v checkpoint %d: err=%v after %d calls", booked, k, err, calls)
			}
			at := 0
			for events[at].end < k<<10 {
				at++
			}
			e := events[at]
			first := e.block // the first cluster that must not reach the sink
			if e.searched >= 0 {
				first = e.searched
			}
			for _, f := range sink.found {
				if f.i >= first {
					t.Fatalf("booked=%v checkpoint %d fell in block %d (searching cluster %d), but cluster %d was handed to the sink", booked, k, e.block/storage.BlockLen, e.searched, f.i)
				}
			}
			if want := (first + 6) / 7; len(sink.found) != want {
				t.Fatalf("booked=%v checkpoint %d: %d clusters reached the sink, want the %d before cluster %d", booked, k, len(sink.found), want, first)
			}
			if sink.ticks.clusters != int64(e.block) {
				t.Fatalf("booked=%v checkpoint %d fell in the block from cluster %d, but %d clusters were ticked", booked, k, e.block, sink.ticks.clusters)
			}
		}
	}
}

// TestRunLoopEnterStops: on the per-cluster loop an error from Enter stops
// the run before that cluster is searched, and the clusters before it have
// been ticked.
func TestRunLoopEnterStops(t *testing.T) {
	o, clusters, masks := tenRowChunk(t)
	o.Trace() // path tracing: the per-cluster loop
	stop := errors.New("stop")
	sink := &runSink{enter: func(i int) error {
		if i == 300 {
			return stop
		}
		return nil
	}}
	r := chunk(clusters, masks, sink)
	if err := o.FindRun(&r); !errors.Is(err, stop) {
		t.Fatalf("err = %v", err)
	}
	if want := (progress{300, 3000, int64(sink.ticks.matches)}); sink.entered != 301 || sink.ticks != want || len(sink.found) != (300+6)/7 {
		t.Fatalf("entered %d, ticked %+v, found %d", sink.entered, sink.ticks, len(sink.found))
	}
	if last := sink.found[len(sink.found)-1].i; last != 294 {
		t.Fatalf("the last cluster found is %d, want 294", last)
	}
}
