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
	"testing"

	"sqlts/internal/constraint"
	"sqlts/internal/core"
	"sqlts/internal/pattern"
	"sqlts/internal/storage"
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
// and two Runs cut off the block seams find what the whole one does. Over
// supplied masks neither executor may project a cluster: the masks answer every
// compiled element and the interpreter the rest. It returns how many
// clusters the run booked in closed form and whether it took the
// chunk-wide pure loop, which calls no Enter.
func runCheck(t testing.TB, label string, mk func() Executor, clusters [][]storage.Row, masks []*pattern.MaskSet) (closed int64, pure bool) {
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

	ex := mk()
	sink := &runSink{}
	all := chunk(clusters, masks, nil)
	r := all
	r.Sink = sink
	before := ClosedClusters()
	if err := ex.FindRun(&r); err != nil {
		t.Fatalf("%s: FindRun: %v", label, err)
	}
	closed = ClosedClusters() - before
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
	// Two runs cut off the block seams, as a driver's chunks fall, hand
	// the sink what the whole run does, under the clusters' own indexes.
	halves, halfStats := &runSink{}, Stats{}
	for _, cut := range [][2]int{{0, len(clusters) / 3}, {len(clusters) / 3, len(clusters)}} {
		r := all
		r.Lo, r.Hi, r.Sink = cut[0], cut[1], halves
		if err := one.FindRun(&r); err != nil {
			t.Fatalf("%s: FindRun of clusters [%d, %d): %v", label, cut[0], cut[1], err)
		}
		halfStats.Add(r.Stats)
	}
	if halfStats != wantStats || len(halves.found) != len(want) {
		t.Fatalf("%s: two runs found %d clusters and booked %+v, want %d and %+v", label, len(halves.found), halfStats, len(want), wantStats)
	}
	for k, f := range halves.found {
		if w := want[k]; f.i != w.i || f.st != w.st || !matchesEqual(f.ms, w.ms) {
			t.Fatalf("%s: two runs found cluster %d %+v, want cluster %d %+v", label, f.i, f.st, w.i, w.st)
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
	if masks != nil && (projected(ref) || projected(ex)) {
		t.Fatalf("%s: a search over supplied masks projected a cluster", label)
	}
	return closed, len(clusters) > 0 && sink.entered == 0
}

// projected reports whether ex, an OPS or a Naive, has decoded a sequence
// into a projection of its own or been handed one.
func projected(ex Executor) bool {
	var e *evaluator
	switch x := ex.(type) {
	case *OPS:
		e = &x.evaluator
	case *Naive:
		e = &x.evaluator
	}
	return e.ownProj != nil || e.proj != nil
}

// chunk is clusters with their masks (nil: none) as one Run over them all,
// handing its sink to sink.
func chunk(clusters [][]storage.Row, masks []*pattern.MaskSet, sink RunSink) Run {
	return Run{Clusters: blocksOf(clusters), Masks: blocksOf(masks), Hi: len(clusters), Sink: sink}
}

// blocksOf returns a storage.Blocks of a copy of s's elements.
func blocksOf[T any](s []T) storage.Blocks[T] {
	e := storage.Blocks[T]{}.Edit(len(s))
	for i, v := range s {
		e.Set(i, v)
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
// policies: the default vectorized OPS, each ablation config vectorized
// and naive over the same masks, and OPS interpreting. Every vectorized
// OPS config takes the chunk-wide pure loop exactly when the default one
// does, and the others never do. It returns the clusters the default
// vectorized runs booked in closed form and how many of them took the
// pure loop.
func runChecks(t testing.TB, label string, p *pattern.Pattern, clusters [][]storage.Row, refresh bool) (closed int64, pure int) {
	t.Helper()
	tab, k := core.Compute(p), p.CompileKernel()
	ms := runMemo(k, clusters, refresh)
	for _, policy := range []SkipPolicy{SkipPastLastRow, SkipToNextRow} {
		vec := func(cfg OPSConfig) func() Executor {
			return func() Executor {
				o := NewOPS(p, tab, cfg)
				o.UseKernel(k)
				o.SetVectorized(true)
				return o
			}
		}
		cl, pu := runCheck(t, fmt.Sprintf("%s ops-vec %v", label, policy), vec(OPSConfig{Policy: policy}), clusters, ms)
		closed += cl
		if pu {
			pure++
		}
		for _, cfg := range ablations(policy) {
			name := fmt.Sprintf("%s %s-vec %v", label, NewOPS(p, tab, cfg).Name(), policy)
			if _, apu := runCheck(t, name, vec(cfg), clusters, ms); apu != pu {
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
				n.SetVectorized(true)
				return n
			}},
			{"ops", func() Executor { return NewOPS(p, tab, OPSConfig{Policy: policy}) }},
		} {
			if _, pu := runCheck(t, fmt.Sprintf("%s %s %v", label, c.name, policy), c.mk, clusters, ms); pu {
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
	a := NewStreamArena(p, StreamConfig{Tables: tab}, func(m Match) { got[cur] = append(got[cur], m) })
	a.UseKernel(p.CompileKernel())
	live := make([]int32, len(clusters))
	for id := range live {
		live[id] = a.Add()
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
	o.SetVectorized(true)
	return o, clusters, masks
}

// TestRunLoopCheckpointCadence: one eval count spans the chunk, so over
// 10,000 ten-row clusters — none of which crosses a 1,024-eval boundary by
// itself — the interrupt is consulted exactly PredEvals>>10 times, and the
// flight is ticked at the end of every cluster a checkpoint fell in.
func TestRunLoopCheckpointCadence(t *testing.T) {
	o, clusters, masks := tenRowChunk(t)
	calls := int64(0)
	o.SetInterrupt(func() error { calls++; return nil })
	sink := &tickLog{}
	r := chunk(clusters, masks, sink)
	before := ClosedClusters()
	if err := o.FindRun(&r); err != nil {
		t.Fatal(err)
	}
	if closed := ClosedClusters() - before; closed < 8000 || r.Stats.Matches != (10_000+6)/7 {
		t.Fatalf("%d clusters closed, %d matches: the fixture is off", closed, r.Stats.Matches)
	}
	if calls != r.Stats.PredEvals>>10 {
		t.Fatalf("interrupt consulted %d times over %d pred-evals, want %d", calls, r.Stats.PredEvals, r.Stats.PredEvals>>10)
	}
	if len(sink.ticks) < int(calls) || len(sink.ticks) > int(calls)+1 {
		t.Fatalf("%d ticks for %d checkpoints", len(sink.ticks), calls)
	}
	done := progress{}
	for _, tk := range sink.ticks {
		done.clusters += tk.clusters
		done.rows += tk.rows
		done.matches += tk.matches
	}
	if done != (progress{10_000, 100_000, int64(r.Stats.Matches)}) {
		t.Fatalf("ticked %+v in all", done)
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
// pure loop unwinds it inside the cluster the checkpoint fell in: the
// flight is ticked with exactly the clusters before it, and no later
// cluster is handed to the sink.
func TestRunLoopInterrupt(t *testing.T) {
	o, clusters, masks := tenRowChunk(t)
	// Where each cluster's evals end on the chunk's count.
	var ends []int64
	var total int64
	for i, seq := range clusters {
		ref := NewOPS(o.p, o.tables, OPSConfig{})
		ref.UseKernel(o.kern)
		ref.SetVectorized(true)
		ref.UseMasks(masks[i])
		_, st := ref.FindAll(seq)
		total += st.PredEvals
		ends = append(ends, total)
	}
	stop := errors.New("stop")
	for _, k := range []int64{1, 2, 50, total >> 10} {
		calls := int64(0)
		o.SetInterrupt(func() error {
			if calls++; calls == k {
				return stop
			}
			return nil
		})
		sink := &runSink{}
		r := chunk(clusters, masks, sink)
		err := func() (err error) {
			defer func() {
				if it, ok := recover().(Interrupt); ok {
					err = it.Err
				}
			}()
			return o.FindRun(&r)
		}()
		if !errors.Is(err, stop) || calls != k {
			t.Fatalf("checkpoint %d: err=%v after %d calls", k, err, calls)
		}
		// The k-th checkpoint falls in the first cluster whose evals reach
		// k*1024 on the chunk's count.
		at := 0
		for ends[at] < k<<10 {
			at++
		}
		for _, f := range sink.found {
			if f.i >= at {
				t.Fatalf("checkpoint %d fell in cluster %d, but cluster %d was handed to the sink", k, at, f.i)
			}
		}
		if sink.ticks.clusters != int64(at) {
			t.Fatalf("checkpoint %d fell in cluster %d, but %d clusters were ticked", k, at, sink.ticks.clusters)
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
