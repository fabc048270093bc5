package engine

// Tests of the run loops (FindRun): a chunk of clusters searched as one
// Run must leave what searching them one FindAll at a time leaves — every
// cluster's matches, spans and counters, the cluster log's bytes, the pair
// scans' rows — on the chunk-wide pure loop, where most clusters are booked
// in closed form, and on the generic per-cluster loop alike.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sqlts/internal/constraint"
	"sqlts/internal/core"
	"sqlts/internal/pattern"
	"sqlts/internal/storage"
)

// refLog is the cluster log's reference encoding: four uvarints per entry.
func refLog(log []byte, rows int, s Stats) []byte {
	for _, v := range []uint64{uint64(rows), uint64(s.PredEvals), uint64(s.Rollbacks), uint64(s.Matches)} {
		log = binary.AppendUvarint(log, v)
	}
	return log
}

// TestClusterLogRoundTrip: the log writer's entries are the reference
// encoding byte for byte and decode to what was written, at every uvarint
// length seam; and a block reserved to the byte — the plan's last log —
// takes a run whose last entry ends exactly at its end without a refill,
// the last entries encoded aside.
func TestClusterLogRoundTrip(t *testing.T) {
	vals := []int64{0, 127, 128, 16383, 16384, math.MaxInt64}
	var entries []Stats
	var rowCounts []int
	for i, v := range vals {
		entries = append(entries, Stats{PredEvals: v, Rollbacks: vals[(i+1)%len(vals)], Matches: int(vals[(i+2)%len(vals)])})
		rowCounts = append(rowCounts, int(vals[(i+3)%len(vals)]))
	}
	for k := range 20 { // ten-row clusters: the common four-byte entry
		entries = append(entries, Stats{PredEvals: int64(10 + k), Rollbacks: 9})
		rowCounts = append(rowCounts, 10)
	}
	var want []byte
	for i, s := range entries {
		want = refLog(want, rowCounts[i], s)
	}

	for _, reserve := range []int{0, len(want), len(want) + 3} {
		var b Block[byte]
		b.Reserve(reserve)
		b.Append(b.Len(), 7, 7, 7) // an earlier run in the block
		w := newLogWriter(&b)
		for i, s := range entries {
			w.put(rowCounts[i], s)
		}
		got := w.run()
		if string(got) != string(want) {
			t.Fatalf("reserve %d: the log is %x, want %x", reserve, got, want)
		}
		if reserve == len(want)+3 && (cap(b.buf) != reserve || len(b.buf) != reserve) {
			t.Fatalf("reserved to the byte: the block is %d of %d bytes, want %d of %d — it refilled", len(b.buf), cap(b.buf), reserve, reserve)
		}
		for i, log := 0, got; len(log) > 0; i++ {
			var rows int
			var s Stats
			rows, s, log = NextClusterStat(log)
			if rows != rowCounts[i] || s != entries[i] {
				t.Fatalf("reserve %d: entry %d decodes to %d rows %+v, want %d rows %+v", reserve, i, rows, s, rowCounts[i], entries[i])
			}
		}
	}
}

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

func (s *runSink) Found(i int, ms []Match, st Stats) error {
	s.found = append(s.found, foundCluster{i, ms, st})
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
// and ticked every cluster, row and match, the run's Stats and log are the
// clusters', and an OPS's pair scans resolved the same rows. Over supplied
// masks neither executor may project a cluster: the masks answer every
// compiled element and the interpreter the rest. It returns how many
// clusters the run booked in closed form and whether it took the
// chunk-wide pure loop, which calls no Enter.
func runCheck(t testing.TB, label string, mk func() Executor, clusters [][]storage.Row, masks []*pattern.MaskSet) (closed int64, pure bool) {
	t.Helper()
	ref := mk()
	var want []foundCluster
	var wantLog []byte
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
		wantLog = refLog(wantLog, len(seq), st)
		wantStats.Add(st)
		rows += len(seq)
	}

	ex := mk()
	sink := &runSink{}
	var log Block[byte]
	r := Run{Seqs: clusters, Masks: masks, Log: &log, Sink: sink}
	before := ClosedClusters()
	if err := ex.FindRun(&r); err != nil {
		t.Fatalf("%s: FindRun: %v", label, err)
	}
	closed = ClosedClusters() - before
	if r.Stats != wantStats {
		t.Fatalf("%s: the run's stats are %+v, the clusters' %+v", label, r.Stats, wantStats)
	}
	if string(r.Entries) != string(wantLog) {
		t.Fatalf("%s: the run's log is %x, the clusters' %x", label, r.Entries, wantLog)
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

// runMemo builds a memo's masks over clusters with one BuildRun; with
// refresh set, one cluster is rebuilt as a run of its own, as a partition
// refresh does, so the chunk's masks come from two slabs.
func runMemo(k *pattern.Kernel, clusters [][]storage.Row, refresh bool) []*pattern.MaskSet {
	if k.CompiledElems() == 0 || len(clusters) == 0 {
		return nil
	}
	ms := make([]*pattern.MaskSet, len(clusters))
	k.BuildRun(clusters, 0, len(clusters), ms)
	if refresh {
		c := len(clusters) / 2
		k.BuildRun(clusters, c, c+1, ms)
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
// runChecks on them. The seed corpus is in testdata/fuzz/FuzzRunLoop.
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
		runChecks(t, fmt.Sprintf("seed %d n=%d cuts=%x", seed, rows, cuts), p, clusters, seed%4 == 1)
	})
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
	var log Block[byte]
	r := Run{Seqs: clusters, Masks: masks, Log: &log, Sink: sink}
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
// pure loop unwinds it inside the cluster the checkpoint fell in: the log
// holds exactly the clusters before it, no later cluster is handed to the
// sink, and the flight was never ticked past them.
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
		var log Block[byte]
		r := Run{Seqs: clusters, Masks: masks, Log: &log, Sink: sink}
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
		entries := 0
		for rest := log.Run(0); len(rest) > 0; entries++ {
			_, _, rest = NextClusterStat(rest)
		}
		if entries != at {
			t.Fatalf("checkpoint %d fell in cluster %d, but the log holds %d clusters", k, at, entries)
		}
		for _, f := range sink.found {
			if f.i >= at {
				t.Fatalf("checkpoint %d fell in cluster %d, but cluster %d was handed to the sink", k, at, f.i)
			}
		}
		if sink.ticks.clusters > int64(at) {
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
	var log Block[byte]
	r := Run{Seqs: clusters, Masks: masks, Log: &log, Sink: sink}
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
