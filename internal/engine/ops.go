package engine

import (
	"fmt"
	"sync/atomic"

	"sqlts/internal/core"
	"sqlts/internal/pattern"
	"sqlts/internal/storage"
)

// OPSConfig configures an OPS executor.
type OPSConfig struct {
	Policy SkipPolicy
	// ShiftOnly disables the next() table (every resumption re-checks from
	// pattern element 1) while keeping shift(); it measures how much of
	// the win comes from not re-checking known-true prefixes (ablation).
	ShiftOnly bool
	// NoCounters disables the §5 count[] rollback for star patterns and
	// restarts naively one past the failed attempt's start (ablation).
	NoCounters bool
	// LastRowSkip enables the reproduction's extension to the star
	// runtime: when the compile-time walk proves the failed tuple
	// satisfies the plain element it rolls back to (core.Tables.SkipOK),
	// consume it without re-testing — the star analogue of the plain
	// pattern's next = j-shift+1 case.
	LastRowSkip bool
}

// OPS is the optimized executor driven by the compile-time shift/next
// tables: the paper's Optimized Pattern Search algorithm (§4.2.1 for
// plain patterns, §5 for patterns with star elements).
type OPS struct {
	evaluator
	tables *core.Tables
	cfg    OPSConfig
	// ranPure records whether the last FindAll or FindRun took the pure
	// loop, and pairRows how many rows its pair scans have resolved in all,
	// for the package's differential tests. ranPure shares cfg's word.
	ranPure  bool
	count    []int
	pairRows int64
}

// closedClusters counts the clusters FindRun has booked in closed form in
// this process, a chunk at a time.
var closedClusters atomic.Int64

// ClosedClusters returns how many clusters OPS.FindRun has booked in closed
// form in this process: for tests that must know a run took the chunk-wide
// pure loop.
func ClosedClusters() int64 { return closedClusters.Load() }

// NewOPS builds an OPS executor for a pattern and its computed tables.
func NewOPS(p *pattern.Pattern, tables *core.Tables, cfg OPSConfig) *OPS {
	return &OPS{
		evaluator: newEvaluator(p),
		tables:    tables,
		cfg:       cfg,
		count:     make([]int, p.Len()+1),
	}
}

// Name implements Executor.
func (o *OPS) Name() string {
	switch {
	case o.cfg.ShiftOnly:
		return "ops-shift-only"
	case o.cfg.NoCounters:
		return "ops-no-counters"
	case o.cfg.LastRowSkip:
		return "ops+skip"
	default:
		return "ops"
	}
}

// Trace enables path recording (Figure 5); call before FindAll.
func (o *OPS) Trace() { o.doTrc = true }

// Path returns the recorded search path.
func (o *OPS) Path() []PathPoint { return o.trace }

func (o *OPS) shiftNext(j int) (int, int) {
	sh, nx := o.tables.Shift[j], o.tables.Next[j]
	if o.cfg.ShiftOnly && nx > 1 {
		nx = 1
	}
	return sh, nx
}

// FindAll implements Executor.
func (o *OPS) FindAll(seq []storage.Row) ([]Match, Stats) {
	o.trace = o.trace[:0]
	o.reset(seq)
	o.stats = Stats{}
	// The pure-mask loop serves the default executor only; the ablation
	// configs stay on the generic loop it is differenced against.
	l := selectLoop(o.tables, o.allPure && o.cfg == OPSConfig{Policy: o.cfg.Policy})
	o.ranPure = l >= loopPureSkip
	switch l {
	case loopPlain:
		return o.findAllPlain(seq)
	case loopGeneric:
		return o.findAllStar(seq)
	}
	return o.findAllStarPure(seq, l == loopPurePair)
}

// loop is a search loop of OPS.FindAll.
type loop uint8

const (
	loopPlain    loop = iota // findAllPlain: the pattern has no star
	loopGeneric              // findAllStar: some probe needs more than a mask
	loopPureSkip             // findAllStarPure skipping element 1's zero runs
	loopPurePair             // findAllStarPure with the pair scan
)

// selectLoop is FindAll's choice of loop for a pattern with tables t; pure
// reports whether every element's mask alone answers its probes, nothing
// observes probes one at a time and the config is the default one. The
// pure loop runs the pair scan when element 2 cannot fail an attempt in
// any other way than one that resumes at element 1 on the next row:
// element 1 is plain, and shift(2) = next(2) = 1.
func selectLoop(t *core.Tables, pure bool) loop {
	switch {
	case !t.HasStar:
		return loopPlain
	case !pure:
		return loopGeneric
	case t.M >= 2 && !t.Star[1] && t.Shift[2] == 1 && t.Next[2] == 1:
		return loopPurePair
	}
	return loopPureSkip
}

// SearchLoop names the loop a default vectorized OPS run over kernel k
// takes for pattern p with tables t, and why when it is not the fastest
// one: EXPLAIN prints it. It reads FindAll's own selection.
func SearchLoop(p *pattern.Pattern, t *core.Tables, k *pattern.Kernel) string {
	pure := k != nil && k.CompiledElems() > 0 && k.AllPure()
	switch selectLoop(t, pure) {
	case loopPlain:
		return "plain (no star)"
	case loopPurePair:
		return "pure-mask, pair scan"
	case loopPureSkip:
		switch {
		case t.M < 2:
			return "pure-mask, element-1 skip (m = 1)"
		case t.Star[1]:
			return "pure-mask, element-1 skip (element 1 is a star)"
		case t.Next[2] != 1:
			return fmt.Sprintf("pure-mask, element-1 skip (next(2) = %d)", t.Next[2])
		}
		return fmt.Sprintf("pure-mask, element-1 skip (shift(2) = %d)", t.Shift[2])
	}
	for i := range p.Elems {
		if p.Elems[i].HasCross() {
			return "generic (cross condition on " + p.Elems[i].Name + ")"
		}
	}
	if k == nil || k.CompiledElems() == 0 {
		return "generic (no compiled kernel)"
	}
	for j, s := range k.PureSlots() {
		if s < 0 {
			return "generic (" + p.Elems[j].Name + " not mask-compiled)"
		}
	}
	return "generic"
}

// evalPlain evaluates element j at input i, materializing the implicit
// single-tuple bindings first when the element has cross conditions.
func (o *OPS) evalPlain(j, i int) bool {
	if o.p.Elems[j-1].HasCross() {
		for k := 1; k < j; k++ {
			pos := i - j + k - 1 // 0-based input index of element k
			o.ctx.Bind[k-1] = pattern.Span{Start: pos, End: pos, Set: true}
		}
	}
	return o.eval(j, i)
}

// findAllPlain is the §4.2.1 algorithm extended to report every match
// under the skip policy. Indexes i (input) and j (pattern) are 1-based as
// in the paper.
func (o *OPS) findAllPlain(seq []storage.Row) ([]Match, Stats) {
	from := o.matches.Len()
	nn := len(seq)
	m := o.p.Len()
	clear(o.ctx.Bind) // evalPlain's cross conditions read them
	i, j := 1, 1
	for i <= nn && j <= m {
		if j == 1 && o.fastSkip {
			// A mismatch at element 1 always resolves to shift=1/next=0 —
			// one eval, one rollback, advance one row — so a run of zero
			// bits in element 1's mask collapses to bulk accounting.
			if c := o.nextCandidate(i, nn); c > i {
				o.skipEvals(int64(c - i))
				i = c
				if i > nn {
					break
				}
			}
		}
		if o.evalPlain(j, i) {
			i++
			j++
			if j <= m {
				continue
			}
			// Success: t[i-m .. i-1] (1-based) matches.
			start := i - m
			spans := o.spans.Take(m)
			for k := 0; k < m; k++ {
				spans[k] = pattern.Span{Start: start + k - 1, End: start + k - 1, Set: true}
			}
			from = o.matches.Append(from, Match{Start: start - 1, End: i - 2, Spans: spans})
			o.stats.Matches++
			if o.cfg.Policy == SkipToNextRow {
				i = start + 1
			}
			j = 1
			continue
		}
		// Mismatch at (i, j): apply the shift/next tables.
		o.stats.Rollbacks++
		mustFire(faultOPSShift)
		sh, nx := o.shiftNext(j)
		i = i - j + sh + nx
		j = nx
		if j == 0 {
			i++
			j = 1
		}
	}
	return o.matches.Run(from), o.stats
}

// countSpans builds a match's per-element spans from the §5 counters:
// element k covers tuples count[k-1] .. count[k]-1 of the match, whose
// first tuple is start (1-based). Every element of a reported match has
// consumed at least one tuple, so every span is set.
func (o *OPS) countSpans(count []int, start int) []pattern.Span {
	spans := o.spans.Take(len(count) - 1)
	for k := range spans {
		spans[k] = pattern.Span{Start: start - 1 + count[k], End: start - 2 + count[k+1], Set: true}
	}
	return spans
}

// findAllStar is the §5 star runtime: a per-element cumulative counter
// array count[] tracks how many input tuples each element consumed, and
// mismatch rollback resumes at i - count[j-1] + count[shift+next-1] with
// the counters (and bindings) re-based onto the shifted alignment. It is
// the generic loop: every probe goes through eval, so cross conditions,
// the ablation configs, path tracing and fault injection all run here,
// and findAllStarPure is differenced against it.
func (o *OPS) findAllStar(seq []storage.Row) ([]Match, Stats) {
	from := o.matches.Len()
	nn := len(seq)
	m := o.p.Len()
	star, shift, next := o.tables.Star, o.tables.Shift, o.tables.Next
	toNextRow := o.cfg.Policy == SkipToNextRow
	noCounters, shiftOnly := o.cfg.NoCounters, o.cfg.ShiftOnly
	lastRowSkip := o.cfg.LastRowSkip && !shiftOnly
	fastSkip := o.fastSkip
	count := o.count
	count[0] = 0
	// bind[k] is set only for elements the current attempt has entered
	// (cross conditions read Set), so every exit from an attempt clears
	// exactly the prefix that attempt set. The last search may have ended
	// inside one.
	bind := o.ctx.Bind
	clear(bind)

	i, j, inElem := 1, 1, 0
	for {
		if j > m || (i > nn && j == m && star[m] && inElem > 0) {
			// A match: every element is satisfied, or the input ran out
			// inside a satisfied trailing star. Its spans are the counters.
			start := i - count[m] // 1-based first tuple of the match
			from = o.matches.Append(from, Match{Start: start - 1, End: i - 2, Spans: o.countSpans(count, start)})
			o.stats.Matches++
			if toNextRow {
				i = start + 1
			}
			j, inElem = 1, 0
			clear(bind)
			continue
		}
		if i > nn {
			// Input exhausted short of a match: no later attempt can
			// finish either (greedy element boundaries are monotone in the
			// start position), so the search ends.
			break
		}
		if j == 1 && inElem == 0 && fastSkip {
			// Same collapse as the plain loop: a fresh attempt failing at
			// element 1 restarts one row later (next(1) = 0), costing one
			// eval and one rollback per row, with bindings already clear.
			if c := o.nextCandidate(i, nn); c > i {
				o.skipEvals(int64(c - i))
				i = c
				continue // re-enter the input-exhausted check
			}
		}
		if o.eval(j, i) {
			if inElem == 0 {
				bind[j-1] = pattern.Span{Start: i - 1, End: i - 1, Set: true}
			} else {
				bind[j-1].End = i - 1
			}
			i++
			inElem++
			count[j] = count[j-1] + inElem
			if !star[j] {
				j++
				inElem = 0
			}
			continue
		}
		if star[j] && inElem > 0 {
			// The star ran its course; the same tuple starts the next
			// element (§5 mismatch rule 1; see DESIGN.md on the cursor
			// wording).
			j++
			inElem = 0
			continue
		}
		// §5 mismatch rule 2: roll back via the tables. At this point the
		// current element has consumed nothing, so i sits at the start of
		// element j's would-be span and the attempt has set bind[:j-1].
		o.stats.Rollbacks++
		mustFire(faultOPSShift)
		sh, nx := shift[j], next[j]
		if shiftOnly && nx > 1 {
			nx = 1
		}
		if noCounters || nx == 0 {
			// A fresh attempt. shift(j) = j: φ[j][1] = 0 rules out a start
			// at the failed tuple itself, so it begins one past it; without
			// counters, one past the failed attempt's start.
			if noCounters {
				i -= count[j-1]
			}
			i++
			clear(bind[:j-1])
			j = 1
			continue
		}
		skip := lastRowSkip && o.tables.SkipOK[j]
		i += count[sh+nx-1] - count[j-1]
		base := count[sh]
		for t := 1; t < nx; t++ {
			count[t] = count[sh+t] - base
			bind[t-1] = bind[sh+t-1]
		}
		clear(bind[nx-1 : j-1])
		j = nx
		if skip {
			// The failed tuple (at the rolled-back cursor) certainly
			// satisfies the plain element nx: consume it unexamined. A
			// skip can complete the pattern outright.
			bind[j-1] = pattern.Span{Start: i - 1, End: i - 1, Set: true}
			count[j] = count[j-1] + 1
			i++
			j++
		}
	}
	return o.matches.Run(from), o.stats
}

// findAllStarPure is findAllStar specialised to the case FindAll selects
// it for: every element's selection mask alone answers its probes and
// nothing observes probes one at a time. The mask then already holds
// every verdict, so a probe is an inline bit test, a run of failed starts
// and a star element's run of set bits are one word scan each, and no
// binding is maintained at all — nothing reads one, and a match's spans
// are its counters. Every bulk step books exactly the evals (and, for
// failed starts, the rollbacks) the generic loop spends on its rows, and
// the checkpoint fires once per 1024-eval boundary crossed, so Stats and
// cancellation latency are identical to findAllStar's.
//
// With pair set (selectLoop's gate) a fresh attempt at row r fails in one
// of two ways: X misses r (one eval), or X holds and element 2 misses
// r+1 (two evals), and either way the next attempt starts at r+1. So the
// attempts before the next row where X holds and element 2 holds on the
// row after are failed starts that cost one eval each plus one per X bit,
// and one rollback each: storage.MaskNextPair finds that row. Without
// pair only X's mask is scanned, which is the element-1 skip.
func (o *OPS) findAllStarPure(seq []storage.Row, pair bool) ([]Match, Stats) {
	x, y := o.scanMasks(o.slab, o.words, pair)
	c, xs := storage.MaskNextPair(x, y, 0, len(seq))
	ms, _ := o.searchPure(len(seq), x, y, c, xs, 0)
	return ms, o.stats
}

// scanMasks returns element 1's mask in a slab of masks words long, and
// element 2's with pair set (nil without): what a fresh attempt's scan
// reads.
func (o *OPS) scanMasks(slab []uint64, words int, pair bool) (x, y []uint64) {
	x = slab[int(o.pureSlots[0])*words:][:words]
	if pair {
		y = slab[int(o.pureSlots[1])*words:][:words]
	}
	return x, y
}

// searchPure is findAllStarPure's loop over the current masks, nn rows
// long, entered with the first fresh attempt's scan done: (c, xs) is
// MaskNextPair(x, y, 0, nn), which searchPure books but does not repeat.
// evals is the count the checkpoints run on — the search's own from
// FindAll, the chunk's from FindRun — and is returned advanced by what the
// search spent; o.stats gets the search's counters.
func (o *OPS) searchPure(nn int, x, y []uint64, c, xs int, evals int64) ([]Match, int64) {
	from := o.matches.Len()
	m := o.p.Len()
	star, shift, next := o.tables.Star, o.tables.Shift, o.tables.Next
	toNextRow := o.cfg.Policy == SkipToNextRow
	slab, words, slots := o.slab, o.words, o.pureSlots
	count := o.count
	count[0] = 0
	var rollbacks, scanned int64
	start, matches := evals, 0

	i, j := 1, 1
	for {
		if j > m {
			start := i - count[m]
			from = o.matches.Append(from, Match{Start: start - 1, End: i - 2, Spans: o.countSpans(count, start)})
			matches++
			if toNextRow {
				i = start + 1
			}
			j = 1
			continue
		}
		if i > nn {
			break
		}
		if j == 1 {
			// A fresh attempt: every start before the candidate row c fails.
			// c is 0-based, so c+1 is its 1-based row. Every attempt starts
			// past the one before, so only the first can start at or before
			// the last scan's c: the entry scan's.
			if i-1 > c {
				c, xs = storage.MaskNextPair(x, y, i-1, nn)
			}
			if k := c + 1 - i; k > 0 {
				scanned += int64(k)
				rollbacks += int64(k)
				evals = o.addEvals(evals, int64(k+xs))
				i = c + 1
			}
		}
		mk := int(slots[j-1]) * words // where element j's mask begins
		evals = o.addEvals(evals, 1)
		if r := uint(i - 1); slab[mk+int(r>>6)]>>(r&63)&1 != 0 {
			if !star[j] {
				count[j] = count[j-1] + 1
				i++
				j++
				continue
			}
			// Consume the star's whole run of set bits. The clear bit that
			// ends it, unless the input does, is its failing probe, and the
			// next element starts on that row: one step either way.
			end := storage.MaskNextClear(slab[mk:mk+words], i, nn) // 0-based, so i is the next row
			k := end - i
			if end < nn {
				k++
			}
			evals = o.addEvals(evals, int64(k))
			count[j] = count[j-1] + end - i + 1
			i = end + 1
			j++
			continue
		}
		rollbacks++
		mustFire(faultOPSShift)
		nx := next[j]
		if nx == 0 {
			i++
			j = 1
			continue
		}
		sh := shift[j]
		i += count[sh+nx-1] - count[j-1]
		base := count[sh]
		for t := 1; t < nx; t++ {
			count[t] = count[sh+t] - base
		}
		j = nx
	}
	if y != nil {
		o.pairRows += scanned
	}
	o.stats = Stats{PredEvals: evals - start, Rollbacks: rollbacks, Matches: matches}
	return o.matches.Run(from), evals
}

// FindRun implements Executor. Wherever FindAll would run findAllStarPure
// — the same selectLoop gate, with bulk probing allowed for the whole run
// — it runs the pure loop across the chunk, on one eval count, so the
// checkpoint runs once per 1024 evals of the chunk; otherwise, and for the
// ablation configs, the generic run loop. The pure loop calls neither the
// sink's Enter nor a checkpoint per cluster, and ticks the flight at the
// end of the cluster a checkpoint fell in and at the end of the chunk.
//
// Per cluster it runs the first fresh attempt's scan, inline when the
// cluster's masks are one word. When the scan
// reaches the last row, no attempt gets past element 2 (with the pair
// scan) or past element 1 (without), so with m ≥ 2 nothing matches, and
// the cluster's counters follow from the scan alone: searchPure would book
// n-1 failed starts (n-1+xs evals, n-1 rollbacks) and probe X on the last
// row — one eval, and one more rollback when X fails there. Otherwise
// searchPure is entered at the candidate row with the scan's result.
func (o *OPS) FindRun(r *Run) error {
	l := selectLoop(o.tables, o.bulkRun(r) && o.cfg == OPSConfig{Policy: o.cfg.Policy})
	if l < loopPureSkip {
		return o.runEach(o, r)
	}
	o.ranPure = true
	pair, closed := l == loopPurePair, o.p.Len() >= 2
	sx, sy := int(o.pureSlots[0]), 0 // X's and Y's slots
	if pair {
		sy = int(o.pureSlots[1])
	}
	w := newLogWriter(r.Log)
	var p progress
	defer p.tick(r.Sink)
	var total Stats
	var evals, ticked, closedRun, closedPairRows int64
	for i, seq := range r.Seqs {
		n := len(seq)
		slab, words := r.Masks[i].Words()
		var c, xs int
		if words == 1 {
			// The common short cluster: the scan of one word, inline.
			yw := ^uint64(0)
			if pair {
				yw = slab[sy]
			}
			c, xs = storage.MaskPairWord(slab[sx], yw, n)
		} else {
			x, y := o.scanMasks(slab, words, pair)
			c, xs = storage.MaskNextPair(x, y, 0, n)
		}
		var st Stats
		if closed && c == n-1 && n > 0 {
			evals = o.addEvals(evals, int64(n+xs))
			st = Stats{PredEvals: int64(n + xs), Rollbacks: int64(n - 1)}
			if slab[sx*words+c>>6]>>(c&63)&1 == 0 {
				st.Rollbacks++
			}
			closedPairRows += int64(n - 1)
			closedRun++
		} else {
			x, y := o.scanMasks(slab, words, pair)
			o.slab, o.words = slab, words
			var ms []Match
			ms, evals = o.searchPure(n, x, y, c, xs, evals)
			st = o.stats
			if len(ms) > 0 {
				if err := r.Sink.Found(i, ms, st); err != nil {
					return err
				}
			}
		}
		total.Add(st)
		w.put(n, st)
		if p.add(n, st); evals>>10 != ticked>>10 {
			p.tick(r.Sink)
			ticked = evals
		}
	}
	if pair {
		o.pairRows += closedPairRows
	}
	r.Stats, r.Entries = total, w.run()
	closedClusters.Add(closedRun)
	return nil
}
