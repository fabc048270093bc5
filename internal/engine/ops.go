package engine

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"sqlts/internal/core"
	"sqlts/internal/fault"
	"sqlts/internal/pattern"
	"sqlts/internal/storage"
)

// OPSConfig configures an OPS executor.
type OPSConfig struct {
	Policy SkipPolicy
	// Variant selects the §5 runtime or one of the reproduction's
	// ablations of it (the experiments' instruments, not the serving
	// path's); the zero value is the paper's OPS.
	Variant Variant
}

// Variant is an OPS executor's rollback rule: the paper's, or one
// ablation of it.
type Variant uint8

// Variants. Default is the paper's OPS. ShiftOnly disables the next()
// table (every resumption re-checks from pattern element 1) while keeping
// shift(): it measures how much of the win comes from not re-checking
// known-true prefixes. NoCounters disables the §5 count[] rollback for
// star patterns and restarts naively one past the failed attempt's start;
// a star-free pattern's tables are §4.2's, which it leaves in force.
// LastRowSkip is the reproduction's extension to the star runtime: when
// the compile-time walk proves the failed tuple satisfies the plain
// element it rolls back to (core.Tables.SkipOK), it consumes it without
// re-testing — the star analogue of the plain pattern's next = j-shift+1
// case, which star-free tables encode already.
const (
	Default Variant = iota
	ShiftOnly
	NoCounters
	LastRowSkip
)

// String names the variant as the executor's Name does.
func (v Variant) String() string {
	switch v {
	case ShiftOnly:
		return "ops-shift-only"
	case NoCounters:
		return "ops-no-counters"
	case LastRowSkip:
		return "ops+skip"
	default:
		return "ops"
	}
}

// step is §5 mismatch rule 2 for element j under one executor
// configuration: what a search does when element j fails having consumed
// nothing. §5 makes it a function of j alone; only the count[] re-basing
// depends on the run (rollback).
type step struct {
	from, resume int  // shift(j); the element to resume at, 0 for a fresh attempt
	back         bool // a fresh attempt starts one past the failed attempt's start (no counters)
	consume      bool // the failed tuple is taken as element resume, unexamined
}

// newSteps derives each element's step from t under variant v: the
// ShiftOnly clamp before the rule on core.Tables.Next (this is the one
// place it is applied), and NoCounters on star patterns only.
func newSteps(t *core.Tables, v Variant) []step {
	steps := make([]step, t.M+1)
	for j := 1; j <= t.M; j++ {
		sh, nx := t.Shift[j], t.Next[j]
		if v == ShiftOnly {
			nx = min(nx, 1)
		}
		s := step{from: sh, resume: nx}
		switch {
		case v == NoCounters && t.HasStar:
			s.resume, s.back = 0, true
		case nx == j-sh+1:
			s.resume, s.consume = j-sh, true
		case nx > 0:
			s.consume = v == LastRowSkip && t.SkipOK != nil && t.SkipOK[j]
		}
		steps[j] = s
	}
	return steps
}

// rollback takes step s after a mismatch at element j with the cursor at
// row i, re-basing count[] onto the alignment shifted by s.from, and
// returns the row and element the search resumes at. A fresh attempt
// begins one past row i: for a back step the caller first moves i back to
// the failed attempt's start. A consume step books the failed tuple as
// element j's, which the shift carries over as element s.resume.
func (s step) rollback(count []int, i, j int) (int, int) {
	n := s.resume
	if n == 0 {
		return i + 1, 1
	}
	if s.consume {
		count[j] = count[j-1] + 1
		n++
	}
	i += count[s.from+n-1] - count[j-1]
	base := count[s.from]
	for t := range n {
		count[t] = count[s.from+t] - base
	}
	return i, n
}

// OPS is the optimized executor driven by the compile-time shift/next
// tables: the paper's Optimized Pattern Search algorithm. Its loops are
// §5's for every pattern: on a star-free one count[k] = k, and §4.2's
// tables are read through the rule on core.Tables.Next.
type OPS struct {
	evaluator
	tables *core.Tables
	cfg    OPSConfig
	// pair is set when element 2 cannot fail an attempt in any other way
	// than one that resumes at element 1 on the next row: element 1 is
	// plain, and element 2's step resumes at element 1 on the failed row,
	// testing it. The pure loop then runs the pair scan.
	pair bool
	// ranPure records whether the last FindAll or FindRun took the pure
	// loop, and pairRows how many rows its pair scans have resolved in all,
	// for the package's differential tests. pair and ranPure share cfg's
	// word.
	ranPure  bool
	steps    []step
	count    []int
	pairRows int64
	// booked is FindRun's booking of a span the run carries none for.
	booked Booking
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
	steps := newSteps(tables, cfg.Variant)
	return &OPS{
		evaluator: newEvaluator(p),
		tables:    tables,
		cfg:       cfg,
		steps:     steps,
		pair:      pairScan(tables, steps),
		// count is written at every rollback. Its capacity fills whole
		// cache lines, so that an executor kept from run to run, which runs
		// on whichever core its next run does, shares no line with what
		// another core is writing.
		count: make([]int, p.Len()+1, (p.Len()+8)&^7),
	}
}

// Name implements Executor.
func (o *OPS) Name() string { return o.cfg.Variant.String() }

// Trace enables path recording (Figure 5); call before FindAll.
func (o *OPS) Trace() { o.doTrc = true }

// Path returns the recorded search path.
func (o *OPS) Path() []PathPoint { return o.trace }

// FindAll implements Executor.
func (o *OPS) FindAll(seq []storage.Row) ([]Match, Stats) {
	o.trace = o.trace[:0]
	o.reset(seq)
	o.stats = Stats{}
	o.ranPure = o.allPure
	if o.allPure {
		return o.findAllStarPure(seq)
	}
	from, m := o.matches.Len(), o.p.Len()
	star, count := o.tables.Star, o.count
	count[0] = 0
	clear(o.bindings()) // the last search may have ended inside an attempt
	c := cursor{i: 1, j: 1}
	for o.advance(&c, o.steps, star, count, len(seq), 0, 0) || c.ended(star) {
		from = o.matches.Append(from, o.take(&c, count, o.spans.Take(m), o.cfg.Policy))
	}
	return o.matches.Run(from), o.stats
}

// SearchLoop names the loop a run of the default OPS executor over kernel
// k's masks takes for pattern p with tables t, and why when it is not the
// fastest one: EXPLAIN and EXPLAIN ANALYZE print it. It reads FindAll's
// own selection.
func SearchLoop(p *pattern.Pattern, t *core.Tables, k *pattern.Kernel) string {
	o := NewOPS(p, t, OPSConfig{})
	switch {
	case k == nil || k.CompiledElems() == 0 || !k.AllPure(): // generic: why, below
	case o.pair:
		return "pure-mask, pair scan"
	case t.M < 2:
		return "pure-mask, element-1 skip (m = 1)"
	case t.Star[1]:
		return "pure-mask, element-1 skip (element 1 is a star)"
	case t.Next[2] != 1:
		return fmt.Sprintf("pure-mask, element-1 skip (next(2) = %d)", t.Next[2])
	default: // element 2's step resumes at element 1, consuming the failed row
		return "pure-mask, element-1 skip (element 2's failed tuple is consumed)"
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

// NaiveSearchLoop names the loop a naive run over kernel k's masks
// takes, as SearchLoop does for OPS: it resolves runs of failed starts
// from element 1's mask when that mask alone decides them, and otherwise
// tries every start.
func NaiveSearchLoop(k *pattern.Kernel) string {
	if k != nil && k.PureSlots()[0] >= 0 {
		return "naive, element-1 skip"
	}
	return "naive, every start"
}

// cursor is where a §5 search stands: i is the 1-based input cursor and j
// the 1-based pattern cursor, per the paper's presentation, and inElem
// counts the tuples the current element has taken. With count[] and the
// bindings it is the machine's whole state, so a search that has run out
// of rows is parked in it, not finished.
type cursor struct {
	i         int
	j, inElem int32
}

// ended is the end-of-input rule: whether a search parked at c completes
// a match once its input has ended, which it does inside a satisfied
// trailing star.
func (c *cursor) ended(star []bool) bool {
	m := len(star) - 1
	return int(c.j) == m && star[m] && c.inElem > 0
}

// advance is the §5 row loop, batch's and every stream's: count[] tracks
// how many tuples each element consumed, and a mismatch rolls back by the
// failed element's step (step.rollback), re-basing the counters and
// bindings onto the shifted alignment. It runs cursor c over rows up to n
// and returns true at a completed match (take records it), or false parked
// once it runs out of rows. Batch calls it over a cluster, a stream on
// every push; the end of input is the caller's (cursor.ended).
//
// The evaluator's sequence starts at row off+1 (0 in batch, the window's
// offset in a stream); probes and bindings are relative to it. The rest
// are inputs: fastSkip runs the element-1 skip, a step's back flag the
// NoCounters restart, and limit > 0 abandons an attempt that has taken
// limit rows (a stream's MaxBuffer). Every probe goes through eval, so
// cross conditions, path tracing and fault injection run here, and the
// pure loop is differenced against it. The cursor is parked wherever the
// search can stop — on return, before a checkpoint, at the shift fault
// point — so an interrupted search resumes with each probe and rollback
// counted once.
func (e *evaluator) advance(c *cursor, steps []step, star []bool, count []int, n, off, limit int) bool {
	m := len(star) - 1
	// bind[k] is set only for elements the current attempt has entered
	// (cross conditions read Set), so every exit from an attempt clears
	// exactly the prefix that attempt set.
	bind := e.ctx.Bind
	i, j, inElem := c.i, int(c.j), int(c.inElem)
	for {
		if j > m { // a match: every element is satisfied
			*c = cursor{i, int32(j), int32(inElem)}
			return true
		}
		if i > n {
			// Out of rows: park for more. At the end of input no later
			// attempt can finish either (greedy element boundaries are
			// monotone in the start position), so only cursor.ended's rule
			// completes a match there.
			*c = cursor{i, int32(j), int32(inElem)}
			return false
		}
		if j == 1 && inElem == 0 && e.fastSkip {
			// A fresh attempt failing at element 1 restarts one row later
			// (next(1) = 0), costing one eval and one rollback per row, with
			// bindings already clear: a run of zero bits in element 1's mask
			// collapses to bulk accounting.
			if k := e.nextCandidate(i-off, n-off) + off; k > i {
				e.skipEvals(int64(k - i))
				i = k
				continue // re-enter the input-exhausted check
			}
		}
		if limit > 0 && count[j-1]+inElem >= limit {
			// Safety valve: the attempt spans limit tuples; abandon it.
			clear(bind[:j])
			i++
			j, inElem = 1, 0
			continue
		}
		if e.nearCheckpoint() {
			*c = cursor{i, int32(j), int32(inElem)}
		}
		if e.eval(j, i-off) {
			slot := i - 1 - off
			if inElem == 0 {
				bind[j-1] = pattern.Span{Start: slot, End: slot, Set: true}
			} else {
				bind[j-1].End = slot
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
		// §5 mismatch rule 2: roll back by element j's step. At this point
		// the current element has consumed nothing, so i sits at the start
		// of element j's would-be span and the attempt has set bind[:j-1].
		e.stats.Rollbacks++
		s := steps[j]
		keep := max(s.resume-1, 0) // bindings the shifted alignment carries over
		copy(bind[:keep], bind[s.from:])
		clear(bind[keep : j-1])
		if s.back {
			i -= count[j-1]
		}
		if i, j = s.rollback(count, i, j); s.consume {
			// The failed tuple, row i-1, was taken as element j-1: that
			// can complete the pattern outright.
			slot := i - 2 - off
			bind[j-2] = pattern.Span{Start: slot, End: slot, Set: true}
		}
		if fault.Active() {
			*c = cursor{i, int32(j), 0}
			mustFireSlow(faultOPSShift)
		}
	}
}

// take records the match cursor c has completed and moves c to the next
// attempt by the skip policy (§5's restart rule): past the match's last
// row, or one past its first with SkipToNextRow. The match's spans are
// written into spans from the counters: element k covers tuples
// count[k-1] .. count[k]-1 of the match. Every element of a completed
// match has consumed at least one tuple, so every span is set.
func (e *evaluator) take(c *cursor, count []int, spans []pattern.Span, policy SkipPolicy) Match {
	i := c.i
	start := i - count[len(count)-1] // 1-based first tuple of the match
	for k := range spans {
		spans[k] = pattern.Span{Start: start - 1 + count[k], End: start - 2 + count[k+1], Set: true}
	}
	e.stats.Matches++
	if policy == SkipToNextRow {
		c.i = start + 1
	}
	c.j, c.inElem = 1, 0
	clear(e.ctx.Bind)
	return Match{Start: start - 1, End: i - 2, Spans: spans}
}

// findAllStarPure is the row loop (advance) specialised to the case
// FindAll selects it for: every element's selection mask alone answers
// its probes and nothing observes probes one at a time. The mask then
// already holds every verdict, so a probe is an inline bit test, a run of
// failed starts and a star element's run of set bits are one word scan
// each, and no binding is maintained at all — nothing reads one, and a
// match's spans are its counters. Every bulk step books exactly the evals (and, for
// failed starts, the rollbacks) the row loop spends on its rows, and
// the checkpoint fires once per 1024-eval boundary crossed, so Stats and
// cancellation latency are identical to the row loop's.
//
// With the pair scan (OPS.pair) a fresh attempt at row r fails in one
// of two ways: X misses r (one eval), or X holds and element 2 misses
// r+1 (two evals), and either way the next attempt starts at r+1. So the
// attempts before the next row where X holds and element 2 holds on the
// row after are failed starts that cost one eval each plus one per X bit,
// and one rollback each: storage.MaskNextPair finds that row. Without
// pair only X's mask is scanned, which is the element-1 skip.
func (o *OPS) findAllStarPure(seq []storage.Row) ([]Match, Stats) {
	sc := o.scan()
	c, xs := sc.first(o.slab, o.words, len(seq))
	x, y := sc.masks(o.slab, o.words)
	ms, _ := o.searchPure(len(seq), x, y, c, xs, 0)
	return ms, o.stats
}

// pairScan reports whether an OPS executor whose steps are steps runs the
// pair scan (OPS.pair): element 1 is plain, and element 2's step resumes
// at element 1 on the failed row, testing it.
func pairScan(t *core.Tables, steps []step) bool {
	return t.M >= 2 && !t.Star[1] && steps[2] == step{from: 1, resume: 1}
}

// Scan is the pure loop's first fresh-attempt scan of a cluster under one
// OPS configuration: the pair scan over element 1's and element 2's masks,
// or element 1's alone, at the mask slots of one kernel. With m ≥ 2 a
// cluster whose scan reaches its last row is closed: it matches nothing,
// and its counters follow from the scan alone (Book). The zero Scan books
// nothing.
type Scan struct {
	x, y   int32 // element 1's mask slot, and with pair element 2's
	pair   bool
	closed bool // m ≥ 2
	ok     bool // the kernel's masks answer every probe
}

// NewScan returns the scan of the default OPS executor of a pattern with
// tables t over kernel k's masks: the one a partition memo books its
// blocks under. It is the zero Scan when the pure loop never runs over k's
// masks.
func NewScan(k *pattern.Kernel, t *core.Tables) Scan {
	if k == nil || k.CompiledElems() == 0 || !k.AllPure() {
		return Scan{}
	}
	return scanOf(k.PureSlots(), pairScan(t, newSteps(t, Default)), t.M)
}

func scanOf(slots []int32, pair bool, m int) Scan {
	s := Scan{x: slots[0], pair: pair, closed: m >= 2, ok: true}
	if pair {
		s.y = slots[1]
	}
	return s
}

// scan returns the executor's own scan over its kernel's masks.
func (o *OPS) scan() Scan { return scanOf(o.pureSlots, o.pair, o.tables.M) }

// masks returns element 1's mask in a slab of masks words long, and
// element 2's with the pair scan (nil without): what a fresh attempt's
// scan reads.
func (s Scan) masks(slab []uint64, words int) (x, y []uint64) {
	x = slab[int(s.x)*words:][:words]
	if s.pair {
		y = slab[int(s.y)*words:][:words]
	}
	return x, y
}

// first runs the first fresh attempt's scan over an n-row cluster whose
// masks are slab, words per mask, inline when they are one word: the
// candidate row c, 0-based, and xs, the X bits before it (see
// storage.MaskNextPair).
func (s Scan) first(slab []uint64, words, n int) (c, xs int) {
	if words == 1 {
		// The common short cluster: the scan of one word.
		yw := ^uint64(0)
		if s.pair {
			yw = slab[s.y]
		}
		return storage.MaskPairWord(slab[s.x], yw, n)
	}
	x, y := s.masks(slab, words)
	return storage.MaskNextPair(x, y, 0, n)
}

// Booking is what the pure loop spends on a span of one block's clusters
// outside searchPure, booked once by Book: the closed clusters' summed
// counters, every cluster's rows, and which clusters hold a candidate. A
// partition memo books each block of its masks when it builds the block
// (storage.Blocks' summary), so a warm run takes a block's closed
// clusters as one sum and searches only the open ones.
type Booking struct {
	// open has bit k set when the span's k-th cluster has rows and is not
	// closed: searchPure must search it.
	open uint64
	// The closed clusters' counters and pair-scanned rows (with the pair
	// scan), and every cluster's rows, for the flight's progress.
	evals, rollbacks, pairRows, rows int64
	// closed is how many clusters are closed.
	closed int32
	// scan is what the booking was made under; the zero Scan for none.
	scan Scan
}

// Book books the clusters whose masks are sets, a span of at most one
// block's, under s. This is the closed form, the one place it is written:
// when the scan of a cluster of n rows reaches its last row, no attempt
// gets past element 2 (with the pair scan) or past element 1 (without),
// so with m ≥ 2 nothing matches, and searchPure would book n-1 failed
// starts (n-1+xs evals, n-1 rollbacks) and probe X on the last row — one
// eval, and one more rollback when X fails there. Every other cluster
// with rows is open.
func (s Scan) Book(sets []*pattern.MaskSet) Booking {
	if !s.ok {
		return Booking{}
	}
	b := Booking{scan: s}
	for k, ms := range sets {
		n := ms.Rows()
		b.rows += int64(n)
		if n == 0 {
			continue
		}
		slab, words := ms.Words()
		c, xs := s.first(slab, words, n)
		if !s.closed || c != n-1 {
			b.open |= 1 << k
			continue
		}
		b.closed++
		b.evals += int64(n + xs)
		b.rollbacks += int64(n - 1)
		if slab[int(s.x)*words+c>>6]>>(c&63)&1 == 0 {
			b.rollbacks++
		}
		if s.pair {
			b.pairRows += int64(n - 1)
		}
	}
	return b
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
	star, steps := o.tables.Star, o.steps
	slab, words, slots := o.slab, o.words, o.pureSlots
	count := o.count
	count[0] = 0
	var rollbacks, scanned int64
	start := evals
	o.stats.Matches = 0

	i, j := 1, 1
	for {
		if j > m {
			at := cursor{i: i, j: int32(j)}
			from = o.matches.Append(from, o.take(&at, count, o.spans.Take(m), o.cfg.Policy))
			i, j = at.i, 1
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
		s := steps[j]
		if s.back {
			i -= count[j-1]
		}
		i, j = s.rollback(count, i, j)
	}
	if y != nil {
		o.pairRows += scanned
	}
	o.stats = Stats{PredEvals: evals - start, Rollbacks: rollbacks, Matches: o.stats.Matches}
	return o.matches.Run(from), evals
}

// FindRun implements Executor. Wherever FindAll would run findAllStarPure
// — with bulk probing allowed for the whole run — it runs the pure loop
// across the chunk, block by block, on one eval count, so the checkpoint
// runs once per 1024 evals of the chunk; otherwise the generic run loop.
// The pure loop calls neither the sink's Enter nor a checkpoint per
// cluster.
//
// Per block it takes the block's Booking: the run's own, when the run
// covers the whole block and the masks carry one made under this
// executor's scan (a partition memo's), otherwise one booked now into
// scratch. The closed clusters' evals go onto the count as one sum — the
// checkpoints they cross fire there, before any cluster of the block is
// searched — and only the open clusters are scanned again and searched.
// Stats and the flight's progress are summed per block, and the flight is
// ticked at the end of every block a checkpoint fell in and at the end of
// the chunk.
func (o *OPS) FindRun(r *Run) error {
	if !o.bulkRun(r) {
		return o.runEach(o, r)
	}
	o.scratch()
	o.ranPure = true
	sc := o.scan()
	var p progress
	defer p.tick(r.Sink)
	var evals, rollbacks, closed, ticked int64
	matches := 0
	for lo := r.Lo; lo < r.Hi; {
		masks := r.Masks.Span(lo, r.Hi)
		bk := r.Masks.Sum(lo)
		if bk.scan != sc || lo%storage.BlockLen != 0 || lo+len(masks) != min(lo+storage.BlockLen, r.Masks.Len()) {
			o.booked = sc.Book(masks)
			bk = &o.booked
		}
		evals = o.addEvals(evals, bk.evals)
		found := matches
		for open := bk.open; open != 0; open &= open - 1 {
			k := bits.TrailingZeros64(open)
			n := masks[k].Rows()
			o.slab, o.words = masks[k].Words()
			c, xs := sc.first(o.slab, o.words, n)
			x, y := sc.masks(o.slab, o.words)
			var ms []Match
			ms, evals = o.searchPure(n, x, y, c, xs, evals)
			rollbacks += o.stats.Rollbacks
			matches += o.stats.Matches
			if len(ms) > 0 {
				err := r.Sink.Found(lo+k, ms, o.stats)
				o.rewind()
				if err != nil {
					return err
				}
			}
		}
		rollbacks += bk.rollbacks
		o.pairRows += bk.pairRows
		closed += int64(bk.closed)
		p.clusters += int64(len(masks))
		p.rows += bk.rows
		p.matches += int64(matches - found)
		if evals>>10 != ticked>>10 {
			p.tick(r.Sink)
			ticked = evals
		}
		lo += len(masks)
	}
	r.Stats = Stats{PredEvals: evals, Rollbacks: rollbacks, Matches: matches}
	closedClusters.Add(closed)
	return nil
}
