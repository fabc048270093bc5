// Package engine implements the runtime side of SQL-TS pattern search:
// the naive baseline executor, the OPS executor driven by the compile-time
// shift/next tables of the core package (one §5 runtime for star and
// star-free patterns alike), and
// the classic Knuth–Morris–Pratt text matcher the paper generalizes.
//
// All executors implement identical match semantics (greedy one-or-more
// stars, left-maximality via the skip policy) and count the metric the
// paper's experiments report: the number of times an input element is
// tested against a pattern element.
package engine

import (
	"fmt"

	"sqlts/internal/fault"
	"sqlts/internal/pattern"
	"sqlts/internal/storage"
)

// Interrupt unwinds an executor's inner loops when a cooperative
// cancellation checkpoint reports an error (context canceled, deadline
// exceeded, injected fault). It is panicked from deep inside FindAll
// and recovered at the executor boundary in the serving layer, which
// converts it back into its error; the distinct type keeps genuine
// predicate panics separable from deliberate unwinds.
type Interrupt struct{ Err error }

// checkpointMask amortizes cancellation checks: the evaluator consults
// its interrupt function (and the engine.eval fault point) once every
// 1024 predicate evaluations, so the warm-path tax is one predictable
// branch per eval plus a rare function call.
const checkpointMask = 1<<10 - 1

// CheckpointInterval is the predicate-evaluation cadence of the
// cooperative checkpoint: SetInterrupt callbacks run once per this many
// evals. Exported so the serving layer can account live progress in
// checkpoint-sized increments.
const CheckpointInterval = checkpointMask + 1

// Fault-injection sites on the engine's hot paths. Disarmed they cost
// one atomic load, paid only at amortized checkpoints (eval) or on the
// mismatch path (shift), never per row.
var (
	faultEval       = fault.New("engine.eval")
	faultOPSShift   = fault.New("engine.ops.shift")
	faultStreamPush = fault.New("engine.stream.push")
)

// mustFire fires a fault point and unwinds with an Interrupt when it
// injects an error. The armed-gate split keeps mustFire inlinable, so
// disarmed call sites (every OPS rollback goes through one) pay a
// single atomic load, not a function call.
func mustFire(p *fault.Point) {
	if fault.Active() {
		mustFireSlow(p)
	}
}

func mustFireSlow(p *fault.Point) {
	if err := p.Fire(); err != nil {
		panic(Interrupt{Err: err})
	}
}

// Span aliases pattern.Span for convenience in the engine's public API.
type Span = pattern.Span

// Match is one pattern occurrence: 0-based inclusive input indexes plus
// the per-element spans (0-based as well).
type Match struct {
	Start, End int
	Spans      []pattern.Span
}

// Stats aggregates runtime counters for one search.
type Stats struct {
	// PredEvals counts predicate evaluations — the paper's performance
	// metric ("the number of times that an element of input is tested
	// against a pattern element").
	PredEvals int64
	// Rollbacks counts mismatch-handling events (shift/next applications
	// for OPS, restart advances for naive).
	Rollbacks int64
	// Matches counts reported occurrences.
	Matches int
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.PredEvals += other.PredEvals
	s.Rollbacks += other.Rollbacks
	s.Matches += other.Matches
}

// Sub returns s - other, the counter deltas between two runs. It is how
// EXPLAIN ANALYZE computes the naive-vs-OPS comparison; deltas may be
// negative when other out-counts s.
func (s Stats) Sub(other Stats) Stats {
	return Stats{
		PredEvals: s.PredEvals - other.PredEvals,
		Rollbacks: s.Rollbacks - other.Rollbacks,
		Matches:   s.Matches - other.Matches,
	}
}

// IsZero reports whether no counters have accumulated (the zero value —
// e.g. the stats of a query that never executed).
func (s Stats) IsZero() bool {
	return s.PredEvals == 0 && s.Rollbacks == 0 && s.Matches == 0
}

// String renders the counters in a stable one-line form.
func (s Stats) String() string {
	return fmt.Sprintf("PredEvals=%d Rollbacks=%d Matches=%d", s.PredEvals, s.Rollbacks, s.Matches)
}

// SkipPolicy controls where the search resumes after a match.
type SkipPolicy uint8

// Skip policies. SkipPastLastRow implements the paper's left-maximality
// (overlapping occurrences are suppressed in favour of the earliest one);
// SkipToNextRow reports every occurrence start.
const (
	SkipPastLastRow SkipPolicy = iota
	SkipToNextRow
)

// String names the policy.
func (p SkipPolicy) String() string {
	if p == SkipToNextRow {
		return "skip-to-next-row"
	}
	return "skip-past-last-row"
}

// PathPoint is one step of the search path: the 1-based input cursor and
// pattern cursor at the time of a predicate evaluation (the paper's
// Figure 5 plots these curves for naive vs OPS).
type PathPoint struct {
	I, J int
}

// Executor searches a sequence for all pattern occurrences.
type Executor interface {
	// FindAll returns all matches in seq under the executor's policy,
	// along with the search statistics. The matches stay valid after later
	// searches on the same executor. With an interrupt installed
	// (SetInterrupt), FindAll panics an Interrupt when a checkpoint
	// reports an error — callers that install one must recover it.
	FindAll(seq []storage.Row) ([]Match, Stats)
	// FindRun searches a chunk of clusters in order, as FindAll would one
	// at a time, summing their counters and handing their matches to the
	// run's sink (see Run), which must not keep them: the executor's blocks
	// are scratch that the next cluster overwrites, so what it holds is
	// bounded by one cluster's matches. An error from the sink stops it, and
	// an installed interrupt unwinds it the way it unwinds FindAll.
	FindRun(r *Run) error
	// UseProjection supplies a prebuilt columnar projection of the next
	// FindAll sequence (see evaluator.UseProjection); a no-op when no
	// kernel is attached.
	UseProjection(*storage.Projection)
	// SetVectorized enables mask-based probing: searches build (or adopt
	// via UseMasks) per-element selection bitmasks and answer probes with
	// bit tests. Results and statistics are identical either way.
	SetVectorized(on bool)
	// UseMasks supplies prebuilt selection bitmasks for the next FindAll
	// sequence (see evaluator.UseMasks); ignored unless SetVectorized.
	UseMasks(*pattern.MaskSet)
	// SetInterrupt installs a cooperative cancellation checkpoint,
	// consulted once every 1024 predicate evaluations (nil disables).
	SetInterrupt(check func() error)
	// Recycle readies the executor for another run once nothing references
	// a match FindAll reported: its blocks are emptied for later searches to
	// overwrite, and it lets go of the sequence, masks and interrupt it last
	// searched with.
	Recycle()
	// Name identifies the executor in benchmark output.
	Name() string
}

// evaluator wraps shared evaluation machinery: predicate dispatch,
// statistics, optional path tracing, and cross-condition binding setup.
// When a kernel is attached (UseKernel), probes read its compiled
// conditions — row by row, or as selection bitmasks; otherwise they
// interpret the pattern directly. All paths produce identical matches and
// identical Stats.
type evaluator struct {
	p    *pattern.Pattern
	kern *pattern.Kernel
	// proj is the projection row probes read from: either ownProj (built by
	// reset) or a caller-supplied shared projection (UseProjection); nil
	// when supplied masks answer the probes.
	proj     *storage.Projection
	ownProj  *storage.Projection
	nextProj *storage.Projection
	// Vectorized probing (SetVectorized): masks holds the per-element
	// selection bitmasks of the current sequence — either ownMasks (built
	// by reset) or a caller-supplied shared set (UseMasks).
	masks     *pattern.MaskSet
	ownMasks  *pattern.MaskSet
	nextMasks *pattern.MaskSet
	// pureSlots is the kernel's static table: element j's slot in a mask
	// set's slab when a bit test alone answers the probe (compiled, no
	// cross conditions), -1 when the probe goes through the kernel's masked
	// dispatch. slab and words are the current masks' (MaskSet.Words): slot
	// s is slab[s*words:(s+1)*words].
	pureSlots []int32
	slab      []uint64
	words     int
	// matches and spans are what FindAll reports into: blocks that are
	// not overwritten until Recycle (see Block; one search's matches are
	// one run), so a Match stays valid after later searches and a run of
	// searches allocates per block, not per match. FindRun uses them as
	// scratch, rewound after every cluster.
	matches Block[Match]
	spans   Block[pattern.Span]
	// The flags sit together so that they share one word, beside the
	// counters every probe touches. vec is SetVectorized's switch and doTrc
	// path tracing's. fastSkip is set when element 1's mask alone decides
	// failed starts, letting the search loops skip runs of zero bits in
	// bulk (see skipEvals); allPure extends that condition to every
	// element: each one's mask alone decides its probes, so OPS may run its
	// pure-mask star loop (findAllStarPure).
	vec, doTrc, fastSkip, allPure bool
	stats                         Stats
	trace                         []PathPoint
	ctx                           pattern.EvalContext
	// check is the cooperative cancellation checkpoint, consulted every
	// checkpointMask+1 predicate evaluations; nil when no cancellation
	// is configured (the default, so uncancellable runs pay only the
	// cadence branch).
	check func() error
}

func newEvaluator(p *pattern.Pattern) evaluator { return evaluator{p: p} }

// bindings returns the search's bindings, made by the first search that
// keeps any: an OPS executor that only takes the pure loop never makes
// them.
func (e *evaluator) bindings() []pattern.Span {
	if e.ctx.Bind == nil {
		e.ctx.Bind = make([]pattern.Span, e.p.Len())
	}
	return e.ctx.Bind
}

// UseKernel attaches a compiled predicate kernel: subsequent searches
// decode each sequence into a columnar projection once and evaluate
// compiled elements from the kernel's conditions. A nil kernel (or one
// with no compiled elements) leaves the interpreter in place.
func (e *evaluator) UseKernel(k *pattern.Kernel) {
	if k == nil || k.CompiledElems() == 0 {
		e.kern, e.proj, e.ownProj = nil, nil, nil
		e.masks, e.ownMasks, e.nextMasks = nil, nil, nil
		return
	}
	e.kern, e.pureSlots = k, k.PureSlots()
}

// SetVectorized enables mask-based probing for subsequent searches: each
// sequence's per-element selection bitmasks are built once (or adopted
// from UseMasks) and probes of vectorized elements become bit tests.
// Matches and Stats are identical to row-at-a-time evaluation — the
// paper's pred-eval metric counts probes, not how they are answered. A
// no-op without a kernel attached.
func (e *evaluator) SetVectorized(on bool) { e.vec = on }

// UseMasks supplies prebuilt selection bitmasks covering the next
// FindAll sequence, sparing the per-search mask build the way
// UseProjection spares the columnar decode. The masks must have been
// built by this evaluator's kernel over exactly that sequence and may be
// shared read-only between executors. One-shot, like UseProjection.
func (e *evaluator) UseMasks(ms *pattern.MaskSet) { e.nextMasks = ms }

// UseProjection supplies a prebuilt columnar projection of the next
// sequence passed to FindAll, letting callers that cache partitions skip
// the per-search re-projection. The projection must cover exactly that
// sequence (same rows, same order) and may be shared between executors —
// searches only read it. It applies to one FindAll; call again before
// each search that should reuse a cached projection.
func (e *evaluator) UseProjection(proj *storage.Projection) {
	e.nextProj = proj
}

// SetInterrupt installs a cooperative cancellation checkpoint: check is
// consulted once every 1024 predicate evaluations, and a non-nil error
// unwinds the search with an Interrupt panic carrying it. Install before
// FindAll; nil removes the checkpoint.
func (e *evaluator) SetInterrupt(check func() error) { e.check = check }

// checkpoint is the amortized interruption/injection slow path, taken
// once per 1024 evals: it fires the engine.eval fault point and consults
// the interrupt, unwinding with an Interrupt when either reports an error.
func (e *evaluator) checkpoint() {
	mustFire(faultEval)
	if e.check != nil {
		if err := e.check(); err != nil {
			panic(Interrupt{Err: err})
		}
	}
}

// nearCheckpoint reports whether the next eval runs the checkpoint: the
// row loop parks its cursor first (advance).
func (e *evaluator) nearCheckpoint() bool { return (e.stats.PredEvals+1)&checkpointMask == 0 }

// eval tests pattern element j (1-based) against input tuple i (1-based)
// and updates the counters. The checkpoint runs before the probe is
// counted, so a search it stops and a later one resumes counts the probe
// once.
func (e *evaluator) eval(j, i int) bool {
	if e.nearCheckpoint() && (e.check != nil || fault.Active()) {
		e.checkpoint()
	}
	e.stats.PredEvals++
	if e.doTrc {
		e.trace = append(e.trace, PathPoint{I: i, J: j})
	}
	e.ctx.Pos = i - 1
	if e.kern != nil {
		if e.masks != nil {
			if s := e.pureSlots[j-1]; s >= 0 {
				r := uint(i - 1)
				return e.slab[int(s)*e.words+int(r>>6)]>>(r&63)&1 != 0
			}
			return e.kern.EvalElemMasked(j-1, e.masks, &e.ctx)
		}
		return e.kern.EvalElem(j-1, e.proj, &e.ctx)
	}
	return e.p.EvalElem(j-1, &e.ctx)
}

// reset prepares for a new sequence: in vectorized mode it adopts or
// builds the selection bitmasks, and it projects the sequence (the
// projection buffers are reused across sequences) unless nothing will read
// the projection — supplied masks, which answer every compiled element,
// the interpreter taking the rest. Bindings are left as the last search
// left them: the loops that read them clear them.
func (e *evaluator) reset(seq []storage.Row) {
	e.ctx.Seq = storage.RowSeq(seq)
	e.masks, e.fastSkip, e.allPure = nil, false, false
	if e.kern == nil {
		e.nextProj, e.nextMasks = nil, nil
		return
	}
	if e.vec && e.nextMasks != nil && e.nextMasks.Rows() == len(seq) {
		e.masks = e.nextMasks
	}
	switch {
	case e.masks != nil:
		e.proj = nil // the supplied masks answer every compiled element
	case e.nextProj != nil && e.nextProj.Len() == len(seq):
		e.proj = e.nextProj
	default:
		if e.ownProj == nil {
			e.ownProj = e.kern.NewProjection()
		}
		e.ownProj.SetRows(seq)
		e.proj = e.ownProj
	}
	e.nextProj, e.nextMasks = nil, nil
	if !e.vec {
		return
	}
	if e.masks == nil {
		e.ownMasks = e.kern.BuildMasks(e.proj, e.ownMasks)
		e.masks = e.ownMasks
	}
	e.slab, e.words = e.masks.Words()
	// Probes a mask alone decides can be answered in bulk when nothing
	// needs to observe each one individually: path tracing records
	// per-probe points, and fault injection ties its determinism to the
	// exact eval cadence. Element 1's mask covers the failed starts; all of
	// them cover the whole search.
	bulk := !e.doTrc && !fault.Active()
	e.fastSkip = bulk && e.pureSlots[0] >= 0
	e.allPure = bulk && e.kern.AllPure()
}

// nextCandidate returns the first 1-based position ≥ i whose element-1
// mask bit is set, or nn+1 when none remains. Only valid under fastSkip.
func (e *evaluator) nextCandidate(i, nn int) int {
	first := int(e.pureSlots[0]) * e.words
	c := storage.MaskNextSet(e.slab[first:first+e.words], i-1)
	if c < 0 || c >= nn {
		return nn + 1
	}
	return c + 1
}

// skipEvals accounts k failed element-1 probes resolved in bulk from the
// selection bitmask. Each skipped row would have cost exactly one
// predicate evaluation and one rollback in every executor (a mismatch at
// the first element always shifts by one), so the counters — the paper's
// metric — stay bit-identical to row-at-a-time execution.
func (e *evaluator) skipEvals(k int64) {
	e.stats.Rollbacks += k
	e.stats.PredEvals = e.addEvals(e.stats.PredEvals, k)
}

// addEvals books k predicate evaluations answered from a mask onto the
// count evals and returns the new count, running the checkpoint once per
// 1024-eval boundary crossed: a bulk answer keeps the cancellation and
// live-progress cadence of k single probes. Search loops that keep the
// count in a local pass it through here; the small body inlines.
func (e *evaluator) addEvals(evals, k int64) int64 {
	if (evals+k)>>10 != evals>>10 {
		e.checkpoints(evals, k)
	}
	return evals + k
}

// checkpoints is addEvals' slow path, taken when the k evals cross at
// least one boundary. The new count is stored first, so an unwinding
// checkpoint leaves it behind.
func (e *evaluator) checkpoints(evals, k int64) {
	e.stats.PredEvals = evals + k
	if e.check == nil && !fault.Active() {
		return
	}
	for n := (evals+k)>>10 - evals>>10; n > 0; n-- {
		e.checkpoint()
	}
}

// Block hands out slices carved from blocks that are never overwritten:
// a block is only appended to, and when one lacks room the next starts
// while the old one is left to the slices that point into it. What Take
// or Run returned stays valid for as long as it is referenced. Unreserved
// — the zero value — a new block is twice the size of the last (the first
// as large as the first request), so n requests cost O(log n) allocations.
type Block[T any] struct {
	buf []T
	// step is a reserved block's next refill size, 0 while unreserved.
	step int
}

// Reserve starts a block of n elements, the caller's estimate of what is
// about to be handed out — the size of the last run of the same plan — so
// that a run that meets the estimate costs one allocation. A reserved
// block that runs out refills by a quarter of the estimate, and each
// refill is a quarter larger than the one before, never by doubling:
// overrunning by one element costs a quarter more memory, not twice, and
// overrunning many times over still costs O(log n) allocations. n <= 0
// reserves nothing.
func (b *Block[T]) Reserve(n int) {
	if n > 0 {
		b.buf, b.step = make([]T, 0, n), (n+3)/4
	}
}

// room makes sure n more elements fit behind the run that starts at from
// in the current block and returns where the run starts afterwards: at
// from, or at 0 of a new block the run was moved to.
func (b *Block[T]) room(from, n int) int {
	if cap(b.buf)-len(b.buf) >= n {
		return from
	}
	run := b.buf[from:]
	grow := 2*cap(b.buf) - len(run)
	if b.step > 0 {
		grow = b.step
		b.step += (b.step + 3) / 4
	}
	b.buf = make([]T, len(run), len(run)+max(n, grow))
	copy(b.buf, run)
	return 0
}

// Take returns n zeroed elements of the block, capacity clipped.
func (b *Block[T]) Take(n int) []T {
	at := b.room(len(b.buf), n)
	b.buf = b.buf[:at+n]
	return b.buf[at : at+n : at+n]
}

// Len is where a run begun now starts: the from of its first Append.
func (b *Block[T]) Len() int { return len(b.buf) }

// Append adds v to the run that starts at from — the elements appended
// since Len returned from — keeping the run contiguous: when the block is
// full the run so far moves to the next block and earlier runs keep the
// old one. It returns where the run starts now.
func (b *Block[T]) Append(from int, v ...T) int {
	from = b.room(from, len(v))
	b.buf = append(b.buf, v...)
	return from
}

// Extend adds n elements to the run that starts at from, keeping the run
// contiguous as Append does, and returns where the run starts now and the
// n elements, for the caller to fill.
func (b *Block[T]) Extend(from, n int) (int, []T) {
	from = b.room(from, n)
	at := len(b.buf)
	b.buf = b.buf[:at+n]
	return from, b.buf[at : at+n : at+n]
}

// Run returns the run that starts at from, nil when it is empty; capacity
// is clipped, so appending to the result cannot reach the block.
func (b *Block[T]) Run(from int) []T {
	if from == len(b.buf) {
		return nil
	}
	return b.buf[from:len(b.buf):len(b.buf)]
}

// Reset empties the current block for reuse, with room for at least n
// elements and unreserved: later runs overwrite its memory, so nothing may
// reference a run it handed out. What it held is zeroed, so it pins
// nothing the elements pointed at.
func (b *Block[T]) Reset(n int) {
	clear(b.buf)
	if cap(b.buf) < n {
		b.buf = make([]T, 0, n)
	}
	b.buf, b.step = b.buf[:0], 0
}

// Recycle implements Executor. The projection and masks the evaluator
// built for itself stay: they are its scratch, rebuilt per sequence.
func (e *evaluator) Recycle() {
	e.rewind()
	e.letGo()
}

// scratch readies the match and span blocks for FindRun, which rewinds
// them after each cluster's matches are handed over: blocks that hold what
// FindAll reported, valid until Recycle, are left to those matches.
func (e *evaluator) scratch() {
	if e.matches.Len() > 0 || e.spans.Len() > 0 {
		e.matches, e.spans = Block[Match]{}, Block[pattern.Span]{}
	}
}

// rewind empties the match and span blocks for later searches to
// overwrite.
func (e *evaluator) rewind() {
	e.matches.Reset(0)
	e.spans.Reset(0)
}

// letGo drops what the evaluator's last run searched with.
func (e *evaluator) letGo() {
	e.ctx.Seq = storage.Seq{}
	e.proj, e.masks, e.slab = nil, nil, nil
	e.nextProj, e.nextMasks = nil, nil
	e.check = nil
}

// snapshotSpans copies the current bindings for a reported match.
func (e *evaluator) snapshotSpans() []pattern.Span {
	out := e.spans.Take(e.p.Len())
	copy(out, e.ctx.Bind)
	return out
}

// Naive is the baseline executor: it attempts a fresh greedy match at
// every start position, backing up to start+1 on failure. This is the
// "naive search" of the paper's experiments.
type Naive struct {
	evaluator
	policy SkipPolicy
}

// NewNaive builds a naive executor.
func NewNaive(p *pattern.Pattern, policy SkipPolicy) *Naive {
	return &Naive{evaluator: newEvaluator(p), policy: policy}
}

// Name implements Executor.
func (n *Naive) Name() string { return "naive" }

// Trace enables path recording (Figure 5); it must be called before
// FindAll.
func (n *Naive) Trace() { n.doTrc = true }

// Path returns the recorded search path.
func (n *Naive) Path() []PathPoint { return n.trace }

// FindRun implements Executor: the generic run loop.
func (n *Naive) FindRun(r *Run) error { return n.runEach(n, r) }

// FindAll implements Executor.
func (n *Naive) FindAll(seq []storage.Row) ([]Match, Stats) {
	n.trace = n.trace[:0]
	n.reset(seq)
	n.stats = Stats{}
	from := n.matches.Len()
	nn := len(seq)
	for start := 1; start <= nn; start++ {
		if n.fastSkip {
			// Starts whose element-1 bit is clear fail after exactly one
			// eval; resolve the whole zero-run from the mask.
			if c := n.nextCandidate(start, nn); c > start {
				n.skipEvals(int64(c - start))
				if c > nn {
					break
				}
				start = c
			}
		}
		end, ok := n.matchAt(start, nn)
		if !ok {
			n.stats.Rollbacks++
			continue
		}
		n.stats.Matches++
		from = n.matches.Append(from, Match{Start: start - 1, End: end - 1, Spans: n.snapshotSpans()})
		if n.policy == SkipPastLastRow {
			start = end // loop increment moves to end+1
		}
	}
	return n.matches.Run(from), n.stats
}

// matchAt attempts a greedy match beginning at 1-based position start,
// returning the 1-based end position on success.
func (n *Naive) matchAt(start, nn int) (int, bool) {
	clear(n.bindings())
	i := start
	m := n.p.Len()
	for j := 1; j <= m; j++ {
		if i > nn || !n.eval(j, i) {
			return 0, false
		}
		n.ctx.Bind[j-1] = pattern.Span{Start: i - 1, End: i - 1, Set: true}
		i++
		if n.p.Elems[j-1].Star {
			for i <= nn && n.eval(j, i) {
				n.ctx.Bind[j-1].End = i - 1
				i++
			}
		}
	}
	return i - 1, true
}
