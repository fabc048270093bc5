package engine

import (
	"fmt"

	"sqlts/internal/core"
	"sqlts/internal/fault"
	"sqlts/internal/pattern"
	"sqlts/internal/storage"
)

// StreamConfig configures an incremental matcher.
type StreamConfig struct {
	Policy SkipPolicy
	// LastRowSkip enables the last-row-skip extension (see OPSConfig).
	LastRowSkip bool
	// MaxBuffer bounds the retained window (0 = unbounded). When an
	// in-progress match would exceed it, the attempt is abandoned and
	// the search restarts past the window — a safety valve for patterns
	// whose stars can run forever on adversarial input.
	MaxBuffer int
	// ReuseSpans makes emitted Match.Spans alias a scratch buffer that
	// is overwritten by the next emission — an allocation-free fast path
	// for sinks that consume spans synchronously. Sinks that retain a
	// Match past the emit callback must copy Spans (or leave this off).
	ReuseSpans bool
	// Tables supplies the pattern's precomputed tables (core.Compute), the
	// ones the batch executor reads. When nil, the matcher computes them.
	// The tables are read-only at run time, so one computation can be
	// shared by every matcher of the same pattern instead of re-running
	// the implication engine per matcher.
	Tables *core.Tables
	// Vectorize is accepted and ignored. It selected a per-row verdict
	// memo that never hit (OPS's shift/next exists so that rows are not
	// re-probed: 0 hits in the double-bottom pin's 11,972 pred-evals) and
	// was removed; the field stays only because benchmark/layers.go sets
	// it, and goes with the next benchmark PR (ROADMAP item 4).
	Vectorize bool
}

// streamInitRows is a new cluster's window capacity. It is small because
// a stream holds one window per CLUSTER BY key and most attempts are a
// few rows long; the window doubles when an attempt outgrows it.
const streamInitRows = 4

// StreamArena is the incremental (push-based) OPS matcher of a stream
// whose tuples are routed to many clusters: tuples arrive one at a time,
// each to a cluster, and matches are emitted as soon as they complete.
// This is the paper's continuous-query deployment (§6 runs SQL-TS "on
// input streams" via user-defined aggregates), with the same shift/next
// optimization applied incrementally, per cluster.
//
// What every cluster's search reads of the configuration — the pattern,
// its tables, the kernel, the StreamConfig, the emit callback, the
// interrupt, the tuple width and the kernel's projected columns — is
// here, once. A cluster is an id from Add into three dense arrays: a
// streamRec (its cursors, its successor and its window), its count[]
// and its bindings, the §5 machine's only other state. A push to a cold
// cluster reads those, which a feed that cycles through its clusters
// reads in address order, and then its window's slot (through
// streamRec.top, not the slot's header) and projected column rows, and
// nothing more. Counters (Stats, Pruned) are the arena's, summed over
// its clusters.
//
// A cluster retains only the window from just before its current match
// attempt's start, so memory is proportional to the longest live match
// attempt, not to the stream. Slot i has a fixed header over its values;
// Push copies the tuple's values into slot tail. The live window is slots
// [head, tail); pruning only advances head. ctx.Pos, ctx.Bind and
// the projected columns all index slots, so a push shifts and rebases
// nothing. When every slot is used the live values are copied down to
// slot 0 (compaction) if the dead prefix is at least as long as the live
// window, and the slot count is doubled otherwise: O(1) amortized per
// push, and a capacity below four times the longest live window held.
// Doubling adds a block of slots beside the ones the window has and moves
// no values — a stream's clusters are often short (the benchmark's see
// 100 tuples and hold a median peak of 34), so growth is not amortized
// away there and must not re-copy the window — while the headers and the
// projected columns, 33 of a slot's 153 bytes on the double bottom, are
// re-allocated at twice the size.
//
// Slot 0 and the "no predecessor" rule: the interpreter and the kernels
// treat position 0 as having no previous tuple. Slot 0 is probed only
// when it holds global tuple 0. prune retains the attempt's predecessor
// (global tuple matchStart-2), no probe lands before the attempt's first
// tuple, and attempts only move forward; so once head has advanced, every
// probe lands past slot head, and a compaction moves slot head to slot 0.
type StreamArena struct {
	recs []streamRec
	// counts holds each cluster's count (m+1 from id*(m+1)) and binds
	// its bindings (m from id*m).
	counts []int
	binds  []pattern.Span
	stats  Stats
	pruned int64 // rows dropped from the retained windows so far

	// The configuration. check is the cooperative cancellation checkpoint
	// (SetInterrupt), consulted every checkpointMask+1 predicate
	// evaluations.
	p        *pattern.Pattern
	t        *core.Tables
	steps    []step
	kern     *pattern.Kernel
	cfg      StreamConfig
	emit     func(Match)
	check    func() error
	m, width int // pattern elements, tuple values

	// The kernel's projected columns, in the order a window's columns
	// hold their regions.
	numCols, nullCols, strCols []int

	// The probe view of the cluster being advanced (enter): ctx.Seq and
	// ctx.Bind, count, and proj's projected column headers point into its
	// window, so the kernel's one row probe reads a stream cluster as it
	// reads any projection.
	ctx         pattern.EvalContext
	count       []int
	proj        storage.Projection
	spanScratch []pattern.Span // emission buffer when cfg.ReuseSpans
}

// streamRec is one cluster's record. Machine state: i is the 1-based
// global input cursor and j the 1-based pattern cursor, per the paper's
// presentation; inElem counts the tuples the current element has taken.
// Binds are slot indexes while evaluating and global at emission.
// Bind[k] is set only for elements the current attempt has entered.
type streamRec struct {
	i, off     int // off is the global 0-based index of the tuple in slot 0
	j, inElem  int32
	head, tail int32 // the live window is slots [head, tail)
	// next is the owner's routing state (Next): the rest of what routing
	// reads of a cluster — its key values and its last SEQUENCE BY values
	// — is the last tuple pushed, which its window always retains (Last).
	next   int32
	closed bool

	// The window: rows[s] is slot s's header over its values, one per
	// slot of the capacity; cols are the kernel's projected columns. top
	// is the values of the slots from topLo to the capacity, the block the
	// last doubling added, so that a push there copies its tuple without
	// reading the slot's header.
	rows  []storage.Row
	top   []storage.Value
	topLo int32
	cols  windowColumns
}

// windowColumns is a window's projected columns: a region of capacity
// values per column of the arena's numCols, nullCols and strCols.
type windowColumns struct {
	num  []float64
	null []bool
	strs []string
}

// NewStreamArena builds an empty arena for the pattern. emit is called
// synchronously from Push/Flush for every completed match, with global
// (whole-cluster-stream) coordinates; the owner knows which cluster it
// pushed or flushed.
func NewStreamArena(p *pattern.Pattern, cfg StreamConfig, emit func(Match)) *StreamArena {
	a := new(StreamArena)
	a.init(p, cfg, emit)
	return a
}

func (a *StreamArena) init(p *pattern.Pattern, cfg StreamConfig, emit func(Match)) {
	t := cfg.Tables
	if t == nil {
		t = core.Compute(p)
	}
	a.p, a.t, a.cfg, a.emit = p, t, cfg, emit
	a.steps = newSteps(t, OPSConfig{LastRowSkip: cfg.LastRowSkip})
	a.m, a.width = p.Len(), p.Schema.Len()
}

// UseKernel attaches a compiled predicate kernel: pushed tuples are
// decoded into the window's columns as they arrive and probes of
// compiled elements read them through the kernel's conditions, row by
// row (a disjunction included). Call before the first Push (rows already
// buffered are projected on attach). A nil kernel, or one with no
// compiled elements, leaves the interpreter in place.
func (a *StreamArena) UseKernel(k *pattern.Kernel) {
	a.kern, a.proj = nil, storage.Projection{}
	a.numCols, a.nullCols, a.strCols = nil, nil, nil
	if k != nil && k.CompiledElems() > 0 {
		a.kern, a.proj = k, *k.NewProjection()
		for c := range a.proj.Null {
			if a.proj.Num[c] != nil {
				a.numCols = append(a.numCols, c)
			}
			if a.proj.Null[c] != nil {
				a.nullCols = append(a.nullCols, c)
			}
			if a.proj.Str[c] != nil {
				a.strCols = append(a.strCols, c)
			}
		}
	}
	for id := range a.recs {
		r := &a.recs[id]
		r.cols = a.newColumns(len(r.rows))
		if a.kern != nil {
			a.enter(int32(id))
			for t, row := range r.rows[:r.tail] {
				a.proj.SetRow(t, row)
			}
		}
	}
}

// SetInterrupt installs a cooperative cancellation checkpoint, consulted
// once every 1024 predicate evaluations. A non-nil error unwinds the
// machine with an Interrupt panic, which Push recovers into its error
// return (a mid-Flush interrupt propagates to Flush's caller).
func (a *StreamArena) SetInterrupt(check func() error) { a.check = check }

// Add creates a cluster with an empty window and returns its id: ids are
// dense, in creation order.
func (a *StreamArena) Add() int32 {
	id := int32(len(a.recs))
	if len(a.recs) == cap(a.recs) {
		// Double the arrays exactly: append's own growth adds a quarter at
		// a time at the sizes a many-cluster stream reaches, re-copying
		// them several times over.
		n := max(1, 2*len(a.recs))
		a.recs = append(make([]streamRec, 0, n), a.recs...)
		a.counts = append(make([]int, 0, n*(a.m+1)), a.counts...)
		a.binds = append(make([]pattern.Span, 0, n*a.m), a.binds...)
	}
	a.recs = append(a.recs, streamRec{i: 1, j: 1, next: -1})
	a.counts = append(a.counts, make([]int, a.m+1)...)
	a.binds = append(a.binds, make([]pattern.Span, a.m)...)
	a.grow(&a.recs[id])
	return id
}

// Len returns the number of clusters.
func (a *StreamArena) Len() int { return len(a.recs) }

// Next returns the cluster the owner recorded as cluster id's successor
// (SetNext), -1 for none: a stream routes a tuple there first, because
// arrivals run in one cluster or cycle through the clusters in a fixed
// order.
func (a *StreamArena) Next(id int32) int32 { return a.recs[id].next }

// SetNext records next as cluster id's successor.
func (a *StreamArena) SetNext(id, next int32) { a.recs[id].next = next }

// Stats returns the runtime counters accumulated over every cluster.
func (a *StreamArena) Stats() Stats { return a.stats }

// Pruned reports the cumulative number of rows dropped from the
// retained windows (for the pruned-rows observability counters).
func (a *StreamArena) Pruned() int64 { return a.pruned }

// BufferLen reports cluster id's retained window size. With MaxBuffer >
// 0 it is at most MaxBuffer+1 whenever Push has returned: an attempt is
// abandoned before it spans more than MaxBuffer tuples, and one
// predecessor is retained before it.
func (a *StreamArena) BufferLen(id int32) int {
	r := &a.recs[id]
	return int(r.tail - r.head)
}

// Window exposes cluster id's retained tuples and the global 0-based
// index of the first one. Inside an emit callback the window still
// covers the completed match (pruning happens after the machine
// settles), so output expressions can be evaluated against it. The last
// tuple pushed is always retained. The slice is the arena's own storage:
// it is valid until the next Push.
func (a *StreamArena) Window(id int32) ([]storage.Row, int) {
	r := &a.recs[id]
	return r.rows[r.head:r.tail], r.off + int(r.head)
}

// Last returns the last tuple pushed to cluster id, nil before the
// first. It is the window's own slot: valid until the next Push.
func (a *StreamArena) Last(id int32) storage.Row {
	r := &a.recs[id]
	if r.tail == 0 {
		return nil
	}
	return a.slot(r, r.tail-1)
}

// slot returns slot s of r's window, from the top block when it is there.
func (a *StreamArena) slot(r *streamRec, s int32) storage.Row {
	if s < r.topLo {
		return r.rows[s]
	}
	k := int(s-r.topLo) * a.width
	return r.top[k : k+a.width : k+a.width]
}

// Push appends a copy of one tuple to cluster id (the caller keeps the
// row it passed) and advances the cluster's machine as far as the input
// allows, emitting any matches that complete. An installed interrupt
// (SetInterrupt) or armed engine fault surfaces as Push's error; a later
// Push resumes the machine where the checkpoint stopped it.
func (a *StreamArena) Push(id int32, row storage.Row) error {
	// With no interrupt installed and no armed fault, nothing in the
	// machine can raise an Interrupt — skip the recover frame (its cost
	// is per push, and pushes are µs-scale). Genuine predicate panics
	// propagate to the caller's containment boundary either way.
	if a.check == nil && !fault.Active() {
		return a.PushContained(id, row)
	}
	return a.pushChecked(id, row)
}

func (a *StreamArena) pushChecked(id int32, row storage.Row) (err error) {
	if a.check != nil {
		if e := a.check(); e != nil {
			return e
		}
	}
	defer func() {
		if r := recover(); r != nil {
			in, ok := r.(Interrupt)
			if !ok {
				panic(r)
			}
			err = in.Err
		}
	}()
	return a.PushContained(id, row)
}

// PushContained is Push for a caller that is its own containment
// boundary: it has already consulted its cancellation state for this
// push and recovers an Interrupt panic itself, so the per-push entry
// check and recover frame are dropped. The engine.stream.push fault
// point and the in-machine checkpoint stay.
func (a *StreamArena) PushContained(id int32, row storage.Row) error {
	r := &a.recs[id]
	if r.closed {
		return fmt.Errorf("engine: Push after Flush")
	}
	if len(row) != a.width {
		return fmt.Errorf("engine: Push arity %d, want %d", len(row), a.width)
	}
	if err := faultStreamPush.Fire(); err != nil {
		return err
	}
	if int(r.tail) == len(r.rows) {
		a.makeRoom(id)
	}
	copy(a.slot(r, r.tail), row)
	r.tail++
	a.enter(id)
	if a.kern != nil {
		a.proj.SetRow(int(r.tail)-1, row)
	}
	a.drain(r)
	a.prune(r)
	return nil
}

// bindsOf returns cluster id's bindings.
func (a *StreamArena) bindsOf(id int32) []pattern.Span {
	o := int(id) * a.m
	return a.binds[o : o+a.m : o+a.m]
}

// newColumns returns zeroed projected columns for capacity slots.
func (a *StreamArena) newColumns(capacity int) windowColumns {
	var c windowColumns
	if n := len(a.numCols) * capacity; n > 0 {
		c.num = make([]float64, n)
	}
	if n := len(a.nullCols) * capacity; n > 0 {
		c.null = make([]bool, n)
	}
	if n := len(a.strCols) * capacity; n > 0 {
		c.strs = make([]string, n)
	}
	return c
}

// copyColumns copies rows [from, from+n) of every projected column of
// src (at capacity srcCap) to rows [0, n) of dst's (at capacity dstCap):
// a compaction when they are one window's, a growth's carry-over when
// they are not.
func (a *StreamArena) copyColumns(dst windowColumns, dstCap int, src windowColumns, srcCap, from, n int) {
	copyRegions(dst.num, dstCap, src.num, srcCap, len(a.numCols), from, n)
	copyRegions(dst.null, dstCap, src.null, srcCap, len(a.nullCols), from, n)
	copyRegions(dst.strs, dstCap, src.strs, srcCap, len(a.strCols), from, n)
}

// copyRegions copies rows [from, from+n) of each of cols regions of src,
// srcCap long each, to rows [0, n) of dst's, dstCap long each.
func copyRegions[T any](dst []T, dstCap int, src []T, srcCap, cols, from, n int) {
	for k := 0; k < cols; k++ {
		copy(dst[k*dstCap:k*dstCap+n], src[k*srcCap+from:k*srcCap+from+n])
	}
}

// enter points the probe view at cluster id: its count and bindings, its
// tuples, and (with a kernel) each projected column, over the window's
// capacity so that Projection.SetRow decodes the next tuple into its slot.
func (a *StreamArena) enter(id int32) {
	r := &a.recs[id]
	o := int(id) * (a.m + 1)
	a.count = a.counts[o : o+a.m+1 : o+a.m+1]
	a.ctx.Bind = a.bindsOf(id)
	a.ctx.Seq = r.rows[:r.tail]
	if a.kern == nil {
		return
	}
	c := len(r.rows)
	for k, col := range a.numCols {
		a.proj.Num[col] = r.cols.num[k*c : (k+1)*c : (k+1)*c]
	}
	for k, col := range a.nullCols {
		a.proj.Null[col] = r.cols.null[k*c : (k+1)*c : (k+1)*c]
	}
	for k, col := range a.strCols {
		a.proj.Str[col] = r.cols.strs[k*c : (k+1)*c : (k+1)*c]
	}
}

// grow doubles r's capacity (or gives a new record its first slots): a
// block of as many slots as it has is added beside the ones it has, and
// the headers and columns are re-allocated with the live rows copied
// over.
func (a *StreamArena) grow(r *streamRec) {
	old := len(r.rows)
	n := max(streamInitRows, 2*old)
	rows := make([]storage.Row, n)
	copy(rows, r.rows)
	vals := make([]storage.Value, (n-old)*a.width)
	for i := old; i < n; i++ {
		k := (i - old) * a.width
		rows[i] = vals[k : k+a.width : k+a.width]
	}
	cols := a.newColumns(n)
	a.copyColumns(cols, n, r.cols, old, 0, int(r.tail))
	r.rows, r.cols = rows, cols
	r.top, r.topLo = vals, int32(old)
}

// makeRoom frees slots in cluster id's full window. When the dead prefix
// is at least as long as the live window it compacts: the live values
// and column rows move down to slot 0 (headers stay), so each copied row
// is paid for by a push since the last move. Otherwise it doubles the
// slot count (grow).
func (a *StreamArena) makeRoom(id int32) {
	r := &a.recs[id]
	head, live := int(r.head), int(r.tail-r.head)
	if head < live {
		a.grow(r)
		return
	}
	for k := 0; k < live; k++ {
		copy(r.rows[k], r.rows[head+k])
	}
	c := len(r.rows)
	a.copyColumns(r.cols, c, r.cols, c, head, live)
	bind := a.bindsOf(id)
	for k := range bind {
		if sp := &bind[k]; sp.Set {
			sp.Start -= head
			sp.End -= head
		}
	}
	r.off += head
	r.head, r.tail = 0, int32(live)
}

// Flush signals the end of cluster id's stream: a satisfied trailing
// star element completes its match. The cluster cannot be pushed to
// afterwards.
func (a *StreamArena) Flush(id int32) {
	r := &a.recs[id]
	if r.closed {
		return
	}
	r.closed = true
	a.enter(id)
	m := a.m
	for {
		a.drain(r) // returns only when i is past the available input
		if int(r.j) == m && a.t.Star[m] && r.inElem > 0 {
			// A satisfied trailing star completes at end of stream.
			start := a.record(r, r.i)
			if a.cfg.Policy == SkipToNextRow && start < r.off+int(r.tail) {
				r.i, r.j, r.inElem = start+1, 1, 0
				clear(a.ctx.Bind)
				continue
			}
		}
		// Greedy element boundaries are monotone in the start position,
		// so once the input exhausts mid-attempt no later attempt can
		// complete either (same argument as the batch executor).
		break
	}
}

// record emits r's completed match (elements 1..m all satisfied; i one
// past the last consumed tuple) and returns its 1-based global start.
// Bind spans are slot indexes internally; the emitted match carries
// global coordinates.
func (a *StreamArena) record(r *streamRec, i int) int {
	m := a.m
	start := i - a.count[m]
	var spans []pattern.Span
	if a.cfg.ReuseSpans {
		if cap(a.spanScratch) < m {
			a.spanScratch = make([]pattern.Span, m)
		}
		spans = a.spanScratch[:m]
		clear(spans)
	} else {
		spans = make([]pattern.Span, m)
	}
	for k, sp := range a.ctx.Bind {
		if sp.Set {
			spans[k] = pattern.Span{Start: sp.Start + r.off, End: sp.End + r.off, Set: true}
		}
	}
	a.stats.Matches++
	a.emit(Match{Start: start - 1, End: i - 2, Spans: spans})
	return start
}

// park writes drain's local cursors and counters back.
func (a *StreamArena) park(r *streamRec, i, j, inElem int, evals, rollbacks int64) {
	r.i, r.j, r.inElem = i, int32(j), int32(inElem)
	a.stats.PredEvals, a.stats.Rollbacks = evals, rollbacks
}

// drain runs r's §5 machine while input is available; the probe view is
// r's (enter). Cursors, counters and tables live in locals for the run
// and are parked wherever control can leave it: at a checkpoint, around
// an emission, on return.
func (a *StreamArena) drain(r *streamRec) {
	p, kern, proj, ctx := a.p, a.kern, &a.proj, &a.ctx
	m := a.m
	star, steps := a.t.Star, a.steps
	count, bind := a.count, a.ctx.Bind
	toNextRow := a.cfg.Policy == SkipToNextRow
	maxBuf := a.cfg.MaxBuffer
	off := r.off
	n := off + int(r.tail) // tuples received so far
	check := a.check
	i, j, inElem := r.i, int(r.j), int(r.inElem)
	evals, rollbacks := a.stats.PredEvals, a.stats.Rollbacks

	for {
		if j > m {
			a.park(r, i, j, inElem, evals, rollbacks)
			start := a.record(r, i)
			if toNextRow {
				i = start + 1
			}
			j, inElem = 1, 0
			clear(bind)
			continue
		}
		if i > n {
			break // need more input (or Flush)
		}
		if maxBuf > 0 && count[j-1]+inElem >= maxBuf {
			// Safety valve: the attempt spans MaxBuffer tuples; abandon it.
			clear(bind[:j])
			i++
			j, inElem = 1, 0
			continue
		}
		evals++
		if evals&checkpointMask == 0 && (check != nil || fault.Active()) {
			a.park(r, i, j, inElem, evals, rollbacks)
			checkpoint(check)
		}
		slot := i - 1 - off
		ctx.Pos = slot
		var ok bool
		if kern != nil {
			ok = kern.EvalElem(j-1, proj, ctx)
		} else {
			ok = p.EvalElem(j-1, ctx)
		}
		if ok {
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
			j++
			inElem = 0
			continue
		}
		// Roll back by element j's step (as the batch executor does; a
		// stream has no back step): the current element has consumed
		// nothing, so the attempt has set bind[:j-1].
		rollbacks++
		s := steps[j]
		keep := max(s.resume-1, 0)
		copy(bind[:keep], bind[s.from:])
		clear(bind[keep : j-1])
		if i, j = s.rollback(count, i, j); s.consume {
			slot := i - 2 - off
			bind[j-2] = pattern.Span{Start: slot, End: slot, Set: true}
		}
	}
	a.park(r, i, j, inElem, evals, rollbacks)
}

// prune retires r's window slots before (match start - 1); the extra
// tuple keeps predecessor references valid at the attempt's first
// position.
func (a *StreamArena) prune(r *streamRec) {
	keep := r.i - a.count[r.j-1] - int(r.inElem) - 2 - r.off // slot of the attempt's predecessor
	if keep > int(r.head) {
		a.pruned += int64(keep - int(r.head))
		r.head = int32(keep)
	}
}

// Streamer is the incremental matcher of one stream: a StreamArena with
// one cluster.
type Streamer struct {
	a StreamArena
}

// NewStreamer builds an incremental matcher for the pattern. emit is
// called synchronously from Push/Flush for every completed match, with
// global (whole-stream) coordinates.
func NewStreamer(p *pattern.Pattern, cfg StreamConfig, emit func(Match)) *Streamer {
	s := new(Streamer)
	s.a.init(p, cfg, emit)
	s.a.Add()
	return s
}

// UseKernel attaches a compiled predicate kernel (StreamArena.UseKernel).
func (s *Streamer) UseKernel(k *pattern.Kernel) { s.a.UseKernel(k) }

// Stats returns the accumulated runtime counters.
func (s *Streamer) Stats() Stats { return s.a.stats }

// BufferLen reports the currently retained window size
// (StreamArena.BufferLen).
func (s *Streamer) BufferLen() int { return s.a.BufferLen(0) }

// Window exposes the retained tuples and the global 0-based index of the
// first one (StreamArena.Window).
func (s *Streamer) Window() ([]storage.Row, int) { return s.a.Window(0) }

// Push appends a copy of one tuple and advances the machine
// (StreamArena.Push).
func (s *Streamer) Push(row storage.Row) error { return s.a.Push(0, row) }

// PushContained is Push for a caller that is its own containment
// boundary (StreamArena.PushContained).
func (s *Streamer) PushContained(row storage.Row) error { return s.a.PushContained(0, row) }

// Flush signals end of stream: a satisfied trailing star element
// completes its match. The streamer cannot be pushed to afterwards.
func (s *Streamer) Flush() { s.a.Flush(0) }
