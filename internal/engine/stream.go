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
// A push runs batch's row loop (evaluator.advance) until it parks, and
// Flush ends the input. What every cluster's search reads of the
// configuration is here, once: the evaluator (pattern, kernel, interrupt,
// counters), the steps, the StreamConfig, the emit callback, the tuple
// width and the kernel's projected columns. A cluster is an id from Add
// into three dense arrays: a streamRec (its cursor, its successor and its
// window), its count[] and its bindings, the §5 machine's only other
// state. A push to a cold cluster reads those, which a feed that cycles
// through its clusters reads in address order, and then its window's slot
// (through streamRec.top, not the slot's header) and projected column
// rows, and nothing more. Counters (Stats, Pruned) are the arena's,
// summed over its clusters.
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
	pruned int64 // rows dropped from the retained windows so far

	// ev probes and counts for every cluster. The probe view is the
	// cluster being advanced (enter): ev.ctx, count and ev.proj's column
	// headers point into its window, so the kernel's one row probe reads a
	// stream cluster as it reads any projection.
	ev    evaluator
	count []int

	// The configuration.
	t        *core.Tables
	steps    []step
	cfg      StreamConfig
	emit     func(Match)
	m, width int // pattern elements, tuple values

	// The kernel's projected columns, in the order a window's columns
	// hold their regions.
	numCols, nullCols, strCols []int

	spanScratch []pattern.Span // emission buffer when cfg.ReuseSpans
}

// streamRec is one cluster's record. Its cursor's input cursor i is
// global; its bindings are slot indexes, and Bind[k] is set only for
// elements the current attempt has entered.
type streamRec struct {
	cursor
	off        int   // the global 0-based index of the tuple in slot 0
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
	a.ev, a.t, a.cfg, a.emit = newEvaluator(p), t, cfg, emit
	a.steps = newSteps(t, OPSConfig{LastRowSkip: cfg.LastRowSkip})
	a.m, a.width = p.Len(), p.Schema.Len()
	if cfg.ReuseSpans {
		a.spanScratch = make([]pattern.Span, a.m)
	}
}

// UseKernel attaches a compiled predicate kernel: pushed tuples are
// decoded into the window's columns as they arrive and probes of
// compiled elements read them through the kernel's conditions, row by
// row (a disjunction included). Call before the first Push (rows already
// buffered are projected on attach). A nil kernel, or one with no
// compiled elements, leaves the interpreter in place.
func (a *StreamArena) UseKernel(k *pattern.Kernel) {
	a.ev.kern, a.ev.proj = nil, nil
	a.numCols, a.nullCols, a.strCols = nil, nil, nil
	if k != nil && k.CompiledElems() > 0 {
		proj := k.NewProjection()
		a.ev.kern, a.ev.proj = k, proj
		for c := range proj.Null {
			if proj.Num[c] != nil {
				a.numCols = append(a.numCols, c)
			}
			if proj.Null[c] != nil {
				a.nullCols = append(a.nullCols, c)
			}
			if proj.Str[c] != nil {
				a.strCols = append(a.strCols, c)
			}
		}
	}
	for id := range a.recs {
		r := &a.recs[id]
		r.cols = a.newColumns(len(r.rows))
		if a.ev.kern != nil {
			a.enter(int32(id))
			for t, row := range r.rows[:r.tail] {
				a.ev.proj.SetRow(t, row)
			}
		}
	}
}

// SetInterrupt installs a cooperative cancellation checkpoint, consulted
// once every 1024 predicate evaluations. A non-nil error unwinds the
// machine with an Interrupt panic, which Push recovers into its error
// return (a mid-Flush interrupt propagates to Flush's caller).
func (a *StreamArena) SetInterrupt(check func() error) { a.ev.check = check }

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
	a.recs = append(a.recs, streamRec{cursor: cursor{i: 1, j: 1}, next: -1})
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
func (a *StreamArena) Stats() Stats { return a.ev.stats }

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
	if a.ev.check == nil && !fault.Active() {
		return a.PushContained(id, row)
	}
	return a.pushChecked(id, row)
}

func (a *StreamArena) pushChecked(id int32, row storage.Row) (err error) {
	if a.ev.check != nil {
		if e := a.ev.check(); e != nil {
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
	if a.ev.kern != nil {
		a.ev.proj.SetRow(int(r.tail)-1, row)
	}
	for a.advance(r) {
		a.record(r)
	}
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
	a.ev.ctx.Bind = a.bindsOf(id)
	a.ev.ctx.Seq = r.rows[:r.tail]
	proj := a.ev.proj
	if proj == nil {
		return
	}
	c := len(r.rows)
	for k, col := range a.numCols {
		proj.Num[col] = r.cols.num[k*c : (k+1)*c : (k+1)*c]
	}
	for k, col := range a.nullCols {
		proj.Null[col] = r.cols.null[k*c : (k+1)*c : (k+1)*c]
	}
	for k, col := range a.strCols {
		proj.Str[col] = r.cols.strs[k*c : (k+1)*c : (k+1)*c]
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
// star element completes its match (cursor.ended). The cluster cannot be
// pushed to afterwards.
func (a *StreamArena) Flush(id int32) {
	r := &a.recs[id]
	if r.closed {
		return
	}
	r.closed = true
	a.enter(id)
	for a.advance(r) || r.ended(a.t.Star) {
		a.record(r)
	}
}

// advance runs the row loop on r, whose probe view is entered, over the
// tuples it has received, reading the configuration's steps and buffer
// limit: it returns true at a completed match, false parked.
func (a *StreamArena) advance(r *streamRec) bool {
	return a.ev.advance(&r.cursor, a.steps, a.t.Star, a.count, r.off+int(r.tail), r.off, a.cfg.MaxBuffer)
}

// record emits r's completed match, in global coordinates, and moves r's
// cursor to the next attempt (evaluator.take).
func (a *StreamArena) record(r *streamRec) {
	spans := a.spanScratch
	if !a.cfg.ReuseSpans {
		spans = make([]pattern.Span, a.m)
	}
	a.emit(a.ev.take(&r.cursor, a.count, spans, a.cfg.Policy))
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
func (s *Streamer) Stats() Stats { return s.a.Stats() }

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
