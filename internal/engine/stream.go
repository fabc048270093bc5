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
// counters), the steps, the StreamConfig, the emit callback and the
// window layout (storage.WindowSet). A cluster is an id from Add into
// three dense arrays: a streamRec (its cursor, its successor and its
// window's header), its count[] and its bindings, the §5 machine's only
// other state; the window set holds its CLUSTER BY values, once. A feed
// that cycles through its clusters reads those in address order. A push
// to a cold cluster then touches its window's regions at the slot it
// writes, one line per element type on the double bottom (the float64
// prices the kernel reads, the int64 dates, the null flags), and nothing
// more. Counters (Stats, Pruned) are the arena's, summed over its
// clusters.
//
// A cluster retains only the window from just before its current match
// attempt's start, so memory is proportional to the longest live match
// attempt, not to the stream. A window is typed, pointer-free columns
// (storage.Window): Push decodes the tuple once into slot tail of its
// column regions, and the kernel's projection is those regions, so the
// probe reads what the push wrote. The live window is slots [head, tail);
// pruning only advances head. ctx.Pos, ctx.Bind and the projected columns
// all index slots, so a push shifts and rebases nothing. When every slot
// is used the live slots are copied down to slot 0 (compaction) if the
// dead prefix is at least as long as the live window, and otherwise into
// regions of twice the capacity, from slot 0 too: O(1) amortized per
// push, and a capacity below four times the longest live window held. A
// slot is 18 bytes on the double bottom, so a growth copies little.
//
// Slot 0 and the "no predecessor" rule: the interpreter and the kernels
// treat position 0 as having no previous tuple. Slot 0 is probed only
// when it holds global tuple 0. prune retains the attempt's predecessor
// (global tuple matchStart-2), no probe lands before the attempt's first
// tuple, and attempts only move forward; so once head has advanced, every
// probe lands past slot head, and a move (compaction or growth) takes
// slot head to slot 0.
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
	t     *core.Tables
	steps []step
	cfg   StreamConfig
	emit  func(Match)
	m     int // pattern elements
	set   *storage.WindowSet

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
	// reads of a cluster is its held key (HoldsKey) and its last SEQUENCE
	// BY values, which its window always retains.
	next   int32
	closed bool
	win    storage.Window
}

// NewStreamArena builds an empty arena for the pattern, whose clusters
// are keyed by the schema columns clusterBy (none for one stream). emit
// is called synchronously from Push/Flush for every completed match, with
// global (whole-cluster-stream) coordinates; the owner knows which
// cluster it pushed or flushed.
func NewStreamArena(p *pattern.Pattern, cfg StreamConfig, clusterBy []int, emit func(Match)) *StreamArena {
	a := new(StreamArena)
	a.init(p, cfg, clusterBy, emit)
	return a
}

func (a *StreamArena) init(p *pattern.Pattern, cfg StreamConfig, clusterBy []int, emit func(Match)) {
	t := cfg.Tables
	if t == nil {
		t = core.Compute(p)
	}
	a.ev, a.t, a.cfg, a.emit = newEvaluator(p), t, cfg, emit
	a.steps = newSteps(t, Default)
	a.m = p.Len()
	a.set = storage.NewWindowSet(p.Schema, clusterBy)
	if cfg.ReuseSpans {
		a.spanScratch = make([]pattern.Span, a.m)
	}
}

// UseKernel attaches a compiled predicate kernel: the windows hold the
// kernel's projected columns as its projection reads them, and probes of
// compiled elements read them through the kernel's conditions, row by row
// (a disjunction included). Call before the first Push: it lays the
// windows out again, empty. A nil kernel, or one with no compiled
// elements, leaves the interpreter in place.
func (a *StreamArena) UseKernel(k *pattern.Kernel) {
	a.ev.kern, a.ev.proj = nil, nil
	if k != nil && k.CompiledElems() > 0 {
		a.ev.kern, a.ev.proj = k, k.NewProjection()
	}
	a.set.Reproject(a.ev.proj)
	for id := range a.recs {
		r := &a.recs[id]
		if r.tail > 0 {
			panic("engine: UseKernel after Push")
		}
		r.win = a.set.Empty(int32(id), r.win.Cap())
	}
}

// SetInterrupt installs a cooperative cancellation checkpoint, consulted
// once every 1024 predicate evaluations. A non-nil error unwinds the
// machine with an Interrupt panic, which Push recovers into its error
// return (a mid-Flush interrupt propagates to Flush's caller).
func (a *StreamArena) SetInterrupt(check func() error) { a.ev.check = check }

// Add creates a cluster with an empty window, holding key's CLUSTER BY
// values (key is a tuple of the cluster; nil without CLUSTER BY columns),
// and returns its id: ids are dense, in creation order.
func (a *StreamArena) Add(key storage.Row) int32 {
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
	a.recs = append(a.recs, streamRec{cursor: cursor{i: 1, j: 1}, next: -1, win: a.set.Open(key, streamInitRows)})
	a.counts = append(a.counts, make([]int, a.m+1)...)
	a.binds = append(a.binds, make([]pattern.Span, a.m)...)
	return id
}

// HoldsKey reports whether row's CLUSTER BY values are cluster id's.
func (a *StreamArena) HoldsKey(id int32, row storage.Row) bool { return a.set.SameKey(id, row) }

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

// Window exposes cluster id's retained tuples, as a view of its typed
// window, and the global 0-based index of the first one. Inside an emit
// callback the window still covers the completed match (pruning happens
// after the machine settles), so output expressions can be evaluated
// against it. The last tuple pushed is always retained. The view reads
// the arena's own storage: it is valid until the next Push or Add.
func (a *StreamArena) Window(id int32) (storage.Seq, int) {
	r := &a.recs[id]
	return r.win.Seq(int(r.head), int(r.tail-r.head)), r.off + int(r.head)
}

// Push decodes one tuple into the next slot of cluster id's window (the
// caller keeps the row it passed; a value of another type than its
// column's is an error) and advances the cluster's machine as far as the input
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
	if err := a.set.Check(row); err != nil {
		return fmt.Errorf("engine: Push: %w", err)
	}
	if err := faultStreamPush.Fire(); err != nil {
		return err
	}
	if int(r.tail) == r.win.Cap() {
		a.makeRoom(id)
	}
	r.win.Set(int(r.tail), row)
	r.tail++
	a.enter(id)
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

// enter points the probe view at cluster id: its count and bindings, its
// window and (with a kernel) the projection's columns, which are the
// window's regions.
func (a *StreamArena) enter(id int32) {
	r := &a.recs[id]
	o := int(id) * (a.m + 1)
	a.count = a.counts[o : o+a.m+1 : o+a.m+1]
	a.ev.ctx.Bind = a.bindsOf(id)
	a.ev.ctx.Seq = r.win.Seq(0, int(r.tail))
	if a.ev.proj != nil {
		r.win.Project(a.ev.proj)
	}
}

// makeRoom frees slots in cluster id's full window by moving its live
// slots down to slot 0: within the window (a compaction) when the dead
// prefix is at least as long as the live window, so each copied slot is
// paid for by a push since the last move, and into a window of twice the
// capacity otherwise.
func (a *StreamArena) makeRoom(id int32) {
	r := &a.recs[id]
	head, live := int(r.head), int(r.tail-r.head)
	if head < live {
		w := a.set.Empty(id, 2*r.win.Cap())
		w.Copy(&r.win, head, live)
		r.win = w
	} else {
		r.win.Copy(&r.win, head, live)
	}
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
	s.a.init(p, cfg, nil, emit)
	s.a.Add(nil)
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
func (s *Streamer) Window() (storage.Seq, int) { return s.a.Window(0) }

// Push decodes one tuple into the window and advances the machine
// (StreamArena.Push).
func (s *Streamer) Push(row storage.Row) error { return s.a.Push(0, row) }

// PushContained is Push for a caller that is its own containment
// boundary (StreamArena.PushContained).
func (s *Streamer) PushContained(row storage.Row) error { return s.a.PushContained(0, row) }

// Flush signals end of stream: a satisfied trailing star element
// completes its match. The streamer cannot be pushed to afterwards.
func (s *Streamer) Flush() { s.a.Flush(0) }
