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
	// Tables supplies precomputed stream tables (core.ComputeForStream).
	// When nil, NewStreamer computes them. The tables are read-only at
	// run time, so one computation can be shared by every Streamer of
	// the same pattern — e.g. one matcher per CLUSTER BY key — instead
	// of re-running the implication engine per cluster.
	Tables *core.Tables
	// Vectorize is accepted and ignored. It selected a per-row verdict
	// memo that never hit (OPS's shift/next exists so that rows are not
	// re-probed: 0 hits in the double-bottom pin's 11,972 pred-evals) and
	// was removed; the field stays only because benchmark/layers.go sets
	// it, and goes with the next benchmark PR (ROADMAP item 1).
	Vectorize bool
}

// streamInlineElems is the longest pattern whose counters and bindings
// live inside the Streamer itself rather than in allocations of their
// own: a stream reaches one matcher per CLUSTER BY key through one
// pointer, and each separate object is one more cache miss per push when
// the keys are many. The paper's longest pattern (Example 10) has 9
// elements.
const streamInlineElems = 12

// streamInitRows is a new Streamer's window capacity. It is small because
// a stream holds one matcher per CLUSTER BY key and most attempts are a
// few rows long; the window doubles when an attempt outgrows it.
const streamInitRows = 4

// Streamer is the incremental (push-based) OPS matcher: tuples arrive one
// at a time and matches are emitted as soon as they complete. It retains
// only the window from just before the current match attempt's start, so
// memory is proportional to the longest live match attempt, not to the
// stream. This is the paper's continuous-query deployment (§6 runs
// SQL-TS "on input streams" via user-defined aggregates), with the same
// shift/next optimization applied incrementally.
//
// The window is storage the Streamer owns: rows[i] is a fixed header over
// slot i's values, and Push copies the tuple's values into slot tail. The
// live window is rows[head:tail]; pruning only advances head. ctx.Pos,
// ctx.Bind and the projection all index slots, so a push shifts and
// rebases nothing. When every slot is used the live values are copied
// down to slot 0 (compaction) if the dead prefix is at least as long as
// the live window, and the slot count is doubled otherwise: O(1)
// amortized per push, and a capacity below four times the longest live
// window held. Doubling adds a block of slots beside the ones it has
// and moves no values: a stream's clusters are often short (the
// benchmark's see 100 tuples and hold a median peak of 34), so growth is
// not amortized away there and must not re-copy the window.
//
// Slot 0 and the "no predecessor" rule: the interpreter and the kernels
// treat position 0 as having no previous tuple. Slot 0 is probed only
// when it holds global tuple 0. prune retains the attempt's predecessor
// (global tuple matchStart-2), no probe lands before the attempt's first
// tuple, and attempts only move forward; so once head has advanced, every
// probe lands past slot head, and a compaction moves slot head to slot 0.
type Streamer struct {
	rows       []storage.Row // rows[i] is slot i, stride values; len is the capacity
	head, tail int
	off        int // global 0-based index of the tuple in slot 0

	// Machine state; i is the 1-based global input cursor, j the 1-based
	// pattern cursor, per the paper's presentation. Binds in ctx are slot
	// indexes while evaluating and global at emission. Bind[k] is set only
	// for elements the current attempt has entered.
	i, j, inElem int
	count        []int
	ctx          pattern.EvalContext
	stats        Stats
	pruned       int64 // rows dropped from the retained window so far

	// What every push reads of the configuration. check is the
	// cooperative cancellation checkpoint (SetInterrupt), consulted every
	// checkpointMask+1 predicate evaluations.
	kern   *pattern.Kernel
	p      *pattern.Pattern
	t      *core.Tables
	stride int
	closed bool
	check  func() error
	cfg    StreamConfig

	// By value: a probe reaches the columns without a hop through a
	// separately allocated header.
	proj storage.Projection // decode of rows[:tail], same indexing; used with kern

	// Backing for count and ctx.Bind up to streamInlineElems elements.
	countBuf [streamInlineElems + 1]int
	bindBuf  [streamInlineElems]pattern.Span

	emit        func(Match)
	spanScratch []pattern.Span // emission buffer when cfg.ReuseSpans
}

// NewStreamer builds an incremental matcher for the pattern. emit is
// called synchronously from Push/Flush for every completed match, with
// global (whole-stream) coordinates.
func NewStreamer(p *pattern.Pattern, cfg StreamConfig, emit func(Match)) *Streamer {
	s := new(Streamer)
	s.Init(p, cfg, emit)
	return s
}

// Init is NewStreamer for a Streamer embedded by value in its owner's
// per-cluster state, so that the owner reaches the matcher without a
// pointer hop. s must be the zero Streamer, and must not be copied
// afterwards (its counters and bindings may live inside it).
func (s *Streamer) Init(p *pattern.Pattern, cfg StreamConfig, emit func(Match)) {
	t := cfg.Tables
	if t == nil {
		t = core.ComputeForStream(p)
	}
	s.p, s.t, s.cfg, s.emit = p, t, cfg, emit
	s.i, s.j = 1, 1
	if m := p.Len(); m <= streamInlineElems {
		s.count, s.ctx.Bind = s.countBuf[:m+1], s.bindBuf[:m]
	} else {
		s.count, s.ctx.Bind = make([]int, m+1), make([]pattern.Span, m)
	}
	s.stride = p.Schema.Len()
	s.addSlots(streamInitRows)
}

// addSlots extends the window store by n slots carved from one block.
func (s *Streamer) addSlots(n int) {
	old := len(s.rows)
	rows := make([]storage.Row, old+n)
	copy(rows, s.rows)
	vals := make([]storage.Value, n*s.stride)
	for i := 0; i < n; i++ {
		rows[old+i] = vals[i*s.stride : (i+1)*s.stride : (i+1)*s.stride]
	}
	s.rows = rows
}

// UseKernel attaches a compiled predicate kernel: pushed tuples are
// decoded into columnar buffers incrementally and probes of compiled
// elements read them through the kernel's conditions, row by row (a
// disjunction included). Call before the first Push (rows already
// buffered are projected on attach). A nil kernel, or one with no
// compiled elements, leaves the interpreter in place.
func (s *Streamer) UseKernel(k *pattern.Kernel) {
	if k == nil || k.CompiledElems() == 0 {
		s.kern, s.proj = nil, storage.Projection{}
		return
	}
	s.kern = k
	s.proj = *k.NewProjection()
	s.proj.Reserve(len(s.rows))
	s.proj.AppendRows(s.rows[:s.tail])
}

// SetInterrupt installs a cooperative cancellation checkpoint, consulted
// once every 1024 predicate evaluations. A non-nil error unwinds the
// machine with an Interrupt panic, which Push recovers into its error
// return (a mid-Flush interrupt propagates to Flush's caller).
func (s *Streamer) SetInterrupt(check func() error) { s.check = check }

// Stats returns the accumulated runtime counters.
func (s *Streamer) Stats() Stats { return s.stats }

// BufferLen reports the currently retained window size (for tests and
// monitoring). With MaxBuffer > 0 it is at most MaxBuffer+1 whenever Push
// has returned: an attempt is abandoned before it spans more than
// MaxBuffer tuples, and one predecessor is retained before it.
func (s *Streamer) BufferLen() int { return s.tail - s.head }

// Pruned reports the cumulative number of rows dropped from the
// retained window (for the pruned-rows observability counters).
func (s *Streamer) Pruned() int64 { return s.pruned }

// Window exposes the retained tuples and the global 0-based index of the
// first one. Inside an emit callback the window still covers the
// completed match (pruning happens after the machine settles), so output
// expressions can be evaluated against it. The last tuple pushed is
// always retained. The slice is the Streamer's own storage: it is valid
// until the next Push.
func (s *Streamer) Window() ([]storage.Row, int) {
	return s.rows[s.head:s.tail], s.off + s.head
}

// Push appends a copy of one tuple (the caller keeps the row it passed)
// and advances the machine as far as the input allows, emitting any
// matches that complete. An installed interrupt (SetInterrupt) or armed
// engine fault surfaces as Push's error; a later Push resumes the machine
// where the checkpoint stopped it.
func (s *Streamer) Push(row storage.Row) error {
	// With no interrupt installed and no armed fault, nothing in the
	// machine can raise an Interrupt — skip the recover frame (its cost
	// is per push, and pushes are µs-scale). Genuine predicate panics
	// propagate to the caller's containment boundary either way.
	if s.check == nil && !fault.Active() {
		return s.PushContained(row)
	}
	return s.pushChecked(row)
}

func (s *Streamer) pushChecked(row storage.Row) (err error) {
	if s.check != nil {
		if e := s.check(); e != nil {
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
	return s.PushContained(row)
}

// PushContained is Push for a caller that is its own containment
// boundary: it has already consulted its cancellation state for this
// push and recovers an Interrupt panic itself, so the per-push entry
// check and recover frame are dropped. The engine.stream.push fault
// point and the in-machine checkpoint stay.
func (s *Streamer) PushContained(row storage.Row) error {
	if s.closed {
		return fmt.Errorf("engine: Push after Flush")
	}
	if len(row) != s.stride {
		return fmt.Errorf("engine: Push arity %d, want %d", len(row), s.stride)
	}
	if err := faultStreamPush.Fire(); err != nil {
		return err
	}
	if s.tail == len(s.rows) {
		s.makeRoom()
	}
	slot := s.rows[s.tail]
	copy(slot, row)
	s.tail++
	s.ctx.Seq = s.rows[:s.tail]
	if s.kern != nil {
		s.proj.AppendRow(slot)
	}
	s.drain()
	s.prune()
	return nil
}

// makeRoom frees slots in a full store. When the dead prefix is at least
// as long as the live window it compacts: the live values move down to
// slot 0 (headers stay), so each copied row is paid for by a push since
// the last move. Otherwise it doubles the slot count, in place.
func (s *Streamer) makeRoom() {
	head, live := s.head, s.tail-s.head
	if head < live {
		s.addSlots(len(s.rows))
		if s.kern != nil {
			s.proj.Reserve(len(s.rows))
		}
		return
	}
	for k := 0; k < live; k++ {
		copy(s.rows[k], s.rows[head+k])
	}
	if s.kern != nil {
		s.proj.DropFront(head)
	}
	for k := range s.ctx.Bind {
		if s.ctx.Bind[k].Set {
			s.ctx.Bind[k].Start -= head
			s.ctx.Bind[k].End -= head
		}
	}
	s.off += head
	s.head, s.tail = 0, live
}

// PushAll pushes a batch of tuples.
func (s *Streamer) PushAll(rows []storage.Row) error {
	for _, r := range rows {
		if err := s.Push(r); err != nil {
			return err
		}
	}
	return nil
}

// Flush signals end of stream: a satisfied trailing star element
// completes its match. The streamer cannot be pushed to afterwards.
func (s *Streamer) Flush() {
	if s.closed {
		return
	}
	s.closed = true
	m := s.p.Len()
	for {
		s.drain() // returns only when i is past the available input
		if s.j == m && s.t.Star[m] && s.inElem > 0 {
			// A satisfied trailing star completes at end of stream.
			start := s.record(s.i)
			if s.cfg.Policy == SkipToNextRow && start < s.off+s.tail {
				s.i, s.j, s.inElem = start+1, 1, 0
				clear(s.ctx.Bind)
				continue
			}
		}
		// Greedy element boundaries are monotone in the start position,
		// so once the input exhausts mid-attempt no later attempt can
		// complete either (same argument as the batch executor).
		break
	}
}

// record emits the completed match (elements 1..m all satisfied; i one
// past the last consumed tuple) and returns its 1-based global start.
// Bind spans are slot indexes internally; the emitted match carries
// global coordinates.
func (s *Streamer) record(i int) int {
	m := s.p.Len()
	start := i - s.count[m]
	var spans []pattern.Span
	if s.cfg.ReuseSpans {
		if cap(s.spanScratch) < m {
			s.spanScratch = make([]pattern.Span, m)
		}
		spans = s.spanScratch[:m]
		clear(spans)
	} else {
		spans = make([]pattern.Span, m)
	}
	for k, sp := range s.ctx.Bind {
		if sp.Set {
			spans[k] = pattern.Span{Start: sp.Start + s.off, End: sp.End + s.off, Set: true}
		}
	}
	s.stats.Matches++
	s.emit(Match{Start: start - 1, End: i - 2, Spans: spans})
	return start
}

// park writes drain's local cursors and counters back.
func (s *Streamer) park(i, j, inElem int, evals, rollbacks int64) {
	s.i, s.j, s.inElem = i, j, inElem
	s.stats.PredEvals, s.stats.Rollbacks = evals, rollbacks
}

// drain runs the §5 machine while input is available. Cursors, counters
// and tables live in locals for the run and are parked wherever control
// can leave it: at a checkpoint, around an emission, on return.
func (s *Streamer) drain() {
	p, kern, proj, ctx := s.p, s.kern, &s.proj, &s.ctx
	m := p.Len()
	star, shift, next := s.t.Star, s.t.Shift, s.t.Next
	count, bind := s.count, s.ctx.Bind
	toNextRow := s.cfg.Policy == SkipToNextRow
	maxBuf, lastRowSkip := s.cfg.MaxBuffer, s.cfg.LastRowSkip
	off := s.off
	n := off + s.tail // tuples received so far
	check := s.check
	i, j, inElem := s.i, s.j, s.inElem
	evals, rollbacks := s.stats.PredEvals, s.stats.Rollbacks

	for {
		if j > m {
			s.park(i, j, inElem, evals, rollbacks)
			start := s.record(i)
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
			s.park(i, j, inElem, evals, rollbacks)
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
		// Rollback via the tables (identical to the batch executor): the
		// current element has consumed nothing, so the attempt has set
		// bind[:j-1].
		rollbacks++
		nx := next[j]
		if nx == 0 {
			clear(bind[:j-1])
			i++
			j = 1
			continue
		}
		sh := shift[j]
		skip := lastRowSkip && s.t.SkipOK[j]
		i += count[sh+nx-1] - count[j-1]
		base := count[sh]
		for t := 1; t < nx; t++ {
			count[t] = count[sh+t] - base
			bind[t-1] = bind[sh+t-1]
		}
		clear(bind[nx-1 : j-1])
		j = nx
		if skip {
			slot := i - 1 - off
			bind[j-1] = pattern.Span{Start: slot, End: slot, Set: true}
			count[j] = count[j-1] + 1
			i++
			j++
		}
	}
	s.park(i, j, inElem, evals, rollbacks)
}

// prune retires window slots before (match start - 1); the extra tuple
// keeps predecessor references valid at the attempt's first position.
func (s *Streamer) prune() {
	keep := s.i - s.count[s.j-1] - s.inElem - 2 - s.off // slot of the attempt's predecessor
	if keep > s.head {
		s.pruned += int64(keep - s.head)
		s.head = keep
	}
}
