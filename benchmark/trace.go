package main

// The benchmark's own span recorder. Spans are taken here, around the
// calls into each layer, kept in memory, and written out once at exit
// in Chrome trace-event format (chrome://tracing, ui.perfetto.dev).
// Spans inside the program are a later change.

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval. Spans of one operation share Op; Parent is
// the span that caused this one (0 for the root, which is named "op").
type span struct {
	Op     int32
	ID     int32
	Parent int32
	Name   string
	Start  int64 // ns since the tracer started
	End    int64
	// Counts are taken at the same boundary as the times, so ratios are
	// measured where the work happens.
	Counts map[string]int64
	// cold marks spans of the whole-pipeline replays and probes done
	// beside the traced operations, as opposed to stages on the path.
	cold bool
}

func (s *span) dur() int64 { return s.End - s.Start }

type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index; end closes it.
func (t *tracer) begin(op, parent int32, name string, cold bool) int32 {
	t.spans = append(t.spans, span{
		Op: op, ID: int32(len(t.spans) + 1), Parent: parent, Name: name, cold: cold,
		Start: time.Since(t.t0).Nanoseconds(),
	})
	return int32(len(t.spans))
}

func (t *tracer) end(id int32) *span {
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Nanoseconds()
	return s
}

func (s *span) count(name string, v int64) {
	if s.Counts == nil {
		s.Counts = map[string]int64{}
	}
	s.Counts[name] = v
}

// selfTimes returns, per span name, every span's self time — its
// duration minus the part its children cover — split into the spans
// taken inside traced operations and the cold ones.
func (t *tracer) selfTimes() (traced, cold map[string][]int64) {
	children := make([]int64, len(t.spans)+1)
	for i := range t.spans {
		children[t.spans[i].Parent] += t.spans[i].dur()
	}
	traced, cold = map[string][]int64{}, map[string][]int64{}
	for i := range t.spans {
		s := &t.spans[i]
		into := traced
		if s.cold {
			into = cold
		}
		into[s.Name] = append(into[s.Name], s.dur()-children[s.ID])
	}
	return traced, cold
}

func medianInt(v []int64) int64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// layerTimes returns the lookup of a layer's number: the median self
// time, in µs, of its spans inside traced operations, or — for a stage
// that is not on this workload's path — of its spans in the cold replays.
func (t *tracer) layerTimes() func(name string) float64 {
	traced, cold := t.selfTimes()
	return func(name string) float64 {
		if v := traced[name]; len(v) > 0 {
			return float64(medianInt(v)) / 1e3
		}
		return float64(medianInt(cold[name])) / 1e3
	}
}

// lastCount returns a count from the most recent span of that name.
func (t *tracer) lastCount(spanName, count string) float64 {
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].Name == spanName {
			return float64(t.spans[i].Counts[count])
		}
	}
	return 0
}

// traceEvent is one Chrome trace "complete" event.
type traceEvent struct {
	Name string           `json:"name"`
	Ph   string           `json:"ph"`
	Ts   float64          `json:"ts"`  // µs
	Dur  float64          `json:"dur"` // µs
	Pid  int              `json:"pid"`
	Tid  int              `json:"tid"`
	Args map[string]int64 `json:"args"`
}

// write streams every span to path as {"traceEvents":[...]}.
func (t *tracer) write(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	if _, err := w.WriteString(`{"displayTimeUnit":"ns","traceEvents":[` + "\n"); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	for i := range t.spans {
		s := &t.spans[i]
		if i > 0 {
			if err := w.WriteByte(','); err != nil {
				return err
			}
		}
		args := map[string]int64{"op_id": int64(s.Op), "span_id": int64(s.ID), "parent": int64(s.Parent)}
		for k, v := range s.Counts {
			args[k] = v
		}
		ev := traceEvent{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3, Pid: 1, Tid: 1, Args: args}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	if _, err := w.WriteString("]}\n"); err != nil {
		return err
	}
	return w.Flush()
}
