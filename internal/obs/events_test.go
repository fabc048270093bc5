package obs

import (
	"bufio"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"
)

func TestWriterSinkJSONLines(t *testing.T) {
	var buf strings.Builder
	s := NewWriterSink(&buf)
	for i := 0; i < 3; i++ {
		s.Emit(Event{Time: time.Unix(100+int64(i), 0).UTC(), SQL: "SELECT 1", Rows: int64(i)})
	}
	if s.Count() != 3 {
		t.Fatalf("Count = %d, want 3", s.Count())
	}
	if s.Err() != nil {
		t.Fatalf("Err = %v", s.Err())
	}
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	lines := 0
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", lines, err, sc.Text())
		}
		if ev.SQL != "SELECT 1" || ev.Rows != int64(lines) {
			t.Errorf("line %d content wrong: %+v", lines, ev)
		}
		lines++
	}
	if lines != 3 {
		t.Fatalf("wrote %d lines, want 3", lines)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errWrite }

var errWrite = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "disk full" }

func TestWriterSinkRetainsFirstError(t *testing.T) {
	s := NewWriterSink(failWriter{})
	s.Emit(Event{})
	s.Emit(Event{})
	if s.Err() == nil || !strings.Contains(s.Err().Error(), "disk full") {
		t.Fatalf("Err = %v, want the write error", s.Err())
	}
	if s.Count() != 2 {
		t.Errorf("Count = %d, want 2 (failures still counted)", s.Count())
	}
}

func TestEventRing(t *testing.T) {
	r := NewEventRing(3)
	for i := 0; i < 5; i++ {
		r.Add(Event{Rows: int64(i)})
	}
	snap, total := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("ring retained %d, want 3", len(snap))
	}
	// Most recent first: 4, 3, 2.
	for i, want := range []int64{4, 3, 2} {
		if snap[i].Rows != want {
			t.Errorf("snap[%d].Rows = %d, want %d", i, snap[i].Rows, want)
		}
	}
	if total != 5 {
		t.Errorf("Total = %d, want 5", total)
	}

	// Shrinking keeps the most recent; growing keeps everything.
	r.SetCapacity(2)
	snap, _ = r.Snapshot()
	if len(snap) != 2 || snap[0].Rows != 4 || snap[1].Rows != 3 {
		t.Fatalf("after shrink: %+v", snap)
	}
	r.SetCapacity(10)
	if snap, _ = r.Snapshot(); len(snap) != 2 || snap[0].Rows != 4 {
		t.Fatalf("after grow: %+v", snap)
	}
	r.Add(Event{Rows: 9})
	if snap, _ = r.Snapshot(); snap[0].Rows != 9 || len(snap) != 3 {
		t.Fatalf("add after resize: %+v", snap)
	}

	// Reset drops the items and keeps the numbering.
	r.Reset()
	if snap, total = r.Snapshot(); len(snap) != 0 || total != 6 {
		t.Fatalf("after reset: %+v, total %d", snap, total)
	}
	r.Add(Event{Rows: 10})
	if snap, total = r.Snapshot(); len(snap) != 1 || snap[0].Rows != 10 || total != 7 {
		t.Fatalf("add after reset: %+v, total %d", snap, total)
	}

	// Zero capacity disables retention but keeps counting.
	r.SetCapacity(0)
	r.Add(Event{})
	if snap, total = r.Snapshot(); len(snap) != 0 || total != 8 {
		t.Errorf("zero-capacity ring retained %d events, total %d", len(snap), total)
	}

	// Nil ring is inert.
	var nr *EventRing
	nr.Add(Event{})
	if snap, total := nr.Snapshot(); snap != nil || total != 0 {
		t.Error("nil ring not inert")
	}
	nr.SetCapacity(4)
	nr.Reset()
}

func TestErrClassString(t *testing.T) {
	want := map[ErrClass]string{
		ErrCanceled: "canceled",
		ErrDeadline: "deadline",
		ErrBudget:   "budget",
		ErrPanic:    "panic",
		ErrRejected: "rejected",
		ErrKilled:   "killed",
		ErrOther:    "other",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("ErrClass(%d).String() = %q, want %q", c, c.String(), s)
		}
	}
}

// TestEventQueryObs: the statement-stats view carries every QueryObs
// field over from the event (a field added to QueryObs and not to the
// conversion stays zero and fails here).
func TestEventQueryObs(t *testing.T) {
	ev := Event{
		Executor: "naive", DurationNs: 1, AdmissionWaitNs: 2, Rows: 3, RowsScanned: 4,
		PredEvals: 5, Rollbacks: 6, Matches: 7, PlanCached: true, PartitionCached: true,
		Kernel: true, Vectorized: true,
	}
	got := ev.QueryObs()
	want := QueryObs{
		DurNs: 1, AdmissionWaitNs: 2, Rows: 3, RowsScanned: 4, PredEvals: 5, Rollbacks: 6,
		Matches: 7, PlanCached: true, PartitionCached: true, Kernel: true, Naive: true,
		Vectorized: true,
	}
	if got != want {
		t.Fatalf("QueryObs = %+v, want %+v", got, want)
	}
	v := reflect.ValueOf(got)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Errorf("QueryObs.%s not carried over", v.Type().Field(i).Name)
		}
	}
	ev.Executor = "ops"
	if ev.QueryObs().Naive {
		t.Error("an ops run reads as naive")
	}
}

// TestEventSizeUnchangedByPatternCached: the pattern-cache flag lives in
// the padding after the other two cache flags, so every run's event — the
// ring holds 256 of them — is no larger than before it. The event is 248
// bytes, not the 256 it was when the flag came: the sharded partition
// cache's shard count (one int) was deleted since.
func TestEventSizeUnchangedByPatternCached(t *testing.T) {
	var ev Event
	if a, b := unsafe.Offsetof(ev.PartitionCached), unsafe.Offsetof(ev.PatternCached); b != a+1 {
		t.Errorf("PatternCached at offset %d, want %d (right after PartitionCached)", b, a+1)
	}
	if unsafe.Sizeof(uintptr(0)) == 8 {
		if n := unsafe.Sizeof(ev); n != 248 {
			t.Errorf("obs.Event is %d bytes, want 248", n)
		}
	}
}
