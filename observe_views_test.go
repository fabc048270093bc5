package sqlts

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"sqlts/internal/fault"
	"sqlts/internal/obs"
	"sqlts/internal/storage"
)

const viewsStreamSQL = `SELECT X.price FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y) WHERE Y.price > X.price`

// TestStreamPushCountedOnce: a tuple that reaches the matcher is one push
// in every view — the metric, the statement stats, the flight (pushes and
// rows) and the closing event — and a tuple Push rejects for its order is
// one in none of them.
func TestStreamPushCountedOnce(t *testing.T) {
	db := quoteDB(t)
	sink := &captureSink{}
	db.SetEventSink(sink)
	st, err := db.Stream(viewsStreamSQL, StreamOptions{}, func(storage.Row) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Push(storage.NewString("A"), storage.NewDateDays(2), storage.NewFloat(1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Push(storage.NewString("A"), storage.NewDateDays(1), storage.NewFloat(2)); err == nil || !strings.Contains(err.Error(), "out-of-order") {
		t.Fatalf("out-of-order push: %v", err)
	}

	if got := db.metrics.streamPushes.Value(); got != 1 {
		t.Errorf("sqlts_stream_pushes_total = %d, want 1", got)
	}
	stats := db.StatementStats()
	if len(stats) != 1 || stats[0].StreamPushes != 1 {
		t.Errorf("statement stats = %+v, want one entry with 1 push", stats)
	}
	flights := db.ActiveQueries()
	if len(flights) != 1 || flights[0].Pushes != 1 || flights[0].RowsScanned != 1 {
		t.Errorf("flights = %+v, want one stream with 1 push and 1 row", flights)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if len(sink.events) != 1 || sink.events[0].Pushes != 1 || sink.events[0].RowsScanned != 1 {
		t.Errorf("closing events = %+v, want one with 1 push and 1 row", sink.events)
	}
}

// TestStreamCloseEventWithoutRecorder: a stream's closing event is built
// from the stream, so with the flight recorder off it still carries the
// stream's pushes, rows and lifetime.
func TestStreamCloseEventWithoutRecorder(t *testing.T) {
	db := quoteDB(t)
	db.SetFlightRecorder(false)
	sink := &captureSink{}
	db.SetEventSink(sink)
	st, err := db.Stream(viewsStreamSQL, StreamOptions{}, func(storage.Row) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for day, price := range []float64{1, 2} {
		if err := st.Push(storage.NewString("A"), storage.NewDateDays(int64(day)), storage.NewFloat(price)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if len(sink.events) != 1 {
		t.Fatalf("sink saw %d events, want 1", len(sink.events))
	}
	ev := sink.events[0]
	if !ev.Stream || ev.Pushes != 2 || ev.RowsScanned != 2 || ev.DurationNs <= 0 || ev.PredEvals == 0 || ev.Matches != 1 {
		t.Errorf("closing event = %+v, want a stream event with 2 pushes, 2 rows, a duration, pred-evals and 1 match", ev)
	}
}

// TestRuntimeGaugesAtScrape: every exposition samples the runtime gauges,
// so a new database prints a live goroutine count without any sampler.
func TestRuntimeGaugesAtScrape(t *testing.T) {
	for name, write := range map[string]func(db *DB, b *strings.Builder) error{
		"WriteMetrics":    func(db *DB, b *strings.Builder) error { return db.WriteMetrics(b) },
		"Metrics.WriteTo": func(db *DB, b *strings.Builder) error { _, err := db.Metrics().WriteTo(b); return err },
	} {
		var b strings.Builder
		if err := write(New(), &b); err != nil {
			t.Fatal(err)
		}
		v, ok := expositionValue(b.String(), "sqlts_goroutines")
		if !ok || v <= 0 {
			t.Errorf("%s prints sqlts_goroutines %v (found %v), want a live count", name, v, ok)
		}
		for _, family := range []string{"sqlts_heap_alloc_bytes", "sqlts_heap_objects"} {
			if v, _ := expositionValue(b.String(), family); v <= 0 {
				t.Errorf("%s prints %s %v, want a live value", name, family, v)
			}
		}
	}
}

// expositionValue is the value of the sample named name in a Prometheus
// text exposition.
func expositionValue(text, name string) (float64, bool) {
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			return v, err == nil
		}
	}
	return 0, false
}

// TestDBHistogramExposition pins the database's own histogram families
// over a fixed mix — successful queries, one run admitted after a wait,
// and 32 stream pushes: each family exposes the DefBuckets bounds and
// +Inf, cumulative counts, and a _count equal to its +Inf bucket and to
// the number of observations the mix makes.
func TestDBHistogramExposition(t *testing.T) {
	defer fault.Reset()
	db := quoteDB(t)
	insertSeries(t, db, "INTC", 10000, 60, 70, 55, 40, 80, 92, 70)
	const queries = 5
	for i := 0; i < queries; i++ {
		if _, err := db.Query(introspectSQL1); err != nil {
			t.Fatal(err)
		}
	}

	// One run parks in the only slot; a second queues behind it and is
	// admitted once the slot frees: one admission wait, two queries more.
	db.SetMaxConcurrentQueries(1)
	entered, release := parkFirstExecution(t)
	defer release()
	parked := make(chan error, 1)
	go func() {
		_, err := db.Query(introspectSQL2)
		parked <- err
	}()
	<-entered
	queued := make(chan error, 1)
	go func() {
		_, err := db.Query(introspectSQL1)
		queued <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); db.metrics.admissionWaiting.Value() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("second query never queued for admission")
		}
		time.Sleep(time.Millisecond)
	}
	release()
	for _, ch := range []chan error{parked, queued} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	db.SetMaxConcurrentQueries(0)

	st, err := db.Stream(viewsStreamSQL, StreamOptions{}, func(storage.Row) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if err := st.Push(storage.NewString("S"), storage.NewDateDays(int64(i)), storage.NewFloat(float64(i%5))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := db.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	var wantLE []string
	for _, bound := range obs.DefBuckets {
		wantLE = append(wantLE, strconv.FormatFloat(bound, 'g', -1, 64))
	}
	wantLE = append(wantLE, "+Inf")
	for family, want := range map[string]int64{
		"sqlts_query_duration_seconds":       queries + 2,
		"sqlts_admission_wait_seconds":       1,
		"sqlts_stream_push_duration_seconds": 2, // sampled 1 push in 16
	} {
		var les []string
		var prev, inf int64
		sc := bufio.NewScanner(strings.NewReader(text))
		for sc.Scan() {
			line := sc.Text()
			rest, ok := strings.CutPrefix(line, family+`_bucket{le="`)
			if !ok {
				continue
			}
			le, val, _ := strings.Cut(rest, `"} `)
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			if n < prev {
				t.Errorf("%s: buckets not cumulative at le=%s (%d < %d)", family, le, n, prev)
			}
			les, prev, inf = append(les, le), n, n
		}
		if fmt.Sprint(les) != fmt.Sprint(wantLE) {
			t.Errorf("%s le labels %v, want %v", family, les, wantLE)
		}
		count, ok := expositionValue(text, family+"_count")
		if !ok || int64(count) != inf || inf != want {
			t.Errorf("%s: _count %v (found %v), +Inf bucket %d, want both %d", family, count, ok, inf, want)
		}
		if sum, ok := expositionValue(text, family+"_sum"); !ok || sum <= 0 {
			t.Errorf("%s: _sum %v (found %v), want > 0", family, sum, ok)
		}
	}
}
