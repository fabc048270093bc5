package sqlts

// Tests for the streaming push path's ownership rules: the matchers copy
// tuples into windows they reuse, routing and coercion run in reused
// scratch, and the flight's live counters are ticked per push.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"

	"sqlts/internal/obs"
	"sqlts/internal/storage"
	"sqlts/internal/testutil"
)

const upTickSQL = `
	SELECT X.name, X.date, Y.price FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y)
	WHERE Y.price > X.price`

// TestStreamOrderingAfterSlotReuse: the arrival-order check compares with
// a copy of the cluster's previous SEQUENCE BY values, so it still fires
// after the previous tuple's window slot was pruned and reused (a
// two-element pattern keeps two or three tuples in a four-slot window).
func TestStreamOrderingAfterSlotReuse(t *testing.T) {
	db := quoteDB(t)
	matches := 0
	st, err := db.Stream(upTickSQL, StreamOptions{}, func(storage.Row) error { matches++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// One reused argument slice: Push may not keep a reference to it.
	vals := make([]storage.Value, 3)
	push := func(name string, day int64, price float64) error {
		vals[0], vals[1], vals[2] = storage.NewString(name), storage.NewDateDays(day), storage.NewFloat(price)
		return st.Push(vals...)
	}
	for day := int64(0); day < 40; day++ {
		for _, name := range []string{"IBM", "INTC"} {
			if err := push(name, 100+day, float64(10+day%3)); err != nil {
				t.Fatalf("day %d %s: %v", day, name, err)
			}
		}
		// Every slot of the four-slot windows has been reused several
		// times over by now; a stale tuple is still rejected, per cluster.
		if day >= 8 {
			if err := push("IBM", 100+day-1, 99); err == nil {
				t.Fatalf("day %d: out-of-order tuple accepted", day)
			}
		}
	}
	if err := push("INTC", 139, 1); err != nil {
		t.Errorf("a tuple equal in date to the previous one was rejected: %v", err)
	}
	if matches == 0 {
		t.Error("no matches on a feed that rises every third day")
	}
}

// TestStreamNullCluster: a stream routes by the same type-tagged key
// batch clustering uses, so the NULL cluster and the cluster of the
// string 'NULL' stay apart. Merged, their alternating prices rise within
// one cluster and match.
func TestStreamNullCluster(t *testing.T) {
	db := quoteDB(t)
	tuples := []storage.Row{
		{storage.Null, storage.NewDateDays(1), storage.NewFloat(10)},
		{storage.NewString("NULL"), storage.NewDateDays(2), storage.NewFloat(20)},
		{storage.Null, storage.NewDateDays(3), storage.NewFloat(5)},
		{storage.NewString("NULL"), storage.NewDateDays(4), storage.NewFloat(8)},
	}
	var streamed []string
	st, err := db.Stream(upTickSQL, StreamOptions{}, func(r storage.Row) error {
		streamed = append(streamed, fmtRow(r))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tuples {
		if err := st.Push(row...); err != nil {
			t.Fatal(err)
		}
		db.Table("quote").MustInsert(row...)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	batch, err := db.Query(upTickSQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Rows) != 0 {
		t.Fatalf("batch matched across the two clusters: %v", batch.Rows)
	}
	if len(streamed) != len(batch.Rows) {
		t.Fatalf("stream found %d matches %v, batch %d", len(streamed), streamed, len(batch.Rows))
	}
}

// TestStreamFlightPredEvals: a streaming flight's live pred-evals are
// the matchers' own count after every push, on many small clusters
// (where no matcher reaches the engine's 1,024-eval checkpoint) as on
// one.
func TestStreamFlightPredEvals(t *testing.T) {
	db := quoteDB(t)
	srv := httptest.NewServer(db.DebugHandler())
	defer srv.Close()
	st, err := db.Stream(upTickSQL, StreamOptions{}, func(storage.Row) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		name := fmt.Sprintf("S%02d", i%25)
		if err := st.Push(storage.NewString(name), storage.NewDateDays(int64(i)), storage.NewFloat(float64(i*7%11))); err != nil {
			t.Fatal(err)
		}
		if i%50 != 49 {
			continue
		}
		want := st.Stats().PredEvals
		if want == 0 {
			t.Fatal("no pred-evals after 50 pushes")
		}
		active := db.ActiveQueries()
		if len(active) != 1 || active[0].PredEvals != want || active[0].Pushes != int64(i+1) || active[0].RowsScanned != int64(i+1) {
			t.Fatalf("after %d pushes: flights %+v, want one with %d pred-evals, pushes and rows", i+1, active, want)
		}
	}
	// The same figure through the endpoint an operator reads.
	resp, err := srv.Client().Get(srv.URL + "/debug/queries")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Queries []obs.FlightSnapshot `json:"queries"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := st.Stats().PredEvals; len(list.Queries) != 1 || list.Queries[0].PredEvals != want {
		t.Fatalf("/debug/queries: %+v, want one flight with %d pred-evals", list.Queries, want)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamSteadyStateZeroAlloc: once its clusters exist and their
// windows have reached the size the pattern holds them at, a push
// allocates nothing: the tuple is coerced into stream scratch and copied
// into a window slot, the routing key is built in a reused buffer, and a
// full window compacts in place.
func TestStreamSteadyStateZeroAlloc(t *testing.T) {
	db := quoteDB(t)
	matches := 0
	st, err := db.Stream(upTickSQL, StreamOptions{}, func(storage.Row) error { matches++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const clusters = 64
	names := make([]storage.Value, clusters)
	for c := range names {
		names[c] = storage.NewString(fmt.Sprintf("S%02d", c))
	}
	day := int64(0)
	vals := make([]storage.Value, 3)
	round := func() {
		for c := 0; c < clusters; c++ {
			// A flat price never rises: no match in the batch. The
			// integer price is coerced to the column's REAL on every push.
			vals[0], vals[1], vals[2] = names[c], storage.NewDateDays(day), storage.NewInt(10)
			if err := st.Push(vals...); err != nil {
				t.Fatal(err)
			}
		}
		day++
	}
	for i := 0; i < 32; i++ {
		round() // warm: create the clusters, settle the windows
	}
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("a round of %d warm pushes allocated %.1f times, want 0", clusters, allocs)
	}
	if matches != 0 {
		t.Fatalf("%d matches on a flat feed", matches)
	}
}

// interleavingSQL has a star and predecessor references, so attempts
// roll back and, on long falling runs, outgrow a MaxBuffer of 8.
const interleavingSQL = `
	SELECT X.name, X.date, FIRST(Y).date AS fall_start, Z.date AS turn
	FROM quote CLUSTER BY name SEQUENCE BY date AS (X, *Y, Z)
	WHERE X.price >= X.previous.price
	  AND Y.price < Y.previous.price
	  AND Z.price > Z.previous.price`

// TestStreamInterleavingInvariant: a stream's output and counters are a
// function of each cluster's own tuple sequence, not of how the clusters
// interleave. 302 clusters (among them a NULL key and the string 'NULL',
// and clusters whose first tuple arrives mid-stream) are pushed
// round-robin by date, in seeded random runs, and cluster after cluster.
// Under each option the three orders emit the same rows (as a multiset)
// and the same pred-evals, rollbacks and matches; without MaxBuffer or
// LastRowSkip, which batch has no counterpart of, they equal the batch
// query's rows and pred-evals too.
func TestStreamInterleavingInvariant(t *testing.T) {
	type tuple struct {
		name storage.Value
		day  int64
		px   float64
	}
	r := rand.New(rand.NewSource(31))
	var clusters [][]tuple
	for c := 0; c < 302; c++ {
		name := storage.NewString(fmt.Sprintf("S%03d", c))
		switch c {
		case 300:
			name = storage.Null
		case 301:
			name = storage.NewString("NULL")
		}
		// Staggered first days: in date order a fifth of the clusters
		// start after every other cluster has been seen.
		day, px := int64(1000+(c%5)*15), 50.0
		var seq []tuple
		for n := 3 + r.Intn(38); n > 0; n-- {
			seq = append(seq, tuple{name, day, px})
			day++
			px *= 1 + 0.03*(r.Float64()-0.55)
		}
		clusters = append(clusters, seq)
	}

	roundRobin := func() (out []tuple) {
		for day := int64(1000); ; day++ {
			more := false
			for _, seq := range clusters {
				for _, tp := range seq {
					if tp.day == day {
						out = append(out, tp)
					}
				}
				more = more || seq[len(seq)-1].day > day
			}
			if !more {
				return out
			}
		}
	}
	randomRuns := func() (out []tuple) {
		r := rand.New(rand.NewSource(5))
		next := make([]int, len(clusters))
		for live := len(clusters); live > 0; {
			c := r.Intn(len(clusters))
			for run := 1 + r.Intn(5); run > 0 && next[c] < len(clusters[c]); run-- {
				out = append(out, clusters[c][next[c]])
				if next[c]++; next[c] == len(clusters[c]) {
					live--
				}
			}
		}
		return out
	}
	contiguous := func() (out []tuple) {
		for _, seq := range clusters {
			out = append(out, seq...)
		}
		return out
	}
	orders := []struct {
		name   string
		tuples []tuple
	}{{"round-robin", roundRobin()}, {"random-runs", randomRuns()}, {"contiguous", contiguous()}}

	// Rows are compared with each value's type, so the NULL cluster and
	// the 'NULL' cluster cannot stand in for each other.
	rowKey := func(row storage.Row) string {
		var b []byte
		for _, v := range row {
			b = fmt.Appendf(b, "%d:%s|", v.Type(), v)
		}
		return string(b)
	}
	db := quoteDB(t)
	for _, o := range orders[:1] {
		for _, tp := range o.tuples {
			db.Table("quote").MustInsert(tp.name, storage.NewDateDays(tp.day), storage.NewFloat(tp.px))
		}
	}
	q, err := db.Prepare(interleavingSQL)
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []struct {
		name  string
		opts  StreamOptions
		batch *RunOptions
	}{
		{"default", StreamOptions{}, &RunOptions{}},
		{"overlap", StreamOptions{Overlap: true}, &RunOptions{Overlap: true}},
		{"last-row-skip", StreamOptions{LastRowSkip: true}, nil},
		{"max-buffer-8", StreamOptions{MaxBuffer: 8}, nil},
	} {
		var ref map[string]int
		var refStats string
		for _, o := range orders {
			got := map[string]int{}
			st, err := q.OpenStream(opt.opts, func(row storage.Row) error {
				got[rowKey(row)]++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, tp := range o.tuples {
				if err := st.Push(tp.name, storage.NewDateDays(tp.day), storage.NewFloat(tp.px)); err != nil {
					t.Fatalf("%s/%s: push %d: %v", opt.name, o.name, i, err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			s := st.Stats()
			stats := fmt.Sprintf("pred-evals %d, rollbacks %d, matches %d", s.PredEvals, s.Rollbacks, s.Matches)
			if s.Matches == 0 || s.Rollbacks == 0 {
				t.Fatalf("%s/%s: %s: the fixture must match and roll back", opt.name, o.name, stats)
			}
			if ref == nil {
				ref, refStats = got, stats
				if opt.batch != nil {
					res, err := q.RunWith(*opt.batch)
					if err != nil {
						t.Fatal(err)
					}
					want := map[string]int{}
					for _, row := range res.Rows {
						want[rowKey(row)]++
					}
					if fmt.Sprint(want) != fmt.Sprint(got) || res.Stats.PredEvals != s.PredEvals {
						t.Errorf("%s: stream %d rows, %d pred-evals; batch %d rows, %d pred-evals",
							opt.name, s.Matches, s.PredEvals, len(res.Rows), res.Stats.PredEvals)
					}
				}
				continue
			}
			if stats != refStats {
				t.Errorf("%s/%s: %s, %s: %s", opt.name, o.name, stats, orders[0].name, refStats)
			}
			if fmt.Sprint(got) != fmt.Sprint(ref) {
				t.Errorf("%s/%s: rows differ from %s's", opt.name, o.name, orders[0].name)
			}
		}
	}
}

// TestStreamClusterFootprint pins what an open stream holds per cluster:
// 10,000 clusters of one tuple each, measured as live heap after a
// collection. A cluster is a record in the stream's dense array, its
// count[] and bindings, its held key, a four-slot typed window (a float64,
// an int64 and a null-flag region) and a map entry. The pin was set at
// the typed window's reading (514 B) plus a tenth; it must never loosen,
// only tighten.
func TestStreamClusterFootprint(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector adds shadow memory to every allocation")
	}
	const clusters = 10000
	names := make([]storage.Value, clusters)
	for c := range names {
		names[c] = storage.NewString(fmt.Sprintf("S%05d", c))
	}
	db := quoteDB(t)
	st, err := db.Stream(upTickSQL, StreamOptions{}, func(storage.Row) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for c := range names {
		if err := st.Push(names[c], storage.NewDateDays(1), storage.NewFloat(10)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perCluster := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / clusters
	t.Logf("%.0f B of live heap per cluster", perCluster)
	if perCluster > 565 {
		t.Errorf("%.0f B of live heap per one-tuple cluster, want at most 565", perCluster)
	}
	runtime.KeepAlive(names)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamTypedWindowDifferential: a stream window holds each column in
// a region of its own type and a CLUSTER BY column once per cluster, and
// the interpreter, cross conditions and SELECT read it through one view.
// The feed has a column of every kind (INT, DATE, REAL, BOOL, a non-key
// STRING; some REALs pushed as INTs, which Push coerces), a two-column CLUSTER BY whose second column is REAL (-0 and +0
// are two clusters; NaNs of two payloads are one, each row keeping its
// own), and NULLs in key and non-key columns. One statement holds its
// string key once and has an element with an opaque condition (the
// interpreter reads the window) and a cross condition; the other projects
// its string key and its INT and DATE columns into the kernel. Both
// SELECT every column kind, previous and next, FIRST/LAST and aggregates.
// Under both skip policies the stream's rows equal the batch query's
// value for value, float bits included, and so do pred-evals, rollbacks
// and matches. The windows grow and compact on the way: some cluster's
// window holds more than 16 tuples, so it grew from four slots at least
// twice, and each cluster's pushes outnumber four times its longest live
// window, the most its capacity can reach, so it compacted.
func TestStreamTypedWindowDifferential(t *testing.T) {
	nan1, nan2 := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000002)
	keys := []struct {
		sym storage.Value
		lvl []float64 // the lvl of successive tuples (cycled); nil for NULL
	}{
		{storage.NewString("A"), []float64{1.5}},
		{storage.NewString("A"), []float64{math.Copysign(0, -1)}},
		{storage.NewString("A"), []float64{0}},
		{storage.NewString("B"), []float64{1.5}},
		{storage.NewString("B"), []float64{nan1, nan1, nan2}},
		{storage.NewString("A"), nil},
		{storage.Null, []float64{1.5}},
		{storage.Null, nil},
		{storage.NewString("NULL"), []float64{1.5}},
	}
	const perCluster = 400
	r := rand.New(rand.NewSource(45))
	var feed []storage.Row // round-robin by day
	clusters := make([][]storage.Row, len(keys))
	for c, k := range keys {
		px := 100.0
		for i := 0; i < perCluster; i++ {
			// Falls run long now and then, so the star's window grows.
			if i%97 < 40 {
				px *= 1 - 0.02*r.Float64()
			} else {
				px *= 1 + 0.05*(r.Float64()-0.45)
			}
			row := storage.Row{k.sym, storage.Null, storage.NewDateDays(int64(i / 2)),
				storage.NewInt(int64(r.Intn(40) - 5)), storage.NewFloat(px),
				storage.NewBool(r.Intn(3) == 0), storage.NewString(fmt.Sprintf("n%d", r.Intn(6)))}
			if k.lvl != nil {
				row[1] = storage.NewFloat(k.lvl[i%len(k.lvl)])
			}
			for col := 3; col < len(row); col++ {
				if r.Intn(23) == 0 {
					row[col] = storage.Null
				}
			}
			// Some values arrive as the other numeric type: Push and
			// Insert coerce them alike.
			if i%31 == 7 {
				row[4] = storage.NewInt(int64(px))
			}
			clusters[c] = append(clusters[c], row)
		}
	}
	for i := 0; i < perCluster; i++ {
		for c := range clusters {
			feed = append(feed, clusters[c][i])
		}
	}

	db := New()
	db.MustExec(`CREATE TABLE feed (sym VARCHAR(8), lvl REAL, day DATE, qty INTEGER, px REAL, up BOOLEAN, note VARCHAR(4))`)
	for _, row := range feed {
		db.Table("feed").MustInsert(row...)
	}
	// rowBytes renders a row value for value: its type, then a REAL's
	// bits or any other value's text. A stream emits a match as soon as
	// it completes, so SELECT reads no tuple past the match (where a
	// stream reads NULL and batch the next tuple): next steps from X only.
	rowBytes := func(row storage.Row) string {
		var b []byte
		for _, v := range row {
			if v.Type() == storage.TypeFloat {
				b = fmt.Appendf(b, "%d:%016x|", v.Type(), math.Float64bits(v.Float()))
			} else {
				b = fmt.Appendf(b, "%d:%s|", v.Type(), v)
			}
		}
		return string(b)
	}
	statements := []string{`
		SELECT X.sym, X.lvl, X.day, X.qty, X.px, X.up, X.note,
		       X.previous.px AS before_px, X.previous.note AS before_note, X.previous.lvl AS before_lvl,
		       X.next.day AS after_day, X.next.up AS after_up, X.next.sym AS after_sym,
		       FIRST(Y).qty AS y_qty, LAST(Y).note AS y_note, LAST(Y).lvl AS y_lvl,
		       SUM(Y.qty) AS qty_sum, AVG(Y.px) AS px_avg, MIN(Y.note) AS note_min,
		       MAX(Y.day) AS day_max, MIN(Y.lvl) AS lvl_min, COUNT(Y) AS n
		FROM feed CLUSTER BY sym, lvl SEQUENCE BY day AS (X, *Y, Z)
		WHERE X.px >= X.previous.px
		  AND Y.px < Y.previous.px
		  AND Z.px > Z.previous.px
		  AND Z.px < 1.5 * X.px
		  AND (Z.up = TRUE OR Z.qty * Z.px > 500 OR Z.previous.note = 'n1')`, `
		SELECT X.sym, X.lvl, Z.day, Z.qty, Z.note, Z.up, Z.px,
		       Z.previous.qty AS before_qty, X.next.px AS after_px, X.next.sym AS after_sym,
		       LAST(Y).qty AS y_qty, MAX(Y.note) AS note_max, SUM(Y.px) AS px_sum
		FROM feed CLUSTER BY sym, lvl SEQUENCE BY day AS (X, *Y, Z)
		WHERE X.sym <> 'Q' AND X.day >= '1970-01-05'
		  AND Y.px < Y.previous.px AND Y.note <> 'n9'
		  AND Z.qty > Z.previous.qty AND Z.lvl < 100 AND Z.qty <= X.qty + 30`,
	}
	for si, sql := range statements {
		q, err := db.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		for _, overlap := range []bool{false, true} {
			label := fmt.Sprintf("statement %d, overlap %v", si+1, overlap)
			res, err := q.RunWith(RunOptions{Overlap: overlap})
			if err != nil {
				t.Fatal(err)
			}
			var want, got []string
			for _, row := range res.Rows {
				want = append(want, rowBytes(row))
			}
			st, err := q.OpenStream(StreamOptions{Overlap: overlap}, func(row storage.Row) error {
				got = append(got, rowBytes(row))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			peak := make([]int, st.arena.Len()+len(keys))
			for i, row := range feed {
				if err := st.Push(row...); err != nil {
					t.Fatalf("%s: push %d: %v", label, i, err)
				}
				peak[st.cur] = max(peak[st.cur], st.arena.BufferLen(st.cur))
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if n := st.arena.Len(); n != len(keys) {
				t.Fatalf("%s: %d clusters, want %d", label, n, len(keys))
			}
			slices.Sort(want)
			slices.Sort(got)
			if len(want) == 0 || !slices.Equal(want, got) {
				t.Fatalf("%s: stream %d rows, batch %d, or they differ\nstream: %.300q\nbatch:  %.300q", label, len(got), len(want), got, want)
			}
			s, b := st.Stats(), res.Stats
			if s.PredEvals != b.PredEvals || s.Rollbacks != b.Rollbacks || s.Matches != b.Matches {
				t.Errorf("%s: stream %d pred-evals, %d rollbacks, %d matches; batch %d, %d, %d",
					label, s.PredEvals, s.Rollbacks, s.Matches, b.PredEvals, b.Rollbacks, b.Matches)
			}
			longest := slices.Max(peak)
			if longest <= 16 || perCluster <= 4*(longest+1) {
				t.Errorf("%s: the longest live window held %d tuples: the windows must grow past 16 slots and compact", label, longest)
			}
		}
	}
}
