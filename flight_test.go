package sqlts

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"sqlts/internal/engine"
	"sqlts/internal/fault"
	"sqlts/internal/obs"
	"sqlts/internal/testutil"
	"sqlts/internal/workload"
)

// TestFlightRegistryLifecycle checks the basics end to end: a run
// registers, its wide event lands in the ring, and the registry drains
// to empty afterward.
func TestFlightRegistryLifecycle(t *testing.T) {
	db := quoteDB(t)
	insertSeries(t, db, "INTC", 10000, 60, 70, 55, 40, 80, 92, 70)
	if len(db.ActiveQueries()) != 0 {
		t.Fatal("fresh DB reports in-flight queries")
	}
	res, err := db.Query(introspectSQL1)
	if err != nil {
		t.Fatal(err)
	}
	if len(db.ActiveQueries()) != 0 {
		t.Fatal("registry not drained after a completed run")
	}
	events := db.RecentEvents()
	if len(events) != 1 {
		t.Fatalf("ring holds %d events, want 1", len(events))
	}
	ev := events[0]
	if ev.QueryID == 0 || ev.Error != "" || ev.ErrorKind != "" {
		t.Errorf("event wrong: %+v", ev)
	}
	if ev.Rows != int64(len(res.Rows)) || ev.PredEvals != res.Stats.PredEvals {
		t.Errorf("event counters (rows=%d pred-evals=%d) disagree with the Result (%d, %d)",
			ev.Rows, ev.PredEvals, len(res.Rows), res.Stats.PredEvals)
	}

	// Recorder off: no registration, no ring append; results unchanged.
	db.SetFlightRecorder(false)
	res2, err := db.Query(introspectSQL1)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.PredEvals != res.Stats.PredEvals {
		t.Errorf("recorder toggle changed pred-evals: %d vs %d", res2.Stats.PredEvals, res.Stats.PredEvals)
	}
	if n := len(db.RecentEvents()); n != 1 {
		t.Errorf("ring grew to %d with the recorder off", n)
	}
	db.SetFlightRecorder(true)

	// A pluggable sink receives JSON-lines events.
	var buf strings.Builder
	var mu sync.Mutex
	sink := obs.NewWriterSink(lockedWriter{&mu, &buf})
	db.SetEventSink(sink)
	if _, err := db.Query(introspectSQL1); err != nil {
		t.Fatal(err)
	}
	if sink.Count() != 1 {
		t.Fatalf("sink received %d events, want 1", sink.Count())
	}
	var parsed obs.Event
	mu.Lock()
	line := buf.String()
	mu.Unlock()
	if err := json.Unmarshal([]byte(line), &parsed); err != nil {
		t.Fatalf("sink output is not JSON lines: %v\n%s", err, line)
	}
	if parsed.SQL == "" || parsed.DurationNs <= 0 {
		t.Errorf("sink event incomplete: %s", line)
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestFlightProgressMonotonic walks one serial multi-cluster run and
// snapshots the flight at every cluster boundary: clusters-done must
// never decrease, stay below the total mid-run, and equal the total
// once the run succeeds.
func TestFlightProgressMonotonic(t *testing.T) {
	defer fault.Reset()
	db, q := cancelDB(t, 8, 300)

	var fl *obs.Flight
	var snaps []obs.FlightSnapshot
	if err := fault.Arm("sqlts.execute.cluster", fault.Action{Fn: func() error {
		if fl == nil {
			for _, s := range db.ActiveQueries() {
				fl = db.flight.flights.Get(s.ID)
			}
		}
		if fl != nil {
			snaps = append(snaps, fl.Snapshot())
		}
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := q.RunWith(RunOptions{MaxWorkers: 1}); err != nil {
		t.Fatal(err)
	}
	fault.Reset()
	if fl == nil {
		t.Fatal("no flight observed during the run")
	}
	if len(snaps) != 8 {
		t.Fatalf("observed %d cluster boundaries, want 8", len(snaps))
	}
	for i, s := range snaps {
		// The fault point fires before cluster i's search, after
		// clusters 0..i-1 ticked: the serial path's progress is exact.
		if s.ClustersDone != int64(i) {
			t.Errorf("boundary %d: clusters_done = %d, want %d", i, s.ClustersDone, i)
		}
		if s.ClustersTotal != 8 {
			t.Errorf("boundary %d: clusters_total = %d, want 8", i, s.ClustersTotal)
		}
		if i > 0 && s.ClustersDone < snaps[i-1].ClustersDone {
			t.Errorf("boundary %d: clusters_done decreased (%d after %d)", i, s.ClustersDone, snaps[i-1].ClustersDone)
		}
		if s.RowsScanned > 8*300 {
			t.Errorf("boundary %d: rows_scanned %d exceeds the table", i, s.RowsScanned)
		}
	}
	// The retained *Flight outlives deregistration: on success every
	// cluster ticked.
	final := fl.Snapshot()
	if final.ClustersDone != final.ClustersTotal || final.ClustersDone != 8 {
		t.Errorf("final progress %d/%d, want 8/8", final.ClustersDone, final.ClustersTotal)
	}
	if final.RowsScanned != 8*300 {
		t.Errorf("final rows_scanned = %d, want %d", final.RowsScanned, 8*300)
	}
	if len(db.ActiveQueries()) != 0 {
		t.Error("registry not drained after the run")
	}
}

// TestFlightKillHTTP is the end-to-end kill round-trip: a four-worker
// query is held in flight at a fault point, surfaced via GET
// /debug/queries, killed via POST, and the run must return ErrKilled
// (wrapping ErrCanceled) carrying the endpoint's annotation.
func TestFlightKillHTTP(t *testing.T) {
	defer fault.Reset()
	defer testutil.LeakCheck(t)()
	db, q := cancelDB(t, 12, 200)

	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	if err := fault.Arm("sqlts.execute.cluster", fault.Action{Fn: func() error {
		once.Do(func() { close(started) })
		<-release
		return nil
	}}); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(db.DebugHandler())
	defer srv.Close()

	errc := make(chan error, 1)
	go func() {
		_, err := q.RunWith(RunOptions{MaxWorkers: 4})
		errc <- err
	}()
	<-started

	// The flight is visible while the workers hold.
	resp, err := http.Get(srv.URL + "/debug/queries")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Queries []obs.FlightSnapshot `json:"queries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Queries) != 1 {
		t.Fatalf("GET /debug/queries listed %d queries, want 1", len(list.Queries))
	}
	snap := list.Queries[0]
	if snap.Phase != "running" || snap.ClustersTotal != 12 {
		t.Errorf("snapshot wrong: phase=%s clusters_total=%d", snap.Phase, snap.ClustersTotal)
	}

	// The text rendering carries the progress bar.
	resp, err = http.Get(srv.URL + "/debug/queries?format=text")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(text), "clusters [") {
		t.Errorf("text rendering missing the progress bar:\n%s", text)
	}

	// Kill it.
	resp, err = http.PostForm(srv.URL+"/debug/queries", url.Values{"id": {fmt.Sprint(snap.ID)}})
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST kill returned %d: %s", resp.StatusCode, body)
	}
	close(release)

	runErr := <-errc
	if !errors.Is(runErr, ErrKilled) || !errors.Is(runErr, ErrCanceled) {
		t.Fatalf("killed run error = %v; want ErrKilled wrapping ErrCanceled", runErr)
	}
	if !strings.Contains(runErr.Error(), "killed via /debug/queries") {
		t.Errorf("kill annotation missing from error: %v", runErr)
	}

	// The statement-stats error split lands the kill in its own bucket.
	var found bool
	for _, s := range db.StatementStats() {
		if s.Killed == 1 && s.Canceled == 0 {
			found = true
		}
	}
	if !found {
		t.Error("statement stats did not record killed=1 canceled=0")
	}

	// The failure's wide event carries the kill's error kind.
	var killedEv bool
	for _, ev := range db.RecentEvents() {
		if ev.ErrorKind == "killed" && strings.Contains(ev.Error, "killed via /debug/queries") {
			killedEv = true
		}
	}
	if !killedEv {
		t.Error("no wide event with error_kind=killed in the ring")
	}

	// A kill for a finished (or unknown) id is a 404.
	resp, err = http.PostForm(srv.URL+"/debug/queries", url.Values{"id": {fmt.Sprint(snap.ID)}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("kill of a finished query returned %d, want 404", resp.StatusCode)
	}
	if resp, err = http.PostForm(srv.URL+"/debug/queries", url.Values{"id": {"zzz"}}); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("malformed kill id returned %d, want 400", resp.StatusCode)
		}
	}
}

// TestFlightRaceKill hammers the registry from all sides under the race
// detector: 8 query goroutines, a concurrent inserter moving the table
// version, and a killer sniping whatever is in flight. Every run must
// finish with either success or a typed kill error, and the registry
// must drain.
func TestFlightRaceKill(t *testing.T) {
	defer testutil.LeakCheck(t)()
	db := quoteDB(t)
	for s := 0; s < 16; s++ {
		name := fmt.Sprintf("R%02d", s)
		prices := workload.GeometricWalk(workload.WalkConfig{
			Seed: int64(s + 1), N: 400, Start: 50, Drift: 0, Vol: 0.02,
		})
		insertSeries(t, db, name, 10000, prices...)
	}
	q, err := db.Prepare(`
		SELECT X.name FROM quote
		  CLUSTER BY name
		  SEQUENCE BY date
		  AS (X, *Y, Z)
		WHERE X.price >= X.previous.price
		  AND Y.price < 0.99 * Y.previous.price
		  AND Z.price > Z.previous.price`)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := q.RunWith(RunOptions{MaxWorkers: 4})
				if err != nil && !errors.Is(err, ErrKilled) {
					t.Errorf("run failed with a non-kill error: %v", err)
					return
				}
			}
		}()
	}
	// Inserter: moves the table version so partitions rebuild mid-storm.
	wg.Add(1)
	go func() {
		defer wg.Done()
		tbl := db.Table("quote")
		day := 20000
		for {
			select {
			case <-stop:
				return
			default:
			}
			insertSeries(t, db, "R00", day, 50, 51)
			_ = tbl
			day += 2
			time.Sleep(200 * time.Microsecond)
		}
	}()
	// Killer: snipes whatever is currently in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, s := range db.ActiveQueries() {
				_ = db.KillQuery(s.ID, "race-test kill")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()

	if n := len(db.ActiveQueries()); n != 0 {
		t.Errorf("registry holds %d flights after the storm", n)
	}
}

// TestFlightProgressSmallClusters: on clusters far smaller than the tick
// flush (1,000 of four rows against engine.TickRows) the live progress is
// batched, not lost. At every cluster boundary the snapshot is monotone,
// never ahead of the clusters actually finished, never more than the
// flush threshold of rows behind them, and exact once the run is over —
// also when the run fails mid-chunk and unwinds.
func TestFlightProgressSmallClusters(t *testing.T) {
	defer fault.Reset()
	const clusters, rows = 1000, 4
	db := New()
	db.RegisterTable(workload.ClusterWalks("quote", 9, clusters, rows, 0))
	q, err := db.Prepare(driverSQL)
	if err != nil {
		t.Fatal(err)
	}

	boom := errors.New("injected at a cluster boundary")
	for _, failAt := range []int{-1, 0, 1, 613} {
		var fl *obs.Flight
		var snaps []obs.FlightSnapshot
		if err := fault.Arm("sqlts.execute.cluster", fault.Action{Fn: func() error {
			if fl == nil {
				for _, s := range db.ActiveQueries() {
					fl = db.flight.flights.Get(s.ID)
				}
			}
			snaps = append(snaps, fl.Snapshot())
			if len(snaps)-1 == failAt {
				return boom
			}
			return nil
		}}); err != nil {
			t.Fatal(err)
		}
		_, err := q.RunWith(RunOptions{})
		fault.Reset()
		done := clusters // clusters finished when the run ended
		if failAt >= 0 {
			done = failAt
			if !errors.Is(err, boom) {
				t.Fatalf("fail at %d: run returned %v", failAt, err)
			}
		} else if err != nil {
			t.Fatal(err)
		}
		if len(snaps) != min(done+1, clusters) {
			t.Fatalf("fail at %d: observed %d cluster boundaries", failAt, len(snaps))
		}
		for i, s := range snaps {
			// The boundary before cluster i: exactly i clusters are finished.
			if s.ClustersDone > int64(i) || s.RowsScanned > int64(i*rows) {
				t.Fatalf("boundary %d: progress %d clusters, %d rows is ahead of the truth", i, s.ClustersDone, s.RowsScanned)
			}
			if behind := int64(i*rows) - s.RowsScanned; behind >= engine.TickRows {
				t.Fatalf("boundary %d: rows_scanned %d trails by %d rows, flush threshold %d", i, s.RowsScanned, behind, engine.TickRows)
			}
			if s.RowsScanned != s.ClustersDone*rows {
				t.Fatalf("boundary %d: %d clusters but %d rows ticked", i, s.ClustersDone, s.RowsScanned)
			}
			if i > 0 && (s.ClustersDone < snaps[i-1].ClustersDone || s.Matches < snaps[i-1].Matches) {
				t.Fatalf("boundary %d: progress went backwards", i)
			}
		}
		final := fl.Snapshot()
		if final.ClustersDone != int64(done) || final.RowsScanned != int64(done*rows) || final.ClustersTotal != clusters {
			t.Errorf("fail at %d: final progress %d/%d clusters, %d rows; want %d clusters, %d rows",
				failAt, final.ClustersDone, final.ClustersTotal, final.RowsScanned, done, done*rows)
		}
	}
	if len(db.ActiveQueries()) != 0 {
		t.Error("registry not drained after the runs")
	}
}
