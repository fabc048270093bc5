package sqlts_test

// Tests for the sharded partition cache (PR 9): results must be
// bit-identical to the flat cache's across executors and options,
// including the paper's pred-evals metric; an insert must invalidate
// only the shard it lands in; and the cache must stay correct under
// concurrent readers and an inserter.

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"sqlts"
	"sqlts/internal/storage"
	"sqlts/internal/workload"
	"sqlts/ta"
)

// shardQuoteDB builds a quote DB with n geometric-walk symbols (every
// fifth one carrying a planted double bottom) and returns it with the
// shared table, so a second DB can serve the identical data unsharded.
func shardQuoteDB(t testing.TB, n int) (*sqlts.DB, *storage.Table) {
	t.Helper()
	tbl := workload.ClusterWalks("quote", 11, n, 30, 5)
	db := sqlts.New()
	db.RegisterTable(tbl)
	if err := db.DeclarePositive("quote", "price"); err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

// referenceDB registers the same table in a fresh unsharded DB.
func referenceDB(t testing.TB, tbl *storage.Table) *sqlts.DB {
	t.Helper()
	db := sqlts.New()
	db.RegisterTable(tbl)
	if err := db.DeclarePositive("quote", "price"); err != nil {
		t.Fatal(err)
	}
	return db
}

const shardTestSQL = `
	SELECT X.name, FIRST(Y).date, COUNT(Y) AS days
	FROM quote
	  CLUSTER BY name
	  SEQUENCE BY date
	  AS (X, *Y, Z)
	WHERE X.price >= X.previous.price
	  AND Y.price < 0.99 * Y.previous.price
	  AND Z.price > Z.previous.price`

// mustRun executes sql with opts and fails the test on error.
func mustRun(t testing.TB, db *sqlts.DB, sql string, opts sqlts.RunOptions) *sqlts.Result {
	t.Helper()
	q, err := db.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.RunWith(opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameResult asserts two results agree on rows, matches, and the
// paper's counters.
func sameResult(t testing.TB, label string, want, got *sqlts.Result) {
	t.Helper()
	if !reflect.DeepEqual(want.Rows, got.Rows) {
		t.Fatalf("%s: rows differ (%d vs %d)", label, len(want.Rows), len(got.Rows))
	}
	if want.Stats != got.Stats {
		t.Fatalf("%s: stats differ: %+v vs %+v", label, want.Stats, got.Stats)
	}
	if !reflect.DeepEqual(want.Matches, got.Matches) {
		t.Fatalf("%s: cluster matches differ", label)
	}
	if !reflect.DeepEqual(want.ClusterStats(), got.ClusterStats()) {
		t.Fatalf("%s: per-cluster stats differ", label)
	}
}

// TestShardedMatchesSerial: the sharded path must be bit-identical to
// serial and parallel execution — rows in the same order, identical
// Stats, identical per-cluster breakdown — across shard counts.
func TestShardedMatchesSerial(t *testing.T) {
	db, tbl := shardQuoteDB(t, 60)
	serial := mustRun(t, db, shardTestSQL, sqlts.RunOptions{})
	if len(serial.Rows) == 0 {
		t.Fatal("workload produced no matches; adjust parameters")
	}
	parallel := mustRun(t, db, shardTestSQL, sqlts.RunOptions{MaxWorkers: 4})
	sameResult(t, "parallel", serial, parallel)

	for _, nshards := range []int{2, 3, 8, 64} {
		sdb := referenceDB(t, tbl)
		sdb.SetShards(nshards)
		sharded := mustRun(t, sdb, shardTestSQL, sqlts.RunOptions{})
		sameResult(t, fmt.Sprintf("sharded(%d)", nshards), serial, sharded)
		if sharded.Shards() != nshards {
			t.Fatalf("res.Shards() = %d, want %d", sharded.Shards(), nshards)
		}
		// Warm repeat: cached shard partition, same bits.
		warm := mustRun(t, sdb, shardTestSQL, sqlts.RunOptions{})
		sameResult(t, fmt.Sprintf("sharded(%d) warm", nshards), serial, warm)
		if !warm.PartitionCached() {
			t.Fatalf("nshards=%d: warm run missed the shard cache", nshards)
		}
	}
}

// TestShardedOptionVariants crosses the sharded path with the execution
// options that change how clusters are searched — each variant must
// match its own unsharded counterpart exactly.
func TestShardedOptionVariants(t *testing.T) {
	db, tbl := shardQuoteDB(t, 40)
	sdb := referenceDB(t, tbl)
	sdb.SetShards(4)
	for _, tc := range []struct {
		name string
		opts sqlts.RunOptions
	}{
		{"overlap", sqlts.RunOptions{Overlap: true}},
		{"naive", sqlts.RunOptions{Executor: sqlts.NaiveExec}},
		{"maxworkers1", sqlts.RunOptions{MaxWorkers: 1}},
		{"maxworkers3", sqlts.RunOptions{MaxWorkers: 3}},
	} {
		want := mustRun(t, db, shardTestSQL, tc.opts)
		got := mustRun(t, sdb, shardTestSQL, tc.opts)
		sameResult(t, tc.name, want, got)
	}
}

// TestShardedBypasses: a NoCache run bypasses the sharded cache like the
// flat one; a one-worker run is an ordinary run over it. Both produce
// identical results.
func TestShardedBypasses(t *testing.T) {
	db, tbl := shardQuoteDB(t, 20)
	sdb := referenceDB(t, tbl)
	sdb.SetShards(4)
	want := mustRun(t, db, shardTestSQL, sqlts.RunOptions{})
	for _, tc := range []struct {
		name   string
		opts   sqlts.RunOptions
		shards int
	}{
		{"nocache", sqlts.RunOptions{NoCache: true}, 0},
		{"one worker", sqlts.RunOptions{MaxWorkers: 1}, 4},
	} {
		got := mustRun(t, sdb, shardTestSQL, tc.opts)
		if got.Shards() != tc.shards {
			t.Fatalf("%s: res.Shards() = %d, want %d", tc.name, got.Shards(), tc.shards)
		}
		sameResult(t, tc.name, want, got)
	}
}

// TestShardedPredEvalsPin pins the paper's cost metric on the §7
// double-bottom corpus: at any worker count, and over the sharded cache,
// the run reports exactly 11,972 predicate evaluations.
func TestShardedPredEvalsPin(t *testing.T) {
	const pinnedPredEvals = 11972
	prices := workload.DJIA25Years(1)
	for i := 0; i < 12; i++ {
		workload.PlantDoubleBottom(prices, 1+(i+1)*len(prices)/13)
	}
	tbl := workload.SeriesTable("djia", 2557, prices)
	sql := ta.DoubleBottom("djia", 0.02)

	db := sqlts.New()
	db.RegisterTable(tbl)
	if err := db.DeclarePositive("djia", "price"); err != nil {
		t.Fatal(err)
	}
	serial := mustRun(t, db, sql, sqlts.RunOptions{})
	for _, workers := range []int{1, 2, 3, 8} {
		if got := mustRun(t, db, sql, sqlts.RunOptions{MaxWorkers: workers}); got.Stats.PredEvals != pinnedPredEvals {
			t.Fatalf("%d workers: pred-evals = %d, want %d", workers, got.Stats.PredEvals, pinnedPredEvals)
		}
	}
	sdb := sqlts.New()
	sdb.RegisterTable(tbl)
	if err := sdb.DeclarePositive("djia", "price"); err != nil {
		t.Fatal(err)
	}
	sdb.SetShards(8)
	sharded := mustRun(t, sdb, sql, sqlts.RunOptions{})
	if sharded.Stats.PredEvals != pinnedPredEvals {
		t.Fatalf("sharded pred-evals = %d, want %d", sharded.Stats.PredEvals, pinnedPredEvals)
	}
	sameResult(t, "double-bottom", serial, sharded)
}

// TestShardedInsertInvalidatesOneShard pins the tentpole's invalidation
// contract: an insert into one cluster rebuilds exactly the shard that
// cluster hashes to; every other shard keeps its version (and with it
// its memoized projections and masks).
func TestShardedInsertInvalidatesOneShard(t *testing.T) {
	db, _ := shardQuoteDB(t, 40)
	db.SetShards(4)
	if _, err := db.Query(shardTestSQL); err != nil {
		t.Fatal(err)
	}
	infos := db.ShardInfo()
	if len(infos) != 1 || infos[0].Shards != 4 {
		t.Fatalf("ShardInfo = %+v, want one 4-shard partition", infos)
	}
	for _, s := range infos[0].PerShard {
		if s.Version != 1 {
			t.Fatalf("shard %d version %d before any insert", s.ID, s.Version)
		}
	}

	// One row into an existing symbol's cluster.
	tbl := db.Table("quote")
	tbl.MustInsert(storage.NewString("s05"), storage.NewDateDays(10_000), storage.NewFloat(101))
	res, err := db.Query(shardTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.PartitionCached() {
		t.Fatal("post-insert run reported a partition cache hit")
	}
	infos = db.ShardInfo()
	rebuilt := 0
	for _, s := range infos[0].PerShard {
		switch s.Version {
		case 1:
		case 2:
			rebuilt++
		default:
			t.Fatalf("shard %d at version %d after one insert", s.ID, s.Version)
		}
	}
	if rebuilt != 1 {
		t.Fatalf("%d shards rebuilt after a single-cluster insert, want 1", rebuilt)
	}
	if infos[0].Version != tbl.Version() {
		t.Fatalf("partition at table version %d, table at %d", infos[0].Version, tbl.Version())
	}

	// The refreshed generation serves warm again.
	res, err = db.Query(shardTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PartitionCached() {
		t.Fatal("second post-insert run missed the shard cache")
	}
}

// TestShardedStress: eight readers hammer the sharded path while an
// inserter appends rows into existing and new clusters. No read may
// fail; every read must be internally consistent; and once the inserter
// quiesces, the sharded result must be bit-identical to an unsharded
// reference DB serving the same table.
func TestShardedStress(t *testing.T) {
	db, tbl := shardQuoteDB(t, 32)
	db.SetShards(8)
	ref := referenceDB(t, tbl)

	const readers = 8
	const readsEach = 25
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < readsEach; i++ {
				res, err := db.Query(shardTestSQL)
				if err != nil {
					errs <- err
					return
				}
				// Each match projects exactly one output row here.
				if res.Stats.Matches != len(res.Rows) {
					errs <- fmt.Errorf("read saw %d matches but %d rows", res.Stats.Matches, len(res.Rows))
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 120; i++ {
			name := fmt.Sprintf("s%03d", i%40) // mostly existing, some new clusters
			if err := tbl.Insert(
				storage.NewString(name),
				storage.NewDateDays(int64(20_000+i)),
				storage.NewFloat(90+float64(i%13)),
			); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	want := mustRun(t, ref, shardTestSQL, sqlts.RunOptions{})
	got := mustRun(t, db, shardTestSQL, sqlts.RunOptions{})
	sameResult(t, "post-quiesce", want, got)
}

// TestDebugShardsSurface: /debug/shards reports the configured shard
// count and the cached partitions' per-shard breakdown.
func TestDebugShardsSurface(t *testing.T) {
	db, _ := shardQuoteDB(t, 12)
	db.SetShards(3)
	if _, err := db.Query(shardTestSQL); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	db.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/shards", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /debug/shards: %d", rec.Code)
	}
	var body struct {
		Configured int                        `json:"configured_shards"`
		Partitions []sqlts.ShardPartitionInfo `json:"partitions"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Configured != 3 {
		t.Fatalf("configured_shards = %d, want 3", body.Configured)
	}
	if len(body.Partitions) != 1 || body.Partitions[0].Table != "quote" {
		t.Fatalf("partitions = %+v, want the quote table", body.Partitions)
	}
	p := body.Partitions[0]
	if p.Shards != 3 || len(p.PerShard) != 3 || p.Clusters != 12 {
		t.Fatalf("partition = %+v, want 3 shards over 12 clusters", p)
	}
}

// TestSetShardsOffDropsCache: disabling sharding purges the shard
// partitions and routes back to the flat cache.
func TestSetShardsOffDropsCache(t *testing.T) {
	db, _ := shardQuoteDB(t, 10)
	db.SetShards(4)
	if _, err := db.Query(shardTestSQL); err != nil {
		t.Fatal(err)
	}
	if len(db.ShardInfo()) != 1 {
		t.Fatal("no cached shard partition after a sharded query")
	}
	db.SetShards(0)
	if got := len(db.ShardInfo()); got != 0 {
		t.Fatalf("%d shard partitions cached after SetShards(0)", got)
	}
	res, err := db.Query(shardTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards() != 0 {
		t.Fatalf("res.Shards() = %d after SetShards(0)", res.Shards())
	}
}
