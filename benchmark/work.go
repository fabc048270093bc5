package main

// The seven workloads and the end-to-end surface they drive. Everything
// here goes through the library's stable serving API only — sqlts.New,
// RegisterTable, DeclarePositive, Exec, Prepare, Query, RunWith,
// Stream/Push/Close and exported Result fields — with product defaults
// (no SetShards, no Parallel, no GOGC or GOMAXPROCS override), so a
// later PR that changes a default is measured, not bypassed.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"sqlts"
	"sqlts/internal/storage"
)

// workload is one named input set plus the operation run against it.
type workload struct {
	name string
	why  string
	// clients is the closed-loop client count: every client waits for
	// its reply before sending the next operation.
	clients func() int
	gen     func(seed int64) *inputs
	// setup builds a fresh instance from generated inputs: table build,
	// registration, Prepare and one warm-up operation. It is what
	// setup_s times.
	setup func(in *inputs) (instance, error)
	// countedOps is the fixed operation count of the counted phase, the
	// one that yields the exactly repeatable metrics.
	countedOps int
	// planHit/partHit are the cache outcomes every operation must
	// report; a run off these values fails.
	planHit, partHit bool
}

// instance is one set-up database driven by one workload.
type instance interface {
	// op runs operation k and returns the time spent inside library
	// calls, the predicate evaluations it reported, and whether its
	// result verified. Untimed preparation and checking happen outside
	// the returned duration.
	op(k int) (d time.Duration, predEvals int64, ok bool)
	// reference reports what one operation must produce, established
	// untimed against the naive executor on the same table state.
	reference() (*reference, error)
	// newRound prepares the instance for a timed round (untimed).
	newRound() error
	// check verifies, untimed and outside any allocation count, whatever
	// op could not afford to: it runs after every phase.
	check() error
	close() error
}

// reference is the verified outcome of a workload's reference
// operation: the warm-up query on the initial table (one whole pass for
// stream_many).
type reference struct {
	Matches    int    `json:"matches"`
	PredEvals  int64  `json:"pred_evals"`
	NaiveEvals int64  `json:"naive_pred_evals"`
	RowsSHA256 string `json:"rows_sha256"`
}

func oneClient() int { return 1 }

// satClients is min(nproc, 4), and at least 2 so the workload differs
// from warm_many on a one-core box.
func satClients() int { return max(2, min(runtime.NumCPU(), 4)) }

var workloads = []*workload{
	{
		name: "warm_long", clients: oneClient, countedOps: 300, planHit: true, partHit: true,
		why:   "one 6,300-row cluster, plan and partition cached: the engine search loop is most of the op (pins 11,972 pred-evals at seed 1)",
		gen:   genLong,
		setup: newQueryInstance,
	},
	{
		name: "warm_tiny", clients: oneClient, countedOps: 5000, planHit: true, partHit: true,
		why:   "the paper's 15-row Figure 5 sequence, ~5 us per op: the serving envelope and observation are the cost, search is not (pins 21 pred-evals)",
		gen:   genTiny,
		setup: newQueryInstance,
	},
	{
		name: "warm_many", clients: oneClient, countedOps: 12, planHit: true, partHit: true,
		why:   "20,000 ten-row clusters, one client: per-cluster driver cost and result assembly with a core idle",
		gen:   func(seed int64) *inputs { return genMany(seed, "quote", 20000, 10).seal() },
		setup: newQueryInstance,
	},
	{
		name: "warm_many_sat", clients: satClients, countedOps: 12, planHit: true, partHit: true,
		why:   "the warm_many database at min(nproc,4) clients: shared atomics, GC pressure, and fan-out that must not cost at saturation",
		gen:   func(seed int64) *inputs { return genMany(seed, "quote", 20000, 10).seal() },
		setup: newQueryInstance,
	},
	{
		name: "cold_plan", clients: oneClient, countedOps: 320, planHit: false, partHit: true,
		why:   "every op is a never-seen statement text over the warm_long table: parse, analyze, implication closure, kernel compile, projection and mask build; search is a small share",
		gen:   genCold,
		setup: newQueryInstance,
	},
	{
		name: "ingest_many", clients: oneClient, countedOps: 12, planHit: true, partHit: false,
		why:   "an 8-row INSERT then the query over 5,000 clusters: every op invalidates the partition, so sort, projection and mask rebuild are paid beside the read",
		gen:   genIngest,
		setup: newIngestInstance,
	},
	{
		name: "stream_many", clients: oneClient, countedOps: streamBatches * 3 / 2, planHit: true, partHit: false,
		why:   "2,000 symbols pushed round-robin through Stream.Push, 1,000 rows per op: the streaming path shares kernels with batch but not the driver or caches",
		gen:   genStream,
		setup: newStreamInstance,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// --- shared helpers ------------------------------------------------------

func quoteSchema(clustered bool) *storage.Schema {
	cols := []storage.Column{
		{Name: "date", Type: storage.TypeDate},
		{Name: "price", Type: storage.TypeFloat},
	}
	if clustered {
		cols = append([]storage.Column{{Name: "name", Type: storage.TypeString}}, cols...)
	}
	return storage.MustSchema(cols...)
}

func (r genRow) values(clustered bool) storage.Row {
	if clustered {
		return storage.Row{storage.NewString(r.name), storage.NewDateDays(r.day), storage.NewFloat(r.price)}
	}
	return storage.Row{storage.NewDateDays(r.day), storage.NewFloat(r.price)}
}

// buildTable loads the generated rows into a fresh table in insertion
// order.
func buildTable(in *inputs) (*storage.Table, error) {
	t := storage.NewTable(in.table, quoteSchema(in.clustered))
	staged := make([]storage.Row, len(in.rows))
	for i, r := range in.rows {
		staged[i] = r.values(in.clustered)
	}
	if err := t.InsertBatch(staged); err != nil {
		return nil, fmt.Errorf("load %s: %w", in.table, err)
	}
	return t, nil
}

// served is a table registered in a DB with one statement prepared: what
// the three batch instances share, and what the layer probes reach for.
type served struct {
	db  *sqlts.DB
	t   *storage.Table
	sql string
}

func (s *served) base() *served { return s }

// serve builds the table, opens a DB over it, prepares the base
// statement and runs it once (the warm-up op).
func serve(in *inputs) (*served, *sqlts.Result, error) {
	t, err := buildTable(in)
	if err != nil {
		return nil, nil, err
	}
	db, err := openDB(t)
	if err != nil {
		return nil, nil, err
	}
	if _, err := db.Prepare(in.sql); err != nil {
		return nil, nil, err
	}
	warm, err := db.Query(in.sql)
	if err != nil {
		return nil, nil, err
	}
	return &served{db: db, t: t, sql: in.sql}, warm, nil
}

// openDB registers the table with product defaults.
func openDB(t *storage.Table) (*sqlts.DB, error) {
	db := sqlts.New()
	db.RegisterTable(t)
	if err := db.DeclarePositive(t.Name, "price"); err != nil {
		return nil, err
	}
	return db, nil
}

// hashRows fingerprints result rows; sorted ignores their order (a
// stream emits in arrival order, a batch query in cluster order).
func hashRows(rows []storage.Row, sorted bool) string {
	lines := make([]string, len(rows))
	var b strings.Builder
	for i, row := range rows {
		b.Reset()
		for j, v := range row {
			if j > 0 {
				b.WriteByte('|')
			}
			b.WriteString(v.String())
		}
		lines[i] = b.String()
	}
	if sorted {
		sort.Strings(lines)
	}
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// naiveReference runs sql untimed through the naive executor with the
// partition cache bypassed, on a separate DB over the same table, so
// the measured DB's statement statistics never see a naive run.
func naiveReference(t *storage.Table, sql string) (*sqlts.Result, error) {
	db, err := openDB(t)
	if err != nil {
		return nil, err
	}
	q, err := db.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return q.RunWith(sqlts.RunOptions{Executor: sqlts.NaiveExec, NoCache: true})
}

// checkAgainstNaive compares an OPS result with the naive reference on
// the same table state.
func checkAgainstNaive(t *storage.Table, sql string, got *sqlts.Result) (*reference, error) {
	want, err := naiveReference(t, sql)
	if err != nil {
		return nil, fmt.Errorf("naive reference: %w", err)
	}
	ref := &reference{
		Matches:    len(got.Rows),
		PredEvals:  got.Stats.PredEvals,
		NaiveEvals: want.Stats.PredEvals,
		RowsSHA256: hashRows(got.Rows, false),
	}
	if wantHash := hashRows(want.Rows, false); wantHash != ref.RowsSHA256 {
		return nil, fmt.Errorf("rows differ from the naive executor's: %d rows %s, want %d rows %s",
			len(got.Rows), ref.RowsSHA256[:12], len(want.Rows), wantHash[:12])
	}
	if ref.PredEvals > ref.NaiveEvals {
		return nil, fmt.Errorf("OPS cost %d pred-evals, naive %d", ref.PredEvals, ref.NaiveEvals)
	}
	return ref, nil
}

// --- warm_long, warm_tiny, warm_many, warm_many_sat, cold_plan ------------

// queryInstance runs one statement against an unchanging table: the same
// text every time (warm), or — when the inputs carry variants — a
// never-seen text of it on every op (cold_plan).
type queryInstance struct {
	*served
	variant func(k int) string
	warm    *sqlts.Result
	ref     *reference
}

func newQueryInstance(in *inputs) (instance, error) {
	s, warm, err := serve(in)
	if err != nil {
		return nil, err
	}
	return &queryInstance{served: s, variant: in.variant, warm: warm}, nil
}

func (q *queryInstance) reference() (*reference, error) {
	ref, err := checkAgainstNaive(q.t, q.sql, q.warm)
	q.ref = ref
	return ref, err
}

// statement returns op k's text and whether its plan must be cached.
func (q *queryInstance) statement(k int) (sql string, planHit bool) {
	if q.variant != nil {
		return q.variant(k), false
	}
	return q.sql, true
}

func (q *queryInstance) op(k int) (time.Duration, int64, bool) {
	sql, planHit := q.statement(k)
	t0 := time.Now()
	res, err := q.db.Query(sql)
	d := time.Since(t0)
	if err != nil {
		return d, 0, false
	}
	ok := len(res.Rows) == q.ref.Matches && res.Stats.PredEvals == q.ref.PredEvals &&
		res.PlanCached() == planHit && res.PartitionCached()
	return d, res.Stats.PredEvals, ok
}

// newRound gives cold_plan a fresh DB with the partition already cached
// (one run of the base statement), so that every op misses the plan
// cache only and the live heap a round sees does not depend on how many
// statements earlier rounds compiled. Warm workloads keep their DB.
func (q *queryInstance) newRound() error {
	if q.variant == nil {
		return nil
	}
	db, err := openDB(q.t)
	if err != nil {
		return err
	}
	if _, err := db.Query(q.sql); err != nil {
		return err
	}
	q.db = db
	return nil
}

func (q *queryInstance) check() error { return nil }
func (q *queryInstance) close() error { return nil }

// --- ingest_many ---------------------------------------------------------

// ingestInstance writes beside reads: one 8-row INSERT, then the query,
// which finds its plan cached and its partition invalidated.
type ingestInstance struct {
	*served
	deal *insertDealer
	last *sqlts.Result // the latest op's result, on the table as it stands
}

func newIngestInstance(in *inputs) (instance, error) {
	s, warm, err := serve(in)
	if err != nil {
		return nil, err
	}
	return &ingestInstance{served: s, deal: newInsertDealer(in), last: warm}, nil
}

func (g *ingestInstance) reference() (*reference, error) {
	return checkAgainstNaive(g.t, g.sql, g.last)
}

func (g *ingestInstance) op(int) (time.Duration, int64, bool) {
	insert, _ := g.deal.next()
	t0 := time.Now()
	err := g.db.Exec(insert)
	var res *sqlts.Result
	if err == nil {
		res, err = g.db.Query(g.sql)
	}
	d := time.Since(t0)
	if err != nil {
		return d, 0, false
	}
	// The table moves under every op, so an op checks its path only; its
	// rows are compared with the naive executor's by check.
	g.last = res
	return d, res.Stats.PredEvals, res.PlanCached() && !res.PartitionCached()
}

// check compares the latest op's rows with the naive executor's on the
// same table state.
func (g *ingestInstance) check() error {
	_, err := checkAgainstNaive(g.t, g.sql, g.last)
	return err
}

func (g *ingestInstance) newRound() error { return nil }
func (g *ingestInstance) close() error    { return nil }

// --- stream_many ---------------------------------------------------------

const (
	streamBatch   = 1000 // Stream.Push calls per op
	streamBatches = 200  // ops per pass: 2,000 symbols × 100 rows
)

// streamInstance pushes the feed through one continuous query per pass:
// db.Stream opens on a pass's first batch, Close flushes on its last,
// and both are inside the batch's time.
type streamInstance struct {
	in      *inputs
	db      *sqlts.DB
	vals    [][]storage.Value // arrival order
	st      *sqlts.Stream
	matches int
	ref     *reference
}

func newStreamInstance(in *inputs) (instance, error) {
	if len(in.rows) != streamBatch*streamBatches {
		return nil, fmt.Errorf("stream feed has %d rows, want %d", len(in.rows), streamBatch*streamBatches)
	}
	// The table only gives the statement a schema to compile against;
	// tuples arrive through Push.
	db, err := openDB(storage.NewTable(in.table, quoteSchema(true)))
	if err != nil {
		return nil, err
	}
	if _, err := db.Prepare(in.sql); err != nil {
		return nil, err
	}
	s := &streamInstance{in: in, db: db, vals: make([][]storage.Value, len(in.rows))}
	for i, r := range in.rows {
		s.vals[i] = r.values(true)
	}
	// Warm-up op: the first batch of a pass that is then abandoned.
	if _, _, ok := s.pushBatch(0); !ok {
		return nil, fmt.Errorf("stream warm-up batch failed")
	}
	return s, s.abandon()
}

func (s *streamInstance) abandon() error {
	if s.st == nil {
		return nil
	}
	err := s.st.Close()
	s.st, s.matches = nil, 0
	return err
}

// pushBatch pushes batch b of the pass in progress. On the pass's last
// batch it closes the stream and returns the pass's totals.
func (s *streamInstance) pushBatch(b int) (d time.Duration, pass *reference, ok bool) {
	t0 := time.Now()
	if b == 0 {
		st, err := s.db.Stream(s.in.sql, sqlts.StreamOptions{}, func(storage.Row) error {
			s.matches++
			return nil
		})
		if err != nil {
			return time.Since(t0), nil, false
		}
		s.st = st
	}
	for _, v := range s.vals[b*streamBatch : (b+1)*streamBatch] {
		if err := s.st.Push(v...); err != nil {
			return time.Since(t0), nil, false
		}
	}
	if b < streamBatches-1 {
		return time.Since(t0), nil, true
	}
	err := s.st.Close()
	d = time.Since(t0)
	pass = &reference{Matches: s.matches, PredEvals: s.st.Stats().PredEvals}
	s.st, s.matches = nil, 0
	return d, pass, err == nil
}

// reference runs one whole pass untimed and compares its rows, as a
// set, with a naive batch query over a table holding the same tuples.
func (s *streamInstance) reference() (*reference, error) {
	var rows []storage.Row
	st, err := s.db.Stream(s.in.sql, sqlts.StreamOptions{}, func(r storage.Row) error {
		rows = append(rows, r.Clone())
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, v := range s.vals {
		if err := st.Push(v...); err != nil {
			return nil, err
		}
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	t, err := buildTable(s.in)
	if err != nil {
		return nil, err
	}
	want, err := naiveReference(t, s.in.sql)
	if err != nil {
		return nil, fmt.Errorf("naive reference: %w", err)
	}
	ref := &reference{
		Matches:    len(rows),
		PredEvals:  st.Stats().PredEvals,
		NaiveEvals: want.Stats.PredEvals,
		RowsSHA256: hashRows(rows, true),
	}
	if wantHash := hashRows(want.Rows, true); wantHash != ref.RowsSHA256 {
		return nil, fmt.Errorf("stream rows differ from the naive batch query's: %d rows, want %d", len(rows), len(want.Rows))
	}
	if ref.PredEvals > ref.NaiveEvals {
		return nil, fmt.Errorf("stream cost %d pred-evals, naive batch %d", ref.PredEvals, ref.NaiveEvals)
	}
	s.ref = ref
	return ref, nil
}

// op pushes the next batch. A batch reports the pass's predicate
// evaluations spread evenly over its batches, so pred_evals_per_op does
// not depend on where a phase stops.
func (s *streamInstance) op(k int) (time.Duration, int64, bool) {
	d, pass, ok := s.pushBatch(k % streamBatches)
	if pass != nil {
		ok = ok && pass.Matches == s.ref.Matches && pass.PredEvals == s.ref.PredEvals
	}
	return d, s.ref.PredEvals / streamBatches, ok
}

// newRound restarts at a pass boundary so every round pushes the same
// tuples in the same stream state.
func (s *streamInstance) newRound() error { return s.abandon() }
func (s *streamInstance) check() error    { return nil }
func (s *streamInstance) close() error    { return s.abandon() }
