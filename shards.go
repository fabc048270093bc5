package sqlts

// The shard-parallel serving path (PR 9): SetShards(n) with n ≥ 2 routes
// pattern queries through internal/shard — each table partition is
// hash-split into n shards with per-shard versions, sorted cluster
// slabs, and memoized projections/masks, so an insert re-sorts only the
// shard it lands in while every other shard (and its warm memos) is
// carried over pointer-identical. Queries scatter to per-shard worker
// pools and stream-merge per-cluster results in global cluster order;
// rows, Stats, and pred-evals are bit-identical to the serial path.

import (
	"container/list"
	"runtime/debug"
	"sort"

	"sqlts/internal/engine"
	"sqlts/internal/obs"
	"sqlts/internal/pattern"
	"sqlts/internal/shard"
	"sqlts/internal/storage"
)

// shardResultBuffer bounds each runner's in-flight cluster results
// during a scatter (the channel between a runner and the gatherer), so
// a fast shard cannot buffer an unbounded result backlog while the
// merge waits on a slow one.
const shardResultBuffer = 16

// SetShards configures the shard-parallel execution path: with n ≥ 2,
// pattern queries hash-partition each table's clusters into n shards
// (cached per (table, clusterBy, sequenceBy) like the flat partition
// cache, but refreshed incrementally — an insert rebuilds only the
// shards its rows land in) and execute scatter-gather across them.
// Results, statistics, and predicate-evaluation counts are identical to
// the unsharded path; RunOptions.MaxWorkers bounds the fan-out.
// n ≤ 1 restores the unsharded path and drops cached shard partitions.
// Runs with NoCache or Trace always use the unsharded path.
func (db *DB) SetShards(n int) {
	if n < 0 {
		n = 0
	}
	db.nshards.Store(int64(n))
	db.metrics.shardsConfigured.Set(int64(n))
	if n <= 1 {
		db.cacheMu.Lock()
		db.shardParts.purge()
		db.cacheMu.Unlock()
	}
}

// Shards returns the configured shard count (0 or 1 = unsharded).
func (db *DB) Shards() int { return int(db.nshards.Load()) }

// shardCache is an LRU of sharded table partitions keyed like the flat
// partition cache. As there, a stale entry is not discarded: it is the
// base for an incremental Refresh, here one that rebuilds only the shards
// the appended rows touched.
type shardCache struct {
	capacity int
	order    *list.List
	entries  map[string]*list.Element
}

type shardEntry struct {
	key   string
	table *storage.Table
	part  *shard.Partition
}

func newShardCache(capacity int) *shardCache {
	return &shardCache{capacity: capacity, order: list.New(), entries: map[string]*list.Element{}}
}

// get returns the entry for key when it was built from this exact table
// (any version — staleness is the caller's refresh signal), promoting
// it. Callers hold db.cacheMu.
func (c *shardCache) get(key string, t *storage.Table) *shardEntry {
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	e := el.Value.(*shardEntry)
	if e.table != t {
		return nil // table replaced under the same name; rebuild
	}
	c.order.MoveToFront(el)
	return e
}

func (c *shardCache) put(e *shardEntry) {
	if c.capacity <= 0 {
		return
	}
	if el, ok := c.entries[e.key]; ok {
		el.Value = e
		c.order.MoveToFront(el)
		return
	}
	c.entries[e.key] = c.order.PushFront(e)
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*shardEntry).key)
	}
}

func (c *shardCache) resize(n int) {
	c.capacity = n
	if n <= 0 {
		c.purge()
		return
	}
	for c.order.Len() > n {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*shardEntry).key)
	}
}

func (c *shardCache) purge() {
	c.order.Init()
	c.entries = map[string]*list.Element{}
}

// shardedPartition returns the sharded partition of t for the plan's
// clustering, served from the shard cache when the table version still
// matches. On a version mismatch it refreshes the cached generation
// incrementally — only shards the appended rows landed in are rebuilt;
// in-flight queries keep the old generation (copy-on-invalidate stays
// per-shard). A missing entry, a replaced table, or a shard-count
// change builds from scratch.
func (db *DB) shardedPartition(t *storage.Table, clusterBy, sequenceBy []string, nshards int) (*shard.Partition, bool, error) {
	key := partitionKey(t.Name, clusterBy, sequenceBy)
	db.cacheMu.Lock()
	var base *shard.Partition
	if e := db.shardParts.get(key, t); e != nil && e.part.NumShards() == nshards {
		base = e.part
	}
	db.cacheMu.Unlock()
	if base != nil && base.Version() == t.Version() {
		db.metrics.shardCacheHits.Inc()
		return base, true, nil
	}
	db.metrics.shardCacheMisses.Inc()
	rows, version := t.Snapshot()
	if base != nil {
		if np, stats, ok := base.Refresh(rows, version); ok {
			db.metrics.shardRefreshes.Inc()
			db.metrics.shardShardsRebuilt.Add(int64(stats.Dirty))
			db.metrics.shardShardsReused.Add(int64(stats.Shards - stats.Dirty))
			db.storeShardPartition(key, t, np)
			return np, false, nil
		}
	}
	cidx, err := t.ColumnIndexes(clusterBy)
	if err != nil {
		return nil, false, err
	}
	sidx, err := t.ColumnIndexes(sequenceBy)
	if err != nil {
		return nil, false, err
	}
	p, err := shard.Build(rows, version, cidx, sidx, nshards)
	if err != nil {
		return nil, false, err
	}
	db.metrics.shardBuilds.Inc()
	db.storeShardPartition(key, t, p)
	return p, false, nil
}

func (db *DB) storeShardPartition(key string, t *storage.Table, p *shard.Partition) {
	db.cacheMu.Lock()
	db.shardParts.put(&shardEntry{key: key, table: t, part: p})
	db.cacheMu.Unlock()
}

// clusterSearcher adapts one executor to the shard.Searcher contract:
// per-cluster search, select-clause projection, budget accounting, and
// the same containment boundary as the parallel path — an
// engine.Interrupt unwind becomes its typed error, any other panic a
// *PanicError.
type clusterSearcher struct {
	q  *Query
	rc *runControl
	ex engine.Executor
}

func (s *clusterSearcher) Search(global int, rows []storage.Row, proj *storage.Projection, masks *pattern.MaskSet) (out shard.ClusterResult) {
	defer func() {
		if r := recover(); r != nil {
			if in, ok := r.(engine.Interrupt); ok {
				out.Err = in.Err
				return
			}
			out.Err = &PanicError{Statement: s.q.plan.key, Value: r, Stack: debug.Stack()}
		}
	}()
	if err := faultWorker.Fire(); err != nil {
		out.Err = err
		return
	}
	if err := s.rc.check(); err != nil {
		out.Err = err
		return
	}
	if proj != nil {
		s.ex.UseProjection(proj)
	}
	if masks != nil {
		s.ex.UseMasks(masks)
	}
	ms, stats := s.ex.FindAll(rows)
	out.Matches, out.Stats = ms, stats
	for _, m := range ms {
		row, err := s.q.plan.compiled.EvalSelect(rows, m.Spans)
		if err != nil {
			out.Err = err
			return
		}
		out.Out = append(out.Out, row)
	}
	s.rc.addMatches(stats.Matches)
	return
}

// runSharded is the scatter-gather execution path: partition shards fan
// out to per-group worker pools and per-cluster results stream-merge
// back in global cluster order, so the stitched Result is bit-identical
// to the serial path's. Runs inside execute's containment boundary.
func (q *Query) runSharded(rc *runControl, res *Result, t *storage.Table, opts RunOptions, nshards int) (*Result, int, error) {
	compiled := q.plan.compiled
	sp, cached, err := q.db.shardedPartition(t, compiled.ClusterBy, compiled.SequenceBy, nshards)
	if err != nil {
		return nil, 0, err
	}
	scanned := sp.Rows()
	if err := rc.checkScanned(scanned); err != nil {
		return nil, 0, err
	}
	res.partition.cached = cached
	res.shardCount = sp.NumShards()
	fl := rc.flightRef()
	if fl != nil {
		specs := make([]obs.ShardSpec, 0, sp.NumShards())
		for _, s := range sp.Shards() {
			specs = append(specs, obs.ShardSpec{ID: s.ID(), Clusters: s.NumClusters(), Rows: s.RowCount()})
		}
		fl.SetShards(specs)
		fl.SetClustersTotal(int64(sp.NumClusters()))
	}
	if sp.NumClusters() == 0 {
		return res, scanned, nil
	}
	policy := engine.SkipPastLastRow
	if opts.Overlap {
		policy = engine.SkipToNextRow
	}
	kern := q.plan.kernel
	if opts.NoKernel {
		kern = nil
	}
	// Warm the per-shard memos on this goroutine first: the initial
	// projection/mask build runs inside execute's recover boundary (as it
	// does on the flat path), and the groups' later fetches are pure
	// memo hits.
	if kern != nil && kern.CompiledElems() > 0 {
		for _, s := range sp.Shards() {
			s.Projections(kern)
			if !opts.NoVectorize {
				s.Masks(kern)
			}
		}
	}
	req := &shard.Request{
		SQL:           q.plan.sql,
		Kernel:        kern,
		NoProjections: opts.NoKernel,
		NoMasks:       opts.NoVectorize,
		Buffer:        shardResultBuffer,
		NewSearcher: func(vectorized bool) shard.Searcher {
			ex := q.newExecutor(opts, policy)
			if rc != nil {
				ex.SetInterrupt(rc.interrupt())
			}
			if vectorized {
				ex.SetVectorized(true)
			}
			return &clusterSearcher{q: q, rc: rc, ex: ex}
		},
	}
	if fl != nil {
		req.OnCluster = func(shardID, global int) { fl.ShardDone(shardID) }
	}
	groups := shard.Layout(sp, effectiveWorkers(opts))
	err = shard.Gather(shard.Runners(groups), req, func(cr shard.ClusterResult) error {
		if fl != nil {
			fl.TickClusters(1)
			fl.TickRows(int64(cr.Rows))
			fl.TickMatches(int64(cr.Stats.Matches))
		}
		res.Stats.Add(cr.Stats)
		res.clusterStats = append(res.clusterStats, ClusterStat{Cluster: cr.Global, Rows: cr.Rows, Stats: cr.Stats})
		if len(cr.Matches) > 0 {
			res.Matches = append(res.Matches, ClusterMatches{Cluster: cr.Global, Matches: cr.Matches})
		}
		res.Rows = append(res.Rows, cr.Out...)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	if err := rc.check(); err != nil {
		return nil, 0, err
	}
	// Aggregate the per-shard mask-build stats for the adaptive
	// optimizer. Summing in shard order gives the same totals as the flat
	// path's cluster-order aggregation (the counters are plain sums).
	if kern != nil && !opts.NoVectorize && kern.CompiledElems() > 0 && kern.VecElems() > 0 {
		agg := &pattern.MaskStats{}
		for _, s := range sp.Shards() {
			if s.NumClusters() == 0 {
				continue
			}
			if _, st := s.Masks(kern); st != nil {
				agg.Add(st)
			}
		}
		res.vectorized = true
		res.maskStats = agg
	}
	return res, scanned, nil
}

// ShardStat describes one shard of a cached sharded partition.
type ShardStat struct {
	ID int `json:"id"`
	// Version counts the shard's rebuilds: an unchanged version across
	// refreshes proves the shard (and its memoized projections/masks)
	// was carried over, not rebuilt.
	Version  uint64 `json:"version"`
	Clusters int    `json:"clusters"`
	Rows     int    `json:"rows"`
	// Kernels is the number of plans with memoized projections on this
	// shard.
	Kernels int `json:"kernels"`
}

// ShardPartitionInfo describes one cached sharded table partition, for
// /debug/shards and tests.
type ShardPartitionInfo struct {
	Table    string      `json:"table"`
	Version  uint64      `json:"version"` // table data version reflected
	Shards   int         `json:"shards"`
	Clusters int         `json:"clusters"`
	Rows     int         `json:"rows"`
	PerShard []ShardStat `json:"per_shard"`
}

// ShardInfo snapshots every cached sharded partition, sorted by table
// name. Empty when sharding is off or nothing has executed yet.
func (db *DB) ShardInfo() []ShardPartitionInfo {
	db.cacheMu.Lock()
	parts := make([]*shardEntry, 0, len(db.shardParts.entries))
	for _, el := range db.shardParts.entries {
		parts = append(parts, el.Value.(*shardEntry))
	}
	db.cacheMu.Unlock()
	out := make([]ShardPartitionInfo, 0, len(parts))
	for _, e := range parts {
		info := ShardPartitionInfo{
			Table:    e.table.Name,
			Version:  e.part.Version(),
			Shards:   e.part.NumShards(),
			Clusters: e.part.NumClusters(),
			Rows:     e.part.Rows(),
		}
		for _, s := range e.part.Shards() {
			info.PerShard = append(info.PerShard, ShardStat{
				ID:       s.ID(),
				Version:  s.Version(),
				Clusters: s.NumClusters(),
				Rows:     s.RowCount(),
				Kernels:  s.Kernels(),
			})
		}
		out = append(out, info)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Table < out[b].Table })
	return out
}
