package sqlts

// The sharded partition cache (PR 9): SetShards(n) with n ≥ 2 makes
// pattern queries read their clusters from internal/shard — each table
// partition is hash-split into n shards with per-shard versions, sorted
// cluster slabs, and memoized masks, so an insert re-sorts
// only the shard it lands in while every other shard (and its warm
// memos) is carried over pointer-identical. The clusters reach the same
// cluster driver (driver.go) in the same global order as the flat
// cache's, so rows, Stats, and pred-evals are bit-identical.

import (
	"container/list"
	"sort"

	"sqlts/internal/pattern"
	"sqlts/internal/shard"
	"sqlts/internal/storage"
)

// SetShards configures the sharded partition cache: with n ≥ 2, pattern
// queries hash-partition each table's clusters into n shards (cached per
// (table, clusterBy, sequenceBy) like the flat partition cache, but
// refreshed per shard — an insert rebuilds only the shards its rows land
// in) and search them in global cluster order. Results, statistics, and
// predicate-evaluation counts are identical to the flat cache's.
// n ≤ 1 restores the flat cache and drops cached shard partitions.
// Runs with NoCache bypass both caches.
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

// globalOrder lays sp's clusters out in global cluster order — the shape
// the cluster driver takes — together with kernel k's memoized mask sets
// (k is nil on the interpreter path, which reads none). The first use of k
// on a shard builds its memo here, on the query goroutine inside execute's
// containment.
func globalOrder(sp *shard.Partition, k *pattern.Kernel) (clusters [][]storage.Row, masks []*pattern.MaskSet) {
	n := sp.NumClusters()
	clusters = make([][]storage.Row, n)
	if k != nil {
		masks = make([]*pattern.MaskSet, n)
	}
	for _, s := range sp.Shards() {
		ms := s.Memo(k)
		for i, c := range s.Clusters() {
			clusters[c.Global] = c.Rows
			if ms != nil {
				masks[c.Global] = ms[i]
			}
		}
	}
	return clusters, masks
}

// ShardStat describes one shard of a cached sharded partition.
type ShardStat struct {
	ID int `json:"id"`
	// Version counts the shard's rebuilds: an unchanged version across
	// refreshes proves the shard (and its memoized masks)
	// was carried over, not rebuilt.
	Version  uint64 `json:"version"`
	Clusters int    `json:"clusters"`
	Rows     int    `json:"rows"`
	// Kernels is the number of kernels with memoized masks on this
	// shard: one per pattern, whatever number of plans share it.
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
