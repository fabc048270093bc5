package sqlts

// The concurrent serving path: one immutable compiled Plan shared by
// every goroutine that issues the same SQL, plus two DB-level caches
// that amortize the paper's compile-time work (GSW implication queries,
// θ/φ matrices, shift/next tables, predicate kernels) and the O(n log n)
// CLUSTER BY / SEQUENCE BY sort across repeated executions:
//
//   - planCache: LRU keyed by whitespace-normalized SQL text, validated
//     against the DB catalog version (DDL, table registration and
//     positive-domain declarations invalidate plans; inserts do not).
//   - partitionCache: LRU keyed by (table, clusterBy, sequenceBy),
//     validated against storage.Table's monotonic data version. Inserts
//     bump the version, so the next query refreshes the entry: only the
//     clusters the appended rows land in are re-sorted, and only their
//     projections and masks rebuilt; in-flight queries keep reading the
//     old immutable generation (copy-on-write per cluster).

import (
	"container/list"
	"fmt"
	"slices"
	"strings"
	"sync"

	"sqlts/internal/pattern"
	"sqlts/internal/storage"
)

// normalizeSQL is the plan-cache (and statement-stats) key function: it
// collapses runs of whitespace to single spaces, trims the ends, and
// case-folds ASCII letters, so formatting and case variants of one
// query share a cache entry (the language resolves keywords, table and
// column names case-insensitively). Quoted strings pass through
// untouched — 'INTC' and 'intc' are different values. No parsing
// happens here — on a cache hit the whole parse/analyze/optimize
// pipeline is skipped.
func normalizeSQL(sql string) string {
	var b strings.Builder
	b.Grow(len(sql))
	inQuote := false
	space := false
	for i := 0; i < len(sql); i++ {
		c := sql[i]
		if inQuote {
			b.WriteByte(c)
			if c == '\'' {
				inQuote = false
			}
			continue
		}
		switch c {
		case ' ', '\t', '\n', '\r', '\f', '\v':
			space = true
		case '\'':
			if space && b.Len() > 0 {
				b.WriteByte(' ')
			}
			space = false
			inQuote = true
			b.WriteByte(c)
		default:
			if space && b.Len() > 0 {
				b.WriteByte(' ')
			}
			space = false
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			b.WriteByte(c)
		}
	}
	return b.String()
}

// planCache is an LRU of compiled plans keyed by normalized SQL.
// Entries carry the catalog version they were compiled under; get
// treats a version mismatch as a miss and evicts the stale entry.
// onEvict is told of every plan that leaves the cache, after it left.
type planCache struct {
	capacity int
	order    *list.List // front = most recently used
	entries  map[string]*list.Element
	onEvict  func(*Plan)
}

type planEntry struct {
	key  string
	plan *Plan
}

func newPlanCache(capacity int, onEvict func(*Plan)) *planCache {
	return &planCache{capacity: capacity, order: list.New(), entries: map[string]*list.Element{}, onEvict: onEvict}
}

// get returns the cached plan for key when its catalog version still
// matches, promoting it to most recently used. Callers hold db.cacheMu.
func (c *planCache) get(key string, catalog uint64) *Plan {
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	e := el.Value.(*planEntry)
	if e.plan.catalogVersion != catalog {
		c.remove(el)
		return nil
	}
	c.order.MoveToFront(el)
	return e.plan
}

func (c *planCache) put(key string, p *Plan) {
	if c.capacity <= 0 {
		return
	}
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*planEntry)
		old := e.plan
		e.plan = p
		c.order.MoveToFront(el)
		c.onEvict(old)
		return
	}
	c.entries[key] = c.order.PushFront(&planEntry{key: key, plan: p})
	c.trim(c.capacity)
}

func (c *planCache) remove(el *list.Element) {
	e := c.order.Remove(el).(*planEntry)
	delete(c.entries, e.key)
	c.onEvict(e.plan)
}

// trim evicts least-recently-used plans until at most n remain.
func (c *planCache) trim(n int) {
	for c.order.Len() > max(n, 0) {
		c.remove(c.order.Back())
	}
}

// partitionCache is an LRU of clustered partitions keyed by
// (table, clusterBy, sequenceBy). Each entry pins the exact *Table it
// was built from and that table's data version, so a replaced table
// (RegisterTable/LoadCSV under the same name) or any Insert makes it
// stale. A stale entry over the same table is the base the next query
// refreshes from. Entries are immutable generations shared read-only by
// every execution that holds one.
type partitionCache struct {
	capacity int
	order    *list.List
	entries  map[string]*list.Element
}

type partitionEntry struct {
	key string
	*storage.Clustering

	// memo holds, per kernel, what the search reads of every cluster,
	// built lazily on the first execution of each plan over this partition:
	// selection bitmasks, and columnar projections where a probe needs one.
	// Both are pure functions of the (immutable) cluster rows, so sharing
	// them is observationally identical to rebuilding; it removes the
	// O(rows) decode and mask build from every warm run. A refreshed entry
	// adopts its predecessor's memos and rebuilds only the clusters that
	// changed, on the kernel's next use.
	mu   sync.Mutex
	memo map[*pattern.Kernel]*kernelMemo
}

// kernelMemo is one kernel's per-cluster state over a partition. Its
// slices are handed to running queries and shared with the generation the
// memo was adopted from, so they are replaced, never written, once set.
// Which of them a memo holds is its kernel's (memoWants), from the first
// use on.
type kernelMemo struct {
	// projs is nil for a kernel whose masks answer every element: its
	// search never reads a projection.
	projs []*storage.Projection
	// masks (PR 8) collapse every probe of a mask-covered element to a bit
	// test; nil for a kernel with no mask-compiled element.
	masks []*pattern.MaskSet
	// built is the number of clusters projs and masks cover (whichever are
	// held); stale lists the ones among them whose rows changed since.
	built int
	stale []int
}

// memoFor returns k's shared read-only state for a run over it (k nil:
// the interpreter, which reads none): the projections and mask sets
// memoWants(k) names, one per cluster, nil for the other. A first use
// builds them in one pass of the kernel's run builder; after a refresh
// only the stale and the new clusters are rebuilt, each stale one as a
// run of its own.
func (e *partitionEntry) memoFor(k *pattern.Kernel) (projs []*storage.Projection, masks []*pattern.MaskSet) {
	wantProjs, wantMasks := memoWants(k)
	if !wantProjs && !wantMasks {
		return nil, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	m := e.memo[k]
	if m == nil {
		m = &kernelMemo{}
		if e.memo == nil {
			e.memo = map[*pattern.Kernel]*kernelMemo{}
		}
		e.memo[k] = m
	}
	n := len(e.Groups)
	if m.projs == nil && m.masks == nil || len(m.stale) > 0 || m.built < n {
		// Build a new memo, or bring an old one up to date into copies: the
		// old arrays belong to running queries and to the previous
		// generation.
		if wantProjs {
			m.projs = append(make([]*storage.Projection, 0, n), m.projs...)[:n]
		}
		if wantMasks {
			m.masks = append(make([]*pattern.MaskSet, 0, n), m.masks...)[:n]
		}
		// A cluster re-sorted by several refreshes is listed once per
		// refresh; one added after the memo was built is part of the new run.
		stale := slices.Clone(m.stale) // adopt may have left it shared with the predecessor's
		slices.Sort(stale)
		for _, ci := range slices.Compact(stale) {
			if ci < m.built {
				k.BuildRun(e.Groups, ci, ci+1, m.projs, m.masks)
			}
		}
		k.BuildRun(e.Groups, m.built, n, m.projs, m.masks)
		m.built, m.stale = n, nil
	}
	return m.projs, m.masks
}

// memoWants is the shape of kernel k's memo (nil: the interpreter, which
// has none): masks when any element is mask-compiled, and projections
// unless those masks answer every element — then no probe reads one.
func memoWants(k *pattern.Kernel) (projs, masks bool) {
	if k == nil {
		return false, false
	}
	return !k.AllPure(), k.VecElems() > 0
}

// adopt seeds e, the refresh of old, with old's memos, marking the
// clusters the refresh re-sorted as stale in each. Only kernels that can
// run again are kept: those of cached plans, and keep, the kernel of the
// run that triggered the refresh (a long-lived Query handle's plan may
// have left the plan cache). A memo with more stale marks than clusters
// is cheaper to rebuild than to carry. Callers hold db.cacheMu, so no
// plan is evicted between this selection and e entering the cache.
func (e *partitionEntry) adopt(old *partitionEntry, resorted []int, plans *planCache, keep *pattern.Kernel) {
	old.mu.Lock()
	defer old.mu.Unlock()
	if len(old.memo) == 0 {
		return
	}
	e.memo = map[*pattern.Kernel]*kernelMemo{}
	carry := func(k *pattern.Kernel) {
		m := old.memo[k]
		if m == nil || e.memo[k] != nil || len(m.stale)+len(resorted) > len(e.Groups) {
			return
		}
		stale := append(m.stale[:len(m.stale):len(m.stale)], resorted...)
		e.memo[k] = &kernelMemo{projs: m.projs, masks: m.masks, built: m.built, stale: stale}
	}
	carry(keep)
	for el := plans.order.Front(); el != nil; el = el.Next() {
		carry(el.Value.(*planEntry).plan.kernel)
	}
}

// forget drops k's memo.
func (e *partitionEntry) forget(k *pattern.Kernel) {
	e.mu.Lock()
	delete(e.memo, k)
	e.mu.Unlock()
}

// forgetKernel is the plan cache's eviction hook: the evicted plan's
// kernel leaves every cached partition's memo. A kernel belongs to exactly
// one plan for that plan's life (a plan is compiled once and never
// re-derived), so once the plan leaves the cache only long-lived Query
// handles can run the kernel again, and they rebuild what they read.
// Without this the memos, which survive inserts, would grow with every
// statement text ever compiled. Runs under db.cacheMu.
func (db *DB) forgetKernel(p *Plan) {
	if p.kernel == nil {
		return
	}
	for el := db.parts.order.Front(); el != nil; el = el.Next() {
		el.Value.(*partitionEntry).forget(p.kernel)
	}
}

func newPartitionCache(capacity int) *partitionCache {
	return &partitionCache{capacity: capacity, order: list.New(), entries: map[string]*list.Element{}}
}

// partitionKey identifies one clustering of one table. Column names are
// lower-cased (resolution is case-insensitive) so spelling variants of
// the same clustering share an entry.
func partitionKey(table string, clusterBy, sequenceBy []string) string {
	var b strings.Builder
	b.WriteString(strings.ToLower(table))
	for _, c := range clusterBy {
		b.WriteByte(0)
		b.WriteString(strings.ToLower(c))
	}
	b.WriteByte(1)
	for _, s := range sequenceBy {
		b.WriteByte(0)
		b.WriteString(strings.ToLower(s))
	}
	return b.String()
}

// get returns the entry stored under key, current or stale, promoting
// it. Callers hold db.cacheMu.
func (c *partitionCache) get(key string) *partitionEntry {
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.order.MoveToFront(el)
	return el.Value.(*partitionEntry)
}

// replace stores e where the caller found old (nil: found nothing) and
// reports whether it took a stale entry's place — an invalidation rather
// than a cold miss. When a concurrent run got there first the cache keeps
// that run's entry and e serves its own run only.
func (c *partitionCache) replace(old, e *partitionEntry) (invalidated bool) {
	if c.capacity <= 0 {
		return false
	}
	if el, ok := c.entries[e.key]; ok {
		if el.Value.(*partitionEntry) != old {
			return false
		}
		el.Value = e
		c.order.MoveToFront(el)
		return true
	}
	c.entries[e.key] = c.order.PushFront(e)
	c.trim(c.capacity)
	return false
}

// trim evicts least-recently-used partitions until at most n remain.
func (c *partitionCache) trim(n int) {
	for c.order.Len() > max(n, 0) {
		e := c.order.Remove(c.order.Back()).(*partitionEntry)
		delete(c.entries, e.key)
	}
}

// Default cache capacities; tune with SetPlanCacheCapacity and
// SetPartitionCacheCapacity.
const (
	defaultPlanCacheCapacity      = 256
	defaultPartitionCacheCapacity = 64
)

// CacheStats is a point-in-time snapshot of the serving caches, for
// dashboards and the REPL's \cache command. Hit/miss counters are
// cumulative since the DB was created (they mirror the
// sqlts_plan_cache_* and sqlts_partition_cache_* metric families).
type CacheStats struct {
	PlanHits     int64
	PlanMisses   int64
	PlanEntries  int
	PlanCapacity int

	PartitionHits          int64
	PartitionMisses        int64
	PartitionInvalidations int64
	PartitionEntries       int
	PartitionCapacity      int
}

// CacheStats snapshots the plan- and partition-cache state.
func (db *DB) CacheStats() CacheStats {
	db.cacheMu.Lock()
	defer db.cacheMu.Unlock()
	m := db.metrics
	return CacheStats{
		PlanHits:     m.planCacheHits.Value(),
		PlanMisses:   m.planCacheMisses.Value(),
		PlanEntries:  db.plans.order.Len(),
		PlanCapacity: db.plans.capacity,

		PartitionHits:          m.partitionCacheHits.Value(),
		PartitionMisses:        m.partitionCacheMisses.Value(),
		PartitionInvalidations: m.partitionCacheInvalidations.Value(),
		PartitionEntries:       db.parts.order.Len(),
		PartitionCapacity:      db.parts.capacity,
	}
}

// SetPlanCacheCapacity resizes the plan cache (entries beyond the new
// capacity are dropped oldest-first); 0 disables plan caching entirely.
func (db *DB) SetPlanCacheCapacity(n int) {
	db.cacheMu.Lock()
	defer db.cacheMu.Unlock()
	db.plans.capacity = n
	db.plans.trim(n)
}

// SetPartitionCacheCapacity resizes the partition cache (and the
// sharded-partition cache, which shares the capacity); 0 disables
// partition caching entirely.
func (db *DB) SetPartitionCacheCapacity(n int) {
	db.cacheMu.Lock()
	defer db.cacheMu.Unlock()
	db.parts.capacity = n
	db.shardParts.resize(n)
	db.parts.trim(n)
}

// PurgeCaches empties both serving caches (capacities are kept). Useful
// for cold-path measurements and tests; production code never needs it
// — versioning invalidates precisely.
func (db *DB) PurgeCaches() {
	db.cacheMu.Lock()
	defer db.cacheMu.Unlock()
	db.parts.trim(0)
	db.plans.trim(0)
	db.shardParts.purge()
}

// lookupPlan consults the plan cache. A hit returns a Plan that is
// still valid under the current catalog version.
func (db *DB) lookupPlan(key string) *Plan {
	catalog := db.catalog.Load()
	db.cacheMu.Lock()
	p := db.plans.get(key, catalog)
	db.cacheMu.Unlock()
	if p != nil {
		db.metrics.planCacheHits.Inc()
	} else {
		db.metrics.planCacheMisses.Inc()
	}
	return p
}

func (db *DB) storePlan(key string, p *Plan) {
	db.cacheMu.Lock()
	db.plans.put(key, p)
	db.cacheMu.Unlock()
}

// partitionOutcome says how a run came by its partition.
type partitionOutcome struct {
	cached bool
	// refreshed: derived from the stale cached generation by re-sorting
	// or adding dirty of its clusters. Not a hit — rows were sorted.
	refreshed       bool
	dirty, clusters int32
}

func (o partitionOutcome) String() string {
	if o.refreshed {
		return fmt.Sprintf("refreshed (%d of %d clusters)", o.dirty, o.clusters)
	}
	return cachedWord(o.cached)
}

// partition returns the clustered partition of t for the plan's
// clusterBy/sequenceBy, serving it from the cache when the table version
// still matches. A stale entry over the same table is refreshed —
// storage.Clustering.Refresh re-sorts only the clusters the appended rows
// land in — and its memos carried over (k is the asking run's kernel; see
// adopt); anything else is built from the empty clustering. Either way it
// counts as a miss, and as an invalidation when it replaces the stale
// entry. The entry's clusters (and any projections built from them) are
// shared and must be treated as read-only. A bypass run builds a transient
// entry that is never stored, so it shares nothing.
func (db *DB) partition(t *storage.Table, clusterBy, sequenceBy []string, k *pattern.Kernel, bypass bool) (*partitionEntry, partitionOutcome, error) {
	var out partitionOutcome
	var old *partitionEntry
	var key string
	if !bypass {
		key = partitionKey(t.Name, clusterBy, sequenceBy)
		db.cacheMu.Lock()
		old = db.parts.get(key)
		db.cacheMu.Unlock()
		if old != nil && old.Table() == t && old.Version == t.Version() {
			db.metrics.partitionCacheHits.Inc()
			out.cached = true
			return old, out, nil
		}
		db.metrics.partitionCacheMisses.Inc()
	}
	e := &partitionEntry{key: key}
	var resorted []int
	if old != nil && old.Table() == t {
		// An error here (the table shrank, or the appended rows do not
		// sort) leaves the full build below to succeed or to report it.
		if c, rs, err := old.Refresh(); err == nil {
			e.Clustering, resorted = c, rs
			out.refreshed = true
			out.dirty = int32(len(rs) + len(c.Groups) - len(old.Groups))
			out.clusters = int32(len(c.Groups))
		}
	}
	if e.Clustering == nil {
		c, err := t.NewClustering(clusterBy, sequenceBy)
		if err != nil {
			return nil, out, err
		}
		if e.Clustering, _, err = c.Refresh(); err != nil {
			return nil, out, err
		}
	}
	if bypass {
		return e, out, nil
	}
	db.cacheMu.Lock()
	if out.refreshed {
		e.adopt(old, resorted, db.plans, k)
	}
	invalidated := db.parts.replace(old, e)
	db.cacheMu.Unlock()
	if invalidated {
		db.metrics.partitionCacheInvalidations.Inc()
	}
	if out.refreshed {
		db.metrics.partitionCacheRefreshes.Inc()
	}
	return e, out, nil
}
