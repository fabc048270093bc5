package sqlts

// The concurrent serving path: one immutable compiled Plan shared by
// every goroutine that issues the same SQL, plus DB-level caches that
// amortize the paper's compile-time work (GSW implication queries, θ/φ
// matrices, shift/next tables, predicate kernels) and the O(n log n)
// CLUSTER BY / SEQUENCE BY sort across repeated executions:
//
//   - planCache: LRU keyed by whitespace-normalized SQL text and by the
//     text its plan was compiled from, so a statement sent again as it
//     was costs one map lookup and only a variant is normalized first;
//     validated against the DB catalog version (DDL, table registration
//     and positive-domain declarations invalidate plans; inserts do not).
//     A plan also keeps what every run would otherwise re-derive: its
//     partition key, and one executor for its one-lane runs (Plan.solo).
//   - patterns: the compiled patterns of the cached plans, keyed by the
//     catalog version and the statement's FROM … WHERE tokens, so a
//     statement text never seen before whose pattern is cached compiles
//     only its SELECT list. It holds no entry of its own: an artifact is
//     in it exactly while a cached plan holds it (holdPattern,
//     forgetKernel).
//   - partitionCache: LRU keyed by (table, clusterBy, sequenceBy),
//     validated against storage.Table's monotonic data version. Inserts
//     bump the version, so the next query refreshes the entry: only the
//     clusters the appended rows land in are re-sorted, and only their
//     masks rebuilt; in-flight queries keep reading the old immutable
//     generation (copy-on-write per cluster).

import (
	"container/list"
	"fmt"
	"slices"
	"strings"
	"sync"

	"sqlts/internal/pattern"
	"sqlts/internal/storage"
)

// normalizeSQL appends the plan-cache (and statement-stats) key of sql to
// dst: runs of whitespace collapse to single spaces, the ends are trimmed,
// and ASCII letters are case-folded, so formatting and case variants of
// one query share a cache entry (the language resolves keywords, table
// and column names case-insensitively). Quoted strings are copied whole —
// 'INTC' and 'intc' are different values — and an unterminated one runs
// to the end. No parsing happens here — on a cache hit the whole
// parse/analyze/optimize pipeline is skipped. The key of a key is itself,
// which is what lets the plan cache hold a statement's own text beside its
// key (planCache).
func normalizeSQL(dst []byte, sql string) []byte {
	// The key is never longer than sql: a space stands for a run of one
	// or more whitespace bytes, and every other byte for itself.
	start := len(dst)
	dst = slices.Grow(dst, len(sql))[:start+len(sql)]
	out := dst[start:]
	n, space := 0, false
	for i := 0; i < len(sql); i++ {
		c := sql[i]
		fold := sqlFold[c]
		if fold == sqlSpace {
			space = true
			continue
		}
		if space && n > 0 {
			out[n] = ' '
			n++
		}
		space = false
		if fold == sqlQuote {
			end := len(sql)
			if j := strings.IndexByte(sql[i+1:], '\''); j >= 0 {
				end = i + j + 2
			}
			n += copy(out[n:], sql[i:end])
			i = end - 1
			continue
		}
		out[n] = byte(fold)
		n++
	}
	return dst[:start+n]
}

// sqlFold is normalizeSQL's byte table: what a byte outside a quoted
// string becomes — itself, or its lower case for an ASCII capital — or
// sqlSpace for the six whitespace bytes and sqlQuote for the quote that
// opens a string.
var sqlFold = func() (t [256]uint16) {
	for c := range t {
		t[c] = uint16(c)
	}
	for c := 'A'; c <= 'Z'; c++ {
		t[c] = uint16(c + 'a' - 'A')
	}
	for _, c := range " \t\n\r\f\v" {
		t[c] = sqlSpace
	}
	t['\''] = sqlQuote
	return t
}()

const (
	sqlSpace = 256 + iota
	sqlQuote
)

// planCache is an LRU of compiled plans keyed by normalized SQL. An entry
// is in the map twice: under its normalized key, and under the text its
// plan was compiled from, so that a statement sent again as it was finds
// its plan without being normalized. The two never name two entries:
// normalizing is idempotent, so a text equal to some entry's key
// normalizes to that key. Entries carry the catalog version they were
// compiled under; get treats a version mismatch as a miss and evicts the
// stale entry. onStore is told of every plan that enters the cache,
// onEvict of every plan that leaves it, after it left.
type planCache struct {
	capacity int
	order    *list.List // front = most recently used
	entries  map[string]*list.Element
	onStore  func(*Plan)
	onEvict  func(*Plan)
}

type planEntry struct {
	key  string // normalized; the entry's other key is plan.sql
	plan *Plan
}

func newPlanCache(capacity int, onStore, onEvict func(*Plan)) *planCache {
	return &planCache{capacity: capacity, order: list.New(), entries: map[string]*list.Element{}, onStore: onStore, onEvict: onEvict}
}

// get returns the plan of el, what the map holds under a normalized key or
// the text an entry's plan was compiled from (nil: nothing), when its
// catalog version still matches, promoting it to most recently used. The
// caller indexes the map itself, so that a key it holds as bytes is not
// copied into a string. Callers hold db.cacheMu.
func (c *planCache) get(el *list.Element, catalog uint64) *Plan {
	if el == nil {
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
		// The entry's text key moves to p's.
		e := el.Value.(*planEntry)
		old := e.plan
		if old.sql != key {
			delete(c.entries, old.sql)
		}
		e.plan = p
		c.entries[p.sql] = el
		c.order.MoveToFront(el)
		// Store before evicting: when old and p share a pattern, it never
		// looks unheld.
		c.onStore(p)
		c.onEvict(old)
		return
	}
	el := c.order.PushFront(&planEntry{key: key, plan: p})
	c.entries[key], c.entries[p.sql] = el, el
	c.onStore(p)
	c.trim(c.capacity)
}

func (c *planCache) remove(el *list.Element) {
	e := c.order.Remove(el).(*planEntry)
	delete(c.entries, e.key)
	delete(c.entries, e.plan.sql)
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

	// memo holds, per pattern, what its kernel reads of every cluster,
	// built lazily on the first execution of a plan of the pattern over
	// this partition: selection bitmasks, which answer every compiled
	// element (the interpreter takes the rest, so no probe reads a
	// projection). They are a pure function of the (immutable) cluster
	// rows, so sharing them is observationally identical to rebuilding; it
	// removes the O(rows) decode and mask build from every warm run and
	// from every new statement text whose pattern is cached. A refreshed
	// entry adopts its predecessor's memos and rebuilds only the clusters
	// that changed, on the pattern's next use.
	mu   sync.Mutex
	memo map[*patternArtifact]*kernelMemo
}

// kernelMemo is one kernel's per-cluster state over a partition. Its
// masks are handed to running queries and shared with the generation the
// memo was adopted from, so they are replaced, never written, once set.
type kernelMemo struct {
	masks []*pattern.MaskSet
	// built is the number of clusters masks covers; stale lists the ones
	// among them whose rows changed since.
	built int
	stale []int
}

// memoFor returns a's kernel's shared read-only mask sets for a run over
// it, one per cluster (a nil: the interpreter, which reads none). A first
// use builds them in one pass of the kernel's run builder; after a
// refresh only the stale and the new clusters are rebuilt, each stale one
// as a run of its own. The entry keeps what it built only while a cached
// plan holds a: a run of a plan no longer (or never) cached builds masks
// for itself alone.
func (e *partitionEntry) memoFor(a *patternArtifact) []*pattern.MaskSet {
	if a == nil {
		return nil
	}
	k := a.kernel
	e.mu.Lock()
	defer e.mu.Unlock()
	m := e.memo[a]
	if m == nil {
		m = &kernelMemo{}
		// Read under e.mu: an eviction that drops a's last plan after this
		// forgets the memo stored here (forget takes e.mu), and one before
		// it keeps it from being stored.
		if a.refs.Load() > 0 {
			if e.memo == nil {
				e.memo = map[*patternArtifact]*kernelMemo{}
			}
			e.memo[a] = m
		}
	}
	n := len(e.Groups)
	if m.masks == nil || len(m.stale) > 0 || m.built < n {
		// Build a new memo, or bring an old one up to date into a copy: the
		// old array belongs to running queries and to the previous
		// generation.
		m.masks = append(make([]*pattern.MaskSet, 0, n), m.masks...)[:n]
		// A cluster re-sorted by several refreshes is listed once per
		// refresh; one added after the memo was built is part of the new run.
		stale := slices.Clone(m.stale) // adopt may have left it shared with the predecessor's
		slices.Sort(stale)
		for _, ci := range slices.Compact(stale) {
			if ci < m.built {
				k.BuildRun(e.Groups, ci, ci+1, m.masks)
			}
		}
		k.BuildRun(e.Groups, m.built, n, m.masks)
		m.built, m.stale = n, nil
	}
	return m.masks
}

// adopt seeds e, the refresh of old, with old's memos, marking the
// clusters the refresh re-sorted as stale in each. Only the memos of
// patterns a cached plan holds are kept, and a memo with more stale marks
// than clusters is cheaper to rebuild than to carry. Callers hold
// db.cacheMu, so no plan is evicted between this selection and e entering
// the cache.
func (e *partitionEntry) adopt(old *partitionEntry, resorted []int) {
	old.mu.Lock()
	defer old.mu.Unlock()
	for a, m := range old.memo {
		if a.refs.Load() == 0 || len(m.stale)+len(resorted) > len(e.Groups) {
			continue
		}
		if e.memo == nil {
			e.memo = map[*patternArtifact]*kernelMemo{}
		}
		stale := append(m.stale[:len(m.stale):len(m.stale)], resorted...)
		e.memo[a] = &kernelMemo{masks: m.masks, built: m.built, stale: stale}
	}
}

// forget drops a's memo.
func (e *partitionEntry) forget(a *patternArtifact) {
	e.mu.Lock()
	delete(e.memo, a)
	e.mu.Unlock()
}

// sharedPattern returns the artifact a cached plan holds under key, or
// nil.
func (db *DB) sharedPattern(key patternKey) *patternArtifact {
	if key.tokens == "" {
		return nil
	}
	db.cacheMu.Lock()
	a := db.patterns[key]
	db.cacheMu.Unlock()
	return a
}

// holdPattern is the plan cache's store hook: the stored plan holds its
// pattern, which becomes the one later compiles of its key find. That is
// also how a pattern whose last plan was evicted while another plan was
// compiling against it comes back. When two compiles of one key raced,
// the first stored keeps the key and the other artifact serves its own
// plans only. Runs under db.cacheMu.
func (db *DB) holdPattern(p *Plan) {
	a := p.art
	if a == nil {
		return
	}
	a.refs.Add(1)
	if _, taken := db.patterns[a.key]; !taken && a.key.tokens != "" {
		db.patterns[a.key] = a
	}
}

// forgetKernel is the plan cache's eviction hook: the evicted plan lets
// go of its pattern, and when no cached plan holds the pattern any more it
// leaves the pattern map and its kernel leaves every cached partition's
// memo. A kernel belongs to the plans that share its pattern, so from
// then on only long-lived Query handles can run it, and they build what
// they read for themselves. Without this the memos, which survive
// inserts, would grow with every pattern ever compiled. Runs under
// db.cacheMu.
func (db *DB) forgetKernel(p *Plan) {
	a := p.art
	if a == nil || a.refs.Add(-1) > 0 {
		return
	}
	if db.patterns[a.key] == a {
		delete(db.patterns, a.key)
	}
	for el := db.parts.order.Front(); el != nil; el = el.Next() {
		el.Value.(*partitionEntry).forget(a)
	}
}

func newPartitionCache(capacity int) *partitionCache {
	return &partitionCache{capacity: capacity, order: list.New(), entries: map[string]*list.Element{}}
}

// partitionKey identifies one clustering of one table. Column names are
// lower-cased (resolution is case-insensitive) so spelling variants of
// the same clustering share an entry. A plan computes its key once, when
// it is compiled (Plan.partKey).
func partitionKey(table string, clusterBy, sequenceBy []string) string {
	n := len(table) + 1
	for _, c := range clusterBy {
		n += 1 + len(c)
	}
	for _, s := range sequenceBy {
		n += 1 + len(s)
	}
	var b strings.Builder
	b.Grow(n)
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

// Default cache capacities; tune the plan cache's with
// SetPlanCacheCapacity.
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
// capacity are dropped oldest-first); 0 disables plan caching entirely,
// and with it the sharing of compiled patterns between statements.
func (db *DB) SetPlanCacheCapacity(n int) {
	db.cacheMu.Lock()
	defer db.cacheMu.Unlock()
	db.plans.capacity = n
	db.plans.trim(n)
}

// PurgeCaches empties the serving caches (capacities are kept), and with
// the plans every pattern they shared. Useful
// for cold-path measurements and tests; production code never needs it
// — versioning invalidates precisely.
func (db *DB) PurgeCaches() {
	db.cacheMu.Lock()
	defer db.cacheMu.Unlock()
	db.parts.trim(0)
	db.plans.trim(0)
}

// SetShards does nothing: pattern queries read their clusters from the
// one partition cache whatever it is given. The sharded partition cache
// it configured read slower on every measured workload and was deleted;
// the method remains so that callers built against it keep compiling.
func (db *DB) SetShards(int) {}

// lookupPlan consults the plan cache: under the statement's own text,
// which is how a statement sent again as it was finds its plan, and only
// then under its normalized form, which is how a case or whitespace
// variant finds it. A hit returns a Plan that is still valid under the
// current catalog version; a miss returns the normalized form, the key
// the compiled plan is to be stored under.
func (db *DB) lookupPlan(sql string) (p *Plan, key string) {
	catalog := db.catalog.Load()
	db.cacheMu.Lock()
	p = db.plans.get(db.plans.entries[sql], catalog)
	db.cacheMu.Unlock()
	if p == nil {
		// A statement that fits the buffer is normalized on the stack, so
		// a variant's hit allocates nothing and a miss only its key.
		var buf [2048]byte
		norm := normalizeSQL(buf[:0], sql)
		key = sql
		if string(norm) != sql {
			db.cacheMu.Lock()
			p = db.plans.get(db.plans.entries[string(norm)], catalog)
			db.cacheMu.Unlock()
			if p == nil {
				key = string(norm)
			}
		}
	}
	if p != nil {
		db.metrics.planCacheHits.Inc()
	} else {
		db.metrics.planCacheMisses.Inc()
	}
	return p, key
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

// partition returns the clustered partition of t for p's clusterBy and
// sequenceBy, cached under p's partition key, serving it from the cache
// when the table version still matches. A stale entry over the same table is refreshed —
// storage.Clustering.Refresh re-sorts only the clusters the appended rows
// land in — and its memos carried over (see adopt); anything else is
// built from the empty clustering. Either way it counts as a miss, and as
// an invalidation when it replaces the stale entry. The entry's clusters (and the masks built from them) are shared
// and must be treated as read-only. A bypass run builds a transient
// entry that is never stored, so it shares nothing.
func (db *DB) partition(t *storage.Table, p *Plan, bypass bool) (*partitionEntry, partitionOutcome, error) {
	var out partitionOutcome
	var old *partitionEntry
	var key string
	if !bypass {
		key = p.partKey
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
		c, err := t.NewClustering(p.compiled.ClusterBy, p.compiled.SequenceBy)
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
		e.adopt(old, resorted)
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
