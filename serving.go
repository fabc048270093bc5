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
//     partition key; its pattern keeps one executor for the one-lane runs
//     of all its plans (patternArtifact.solo).
//   - patterns: the compiled patterns of the cached plans, keyed by the
//     catalog version and the statement's FROM … WHERE tokens, which are
//     looked up before they are parsed (DB.parse), so a statement text
//     never seen before whose pattern is cached parses and compiles only
//     its SELECT list. It holds no entry of its own: an artifact is
//     in it exactly while a cached plan holds it (holdPattern,
//     forgetKernel).
//   - partitionCache: LRU keyed by (table, clusterBy, sequenceBy),
//     validated against storage.Table's monotonic data version. Inserts
//     bump the version, so the next query refreshes the entry: only the
//     clusters the appended rows land in are re-sorted, and only their
//     masks rebuilt; in-flight queries keep reading the old immutable
//     generation (copy-on-write per cluster, and per 64-cluster block of
//     the cluster and mask lists). A plan reaches its key's entry through
//     the key's slot (partSlot), so a warm run takes its partition
//     without the cache's lock or a by-name table lookup.

import (
	"container/list"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"sqlts/internal/engine"
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
// outdated entry. onStore is told of every plan that enters the cache,
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
// outdated. An outdated entry over the same table is the base the next
// query refreshes from. Entries are immutable generations shared
// read-only by every execution that holds one.
//
// A key's entry sits in the key's slot, which outlives the generations
// stored in it: a plan keeps a pointer to its key's slot (Plan.part), and
// a run that finds a current entry there takes it without a lock or a map
// lookup (cachedPartition). Such a hit does not reorder the list; it marks
// the slot used instead, and trim passes a used slot over once.
type partitionCache struct {
	capacity int
	order    *list.List // of *partSlot, front = most recently stored or promoted
	entries  map[string]*list.Element
}

// partSlot is the partition cache's cell for one key. cur is the key's
// entry while the key is cached and nil once it is evicted, so a plan that
// points at an evicted slot keeps no partition alive. used is set by a
// lock-free hit, only when it is clear, and cleared by trim.
type partSlot struct {
	key  string
	cur  atomic.Pointer[partitionEntry]
	used atomic.Bool
}

type partitionEntry struct {
	*storage.Clustering

	// catalog is a catalog version under which the entry's table was the
	// one registered under its name: read before the by-name lookup that
	// found the table, and raised, under db.cacheMu, by a locked hit that
	// finds it again. While the DB's catalog version equals it, the table
	// is still the one of that name. It is the entry's and not its slot's
	// because it speaks of the entry's table: a lock-free hit reads the
	// two together without a second check.
	catalog atomic.Uint64

	// memo holds, per pattern, what its kernel reads of every cluster,
	// built lazily on the first execution of a plan of the pattern over
	// this partition: selection bitmasks, which answer every compiled
	// element (the interpreter takes the rest, so no probe reads a
	// projection). They are a pure function of the (immutable) cluster
	// rows, so sharing them is observationally identical to rebuilding; it
	// removes the O(rows) decode and mask build from every warm run and
	// from every new statement text whose pattern is cached. A refreshed
	// entry adopts its predecessor's memos and rebuilds only the clusters
	// that changed, on the pattern's next use. A partition holds few
	// patterns' memos, at most one each, so they are a list (memoOf).
	mu   sync.Mutex
	memo []*kernelMemo
	// last is the memo memoFor last returned from the list, current for the
	// entry's clusters, which a run of the same pattern takes without e.mu
	// or the list. It goes with the memo (forget) and with the entry.
	last atomic.Pointer[kernelMemo]
}

// kernelMemo is one kernel's per-cluster state over a partition. It is
// immutable once stored: a memo brought up to date is a new one. Its
// masks are handed to running queries and shared, block by block, with
// the generation the memo was adopted from.
type kernelMemo struct {
	art *patternArtifact
	// masks holds each cluster's mask set and, per block, the block's
	// clusters booked under the pattern's scan (engine.Booking).
	masks engine.MaskBlocks
	// groups is the clustering masks was built over: the Groups of that
	// generation, which it keeps, or noGroups before the first build.
	groups *storage.Blocks[[]storage.Row, struct{}]
}

// noGroups is the clustering a memo has been built over before its first
// build: none.
var noGroups storage.Blocks[[]storage.Row, struct{}]

// memoFor returns a's kernel's shared read-only mask sets for a run over
// it, one per cluster. A memo built over e's clusters is returned as it
// is — without a lock when it is the one memoFor last returned (e.last);
// otherwise the clusters that differ from those it was built over — new,
// or with rows that are not its slice, in a block that is not its block —
// are rebuilt in one pass of the kernel's run builder, into a successor
// of its blocks (on first use, every cluster). The entry keeps what it
// built only while a cached plan holds a: a run of a plan no longer (or
// never) cached builds masks for itself alone.
func (e *partitionEntry) memoFor(a *patternArtifact) engine.MaskBlocks {
	if m := e.last.Load(); m != nil && m.art == a {
		return m.masks
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	i := e.memoOf(a)
	var m *kernelMemo
	if i >= 0 {
		m = e.memo[i]
	}
	// Read under e.mu: an eviction that drops a's last plan after this
	// forgets the memo stored here (forget takes e.mu), and one before it
	// keeps it from being stored.
	keep := a.refs.Load() > 0
	if m == nil {
		m = &kernelMemo{art: a, groups: &noGroups}
	}
	groups, built := e.Groups, *m.groups
	if groups.Same(built) {
		if keep {
			e.last.Store(m)
		}
		return m.masks
	}
	n := groups.Len()
	// The clusters to rebuild: a refresh's few fit the stack buffer.
	var buf [64]int
	run := buf[:0]
	for lo := 0; lo < n; lo += storage.BlockLen {
		hi := min(lo+storage.BlockLen, n)
		if hi <= built.Len() && groups.Block(lo) == built.Block(lo) {
			continue
		}
		for ci := lo; ci < hi; ci++ {
			if ci >= built.Len() || !sameRows(groups.At(ci), built.At(ci)) {
				run = append(run, ci)
			}
		}
	}
	ed := m.masks.Edit(n)
	sets := a.kernel.BuildRun(len(run), func(j int) []storage.Row { return groups.At(run[j]) })
	for j, ci := range run {
		ed.Set(ci, &sets[j])
	}
	// Book every block the run rebuilt a cluster of, once; every other
	// block keeps the booking it has, in the block the memo shares.
	var blk [storage.BlockLen]*pattern.MaskSet
	for j := 0; j < len(run); {
		lo := run[j] &^ (storage.BlockLen - 1)
		hi := min(lo+storage.BlockLen, n)
		for ci := lo; ci < hi; ci++ {
			blk[ci-lo] = ed.At(ci)
		}
		ed.SetSum(lo, a.scan.Book(blk[:hi-lo]))
		for j < len(run) && run[j] < hi {
			j++
		}
	}
	m = &kernelMemo{art: a, masks: ed.Done(), groups: &e.Groups}
	if keep {
		if i >= 0 {
			e.memo[i] = m
		} else {
			e.memo = append(e.memo, m)
		}
		e.last.Store(m)
	}
	return m.masks
}

// memoOf returns where a's memo is in e.memo, -1 when e holds none.
// Callers hold e.mu.
func (e *partitionEntry) memoOf(a *patternArtifact) int {
	for i, m := range e.memo {
		if m.art == a {
			return i
		}
	}
	return -1
}

// sameRows reports whether two clusters' rows are one slice. A refresh
// gives each cluster it re-sorts a slice of its own, and a memo holds the
// clusters it compares with, so their memory is not reused.
func sameRows(a, b []storage.Row) bool { return len(a) == len(b) && &a[0] == &b[0] }

// adopt seeds e, the refresh of old, with old's memos of the patterns a
// cached plan holds; memoFor finds what changed from the clusters each
// was built over. So an adopted memo that has not run pins at most the
// generation it was built over. Callers hold db.cacheMu, so no plan is
// evicted between this selection and e entering the cache.
func (e *partitionEntry) adopt(old *partitionEntry) {
	old.mu.Lock()
	defer old.mu.Unlock()
	for _, m := range old.memo {
		if m.art.refs.Load() > 0 {
			e.memo = append(e.memo, m) // shared: memoFor brings it up to date into a new one
		}
	}
}

// forget drops a's memo.
func (e *partitionEntry) forget(a *patternArtifact) {
	e.mu.Lock()
	if i := e.memoOf(a); i >= 0 {
		e.memo = slices.Delete(e.memo, i, i+1)
	}
	if m := e.last.Load(); m != nil && m.art == a {
		e.last.Store(nil)
	}
	e.mu.Unlock()
}

// sharedPattern returns the artifact a cached plan holds under the
// catalog version and the FROM … WHERE tokens' key, or nil.
func (db *DB) sharedPattern(catalog uint64, tokens []byte) *patternArtifact {
	db.cacheMu.Lock()
	a := db.patterns[patternKey{catalog: catalog, tokens: string(tokens)}]
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
		el.Value.(*partSlot).cur.Load().forget(a)
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

// get returns the entry stored under key, current or outdated, promoting
// it, and its slot. Callers hold db.cacheMu.
func (c *partitionCache) get(key string) (*partitionEntry, *partSlot) {
	el, ok := c.entries[key]
	if !ok {
		return nil, nil
	}
	c.order.MoveToFront(el)
	s := el.Value.(*partSlot)
	return s.cur.Load(), s
}

// replace stores e in the slot of key where the caller found old (nil:
// found nothing) and reports whether it took an outdated entry's place —
// an invalidation rather than a cold miss. When a concurrent run got there
// first the cache keeps that run's entry and e serves its own run only.
// It returns the key's slot, nil when the cache holds nothing.
func (c *partitionCache) replace(key string, old, e *partitionEntry) (s *partSlot, invalidated bool) {
	if c.capacity <= 0 {
		return nil, false
	}
	if el, ok := c.entries[key]; ok {
		s = el.Value.(*partSlot)
		if s.cur.Load() != old {
			return s, false
		}
		s.cur.Store(e)
		c.order.MoveToFront(el)
		return s, true
	}
	c.trim(c.capacity - 1)
	s = &partSlot{key: key}
	s.cur.Store(e)
	c.entries[key] = c.order.PushFront(s)
	return s, false
}

// trim evicts partitions until at most n remain, least recently stored or
// promoted first, except that a slot a lock-free hit has used since trim
// last passed it over is passed over once more: its flag is cleared and it
// moves to the front. An evicted slot lets go of its entry.
func (c *partitionCache) trim(n int) {
	for chances := c.order.Len(); c.order.Len() > max(n, 0); {
		el := c.order.Back()
		s := el.Value.(*partSlot)
		if n > 0 && chances > 0 && s.used.Load() {
			chances--
			s.used.Store(false)
			c.order.MoveToFront(el)
			continue
		}
		c.order.Remove(el)
		delete(c.entries, s.key)
		s.cur.Store(nil)
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
	// refreshed: derived from the outdated cached generation by
	// re-sorting or adding dirty of its clusters. Not a hit — rows were sorted.
	refreshed       bool
	dirty, clusters int32
}

func (o partitionOutcome) String() string {
	if o.refreshed {
		return fmt.Sprintf("refreshed (%d of %d clusters)", o.dirty, o.clusters)
	}
	return cachedWord(o.cached)
}

// partition returns the clustered partition of p's table for p's
// clusterBy and sequenceBy, cached under p's partition key, serving it
// from the cache when the table version still matches: without a lock
// from the slot p last reached when the catalog has not changed either
// (cachedPartition), otherwise after looking the table up by name. An
// outdated entry over the same table is refreshed —
// storage.Clustering.Refresh re-sorts only the clusters the appended rows
// land in — and its memos carried over (see adopt); anything else is
// built from the empty clustering. Either way it counts as a miss, and as
// an invalidation when it replaces the outdated entry. The entry's
// clusters (and the masks built from them) are shared and must be treated
// as read-only. A bypass run builds a transient entry that is never
// stored, so it shares nothing.
func (db *DB) partition(p *Plan, bypass bool) (*partitionEntry, partitionOutcome, error) {
	var out partitionOutcome
	if !bypass {
		if e := db.cachedPartition(p); e != nil {
			db.metrics.partitionCacheHits.Inc()
			out.cached = true
			return e, out, nil
		}
	}
	// The catalog version is read before the lookup, so that it is one
	// under which the table found had its name (partitionEntry.catalog).
	catalog := db.catalog.Load()
	t := db.Table(p.compiled.Table)
	if t == nil {
		return nil, out, fmt.Errorf("sqlts: table %q disappeared", p.compiled.Table)
	}
	var old *partitionEntry
	var key string
	if !bypass {
		key = p.partKey
		db.cacheMu.Lock()
		var s *partSlot
		old, s = db.parts.get(key)
		hit := old != nil && old.Table() == t && old.Version == t.Version()
		if hit {
			if old.catalog.Load() < catalog {
				old.catalog.Store(catalog)
			}
			p.reach(s)
		}
		db.cacheMu.Unlock()
		if hit {
			db.metrics.partitionCacheHits.Inc()
			out.cached = true
			return old, out, nil
		}
		db.metrics.partitionCacheMisses.Inc()
	}
	e := new(partitionEntry)
	e.catalog.Store(catalog)
	if old != nil && old.Table() == t {
		// An error here (the table shrank, or the appended rows do not
		// sort) leaves the full build below to succeed or to report it.
		if c, changed, err := old.Refresh(); err == nil {
			e.Clustering = c
			out.refreshed = true
			out.dirty = int32(changed)
			out.clusters = int32(c.Groups.Len())
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
		e.adopt(old)
	}
	s, invalidated := db.parts.replace(key, old, e)
	p.reach(s)
	db.cacheMu.Unlock()
	if invalidated {
		db.metrics.partitionCacheInvalidations.Inc()
	}
	if out.refreshed {
		db.metrics.partitionCacheRefreshes.Inc()
	}
	return e, out, nil
}

// cachedPartition is the partition cache's lock-free hit: the entry in
// the slot p last reached, when the catalog version is still the one the
// entry's table was last found under and the table's data version still
// the one the entry was built from; nil otherwise.
func (db *DB) cachedPartition(p *Plan) *partitionEntry {
	s := p.part.Load()
	if s == nil {
		return nil
	}
	e := s.cur.Load()
	if e == nil || e.catalog.Load() != db.catalog.Load() || e.Version != e.Table().Version() {
		return nil
	}
	// Written only when clear, so that clients sharing the slot do not
	// take its cache line from one another on every hit.
	if !s.used.Load() {
		s.used.Store(true)
	}
	return e
}

// reach points p at s, its key's slot (nil: the cache holds none).
// Callers hold db.cacheMu.
func (p *Plan) reach(s *partSlot) {
	if s != nil && p.part.Load() != s {
		p.part.Store(s)
	}
}
