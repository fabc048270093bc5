// Package shard is the layer between the serving caches and the
// executors: it hash-partitions a table's CLUSTER BY groups into N
// shards, each owning its own sorted cluster slab, data version, and
// memoized selection bitmasks. Clusters are
// independent by construction (the paper's optimization is per-cluster),
// so the split buys incremental invalidation: tables are append-only, so
// a Partition built at version v refreshes to version v' by regrouping
// only the appended rows — the shards they land in are rebuilt
// (copy-on-invalidate: in-flight readers keep the old slabs), every
// other shard is carried over untouched, kernels, masks and all.
//
// Global cluster order (first appearance in the row log) is preserved
// across sharding (Cluster.Global), so an execution that visits the
// clusters in that order produces rows, statistics, and a per-cluster
// breakdown bit-identical to one over the unsharded partition.
package shard

import (
	"fmt"
	"sync"

	"sqlts/internal/pattern"
	"sqlts/internal/storage"
)

// Cluster is one CLUSTER BY group: its global index (first-appearance
// order across the whole table — the order serial execution visits
// clusters) and its sequence-sorted rows.
type Cluster struct {
	Global int
	Rows   []storage.Row
}

// Shard owns a hash-slice of a partition's clusters, in ascending global
// order, plus the per-shard memoization that makes warm runs cheap: per
// kernel, one selection-bitmask set per cluster, in local cluster order. A
// Shard is immutable after construction except for the lazily built memo
// map (guarded by mu); refreshes never mutate a shard — they replace it.
type Shard struct {
	id       int
	version  uint64 // bumped (from the predecessor's) each rebuild
	clusters []Cluster
	rows     int

	mu   sync.Mutex
	memo map[*pattern.Kernel][]*pattern.MaskSet
}

// ID returns the shard's index within its partition.
func (s *Shard) ID() int { return s.id }

// Version returns the shard's rebuild version: it starts at 1 and is
// bumped once per refresh that touched this shard, so an unchanged
// version across two partition generations proves the slab (and its
// memos) were reused, not rebuilt.
func (s *Shard) Version() uint64 { return s.version }

// NumClusters returns the number of clusters the shard owns.
func (s *Shard) NumClusters() int { return len(s.clusters) }

// Clusters returns the shard's clusters in ascending global order — the
// order Memo's slices index by. The slice is read-only.
func (s *Shard) Clusters() []Cluster { return s.clusters }

// RowCount returns the total input rows across the shard's clusters.
func (s *Shard) RowCount() int { return s.rows }

// Kernels returns the number of kernels with memoized state.
func (s *Shard) Kernels() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.memo)
}

// Memo returns kernel k's shared read-only mask sets over the shard's
// clusters (in local cluster order), nil for a nil kernel or one with no
// compiled element — the shape the flat partition cache keeps. The first
// use builds them in one pass of the kernel's run builder.
func (s *Shard) Memo(k *pattern.Kernel) []*pattern.MaskSet {
	if k == nil || k.CompiledElems() == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	masks := s.memo[k]
	if masks == nil {
		sets := k.BuildRun(len(s.clusters), func(j int) []storage.Row { return s.clusters[j].Rows })
		masks = make([]*pattern.MaskSet, len(sets))
		for i := range sets {
			masks[i] = &sets[i]
		}
		if s.memo == nil {
			s.memo = map[*pattern.Kernel][]*pattern.MaskSet{}
		}
		s.memo[k] = masks
	}
	return masks
}

// keyIndex is the cluster directory shared by every generation of one
// partition lineage: encoded cluster key → global index, and global
// index → owning shard. Both assignments are pure functions of the
// append-only row log (first appearance resp. key hash), so the index
// only ever grows, and concurrent refreshes assign identical values.
type keyIndex struct {
	mu      sync.Mutex
	m       map[string]int32
	owners  []int32 // global cluster index → shard id; append-only
	nshards int
}

// ownersPrefix returns the immutable owner prefix for the first n
// clusters (entries never change once assigned, so the clipped slice is
// safe to read without the lock).
func (ki *keyIndex) ownersPrefix(n int) []int32 {
	ki.mu.Lock()
	defer ki.mu.Unlock()
	return ki.owners[:n:n]
}

// shardOf places a cluster key on a shard: FNV-1a over the canonical
// key encoding, mod the shard count. The hash is part of the data
// layout — changing it would reshuffle every lineage — so it is fixed
// here rather than configurable.
func shardOf(key []byte, nshards int) int32 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range key {
		h ^= uint64(c)
		h *= prime64
	}
	return int32(h % uint64(nshards))
}

// ref locates one global cluster inside the partition's shards.
type ref struct{ shard, local int32 }

// Partition is one generation of a sharded table partition: the shards
// holding every cluster at one table data version, plus the directory
// needed to refresh incrementally and to iterate in global order.
// A Partition is immutable; Refresh returns a successor that shares
// every untouched shard.
type Partition struct {
	shards    []*Shard
	refs      []ref // global cluster index → (shard, local)
	keys      *keyIndex
	cidx      []int
	sidx      []int
	rows      int
	builtRows int // rows of the table consumed by this generation
	version   uint64
}

// RefreshStats describes one incremental refresh.
type RefreshStats struct {
	// Shards is the partition's shard count; Dirty of them were rebuilt
	// (the shards appended rows landed in), the rest carried over
	// untouched with their memoized masks.
	Shards int
	Dirty  int
	// NewClusters and NewRows count what the delta added.
	NewClusters int
	NewRows     int
}

// Build shards rows (a table snapshot) into nshards hash-partitioned,
// sequence-sorted cluster slabs. cidx/sidx are the CLUSTER BY and
// SEQUENCE BY column indices; with no cluster columns the whole input
// is a single cluster on shard 0's hash slot. version is the table data
// version the snapshot reflects.
func Build(rows []storage.Row, version uint64, cidx, sidx []int, nshards int) (*Partition, error) {
	if nshards < 1 {
		nshards = 1
	}
	p := &Partition{
		keys:      &keyIndex{m: map[string]int32{}, nshards: nshards},
		cidx:      cidx,
		sidx:      sidx,
		rows:      len(rows),
		builtRows: len(rows),
		version:   version,
	}
	// Group in first-appearance order, exactly like storage.Cluster.
	var groups [][]storage.Row
	if len(cidx) == 0 {
		if len(rows) > 0 {
			groups = [][]storage.Row{append([]storage.Row(nil), rows...)}
			p.keys.m[""] = 0
			p.keys.owners = []int32{shardOf(nil, nshards)}
		}
	} else {
		var scratch []byte
		for _, r := range rows {
			scratch = storage.AppendRowKey(scratch[:0], r, cidx)
			gi, ok := p.keys.m[string(scratch)]
			if !ok {
				gi = int32(len(groups))
				p.keys.m[string(scratch)] = gi
				p.keys.owners = append(p.keys.owners, shardOf(scratch, nshards))
				groups = append(groups, nil)
			}
			groups[gi] = append(groups[gi], r)
		}
	}
	for _, g := range groups {
		if err := storage.SortBySequence(g, sidx); err != nil {
			return nil, err
		}
	}
	p.shards = make([]*Shard, nshards)
	for s := range p.shards {
		p.shards[s] = &Shard{id: s, version: 1}
	}
	p.refs = make([]ref, len(groups))
	for gi, g := range groups {
		s := p.shards[p.keys.owners[gi]]
		p.refs[gi] = ref{shard: p.keys.owners[gi], local: int32(len(s.clusters))}
		s.clusters = append(s.clusters, Cluster{Global: gi, Rows: g})
		s.rows += len(g)
	}
	return p, nil
}

// Refresh derives the successor partition for rows — a superset of the
// snapshot this generation was built from (tables are append-only; a
// shrunken input reports ok=false and the caller must Build from
// scratch). Only shards the appended rows land in are rebuilt: their
// touched clusters get fresh, re-sorted row slices (old slabs stay
// valid for in-flight readers) and their memo maps start empty. Every
// other shard — slab and masks — is shared with this
// generation. The result is bit-identical to Build over the full input:
// stable re-sort of (sorted old rows + appended rows in log order)
// equals stable sort of all rows in log order.
func (p *Partition) Refresh(rows []storage.Row, version uint64) (*Partition, RefreshStats, bool) {
	if len(rows) < p.builtRows {
		return nil, RefreshStats{}, false
	}
	stats := RefreshStats{Shards: len(p.shards)}
	delta := rows[p.builtRows:]
	stats.NewRows = len(delta)

	np := &Partition{
		shards:    append([]*Shard(nil), p.shards...),
		keys:      p.keys,
		cidx:      p.cidx,
		sidx:      p.sidx,
		rows:      len(rows),
		builtRows: len(rows),
		version:   version,
	}
	if len(delta) == 0 {
		np.refs = p.refs
		return np, stats, true
	}

	// Map each appended row to its cluster, assigning new globals under
	// the shared directory lock (idempotent across concurrent refreshes:
	// assignment depends only on first appearance in the log).
	adds := map[int32][]storage.Row{} // global → appended rows, log order
	var addOrder []int32              // globals in first-touch order
	oldGlobals := len(p.refs)
	ki := p.keys
	ki.mu.Lock()
	if len(p.cidx) == 0 {
		gi, ok := ki.m[""]
		if !ok {
			gi = 0
			ki.m[""] = 0
			ki.owners = append(ki.owners, shardOf(nil, ki.nshards))
		}
		adds[gi] = append([]storage.Row(nil), delta...)
		addOrder = append(addOrder, gi)
	} else {
		var scratch []byte
		for _, r := range delta {
			scratch = storage.AppendRowKey(scratch[:0], r, p.cidx)
			gi, ok := ki.m[string(scratch)]
			if !ok {
				gi = int32(len(ki.owners))
				ki.m[string(scratch)] = gi
				ki.owners = append(ki.owners, shardOf(scratch, ki.nshards))
			}
			if _, seen := adds[gi]; !seen {
				addOrder = append(addOrder, gi)
			}
			adds[gi] = append(adds[gi], r)
		}
	}
	owners := ki.owners[:len(ki.owners):len(ki.owners)]
	ki.mu.Unlock()

	// Globals beyond this refresh's horizon belong to a concurrent
	// refresh that saw more rows; they carry no rows here and must not
	// materialize as empty clusters.
	newGlobals := 0
	for _, gi := range addOrder {
		if int(gi) >= oldGlobals {
			newGlobals++
		}
	}
	stats.NewClusters = newGlobals

	dirty := map[int32]bool{}
	for _, gi := range addOrder {
		dirty[owners[gi]] = true
	}
	stats.Dirty = len(dirty)

	np.refs = make([]ref, oldGlobals, oldGlobals+newGlobals)
	copy(np.refs, p.refs)
	np.refs = np.refs[:oldGlobals+newGlobals]

	for sid := range dirty {
		old := p.shards[sid]
		ns := &Shard{id: int(sid), version: old.version + 1}
		ns.clusters = make([]Cluster, 0, len(old.clusters)+newGlobals)
		for _, c := range old.clusters {
			if extra, ok := adds[int32(c.Global)]; ok {
				merged := make([]storage.Row, 0, len(c.Rows)+len(extra))
				merged = append(merged, c.Rows...)
				merged = append(merged, extra...)
				if err := storage.SortBySequence(merged, p.sidx); err != nil {
					// Appended rows are incomparable under the sequence
					// columns; the caller falls back to a full rebuild,
					// which surfaces the same error through Build.
					return nil, RefreshStats{}, false
				}
				c = Cluster{Global: c.Global, Rows: merged}
			}
			np.refs[c.Global] = ref{shard: sid, local: int32(len(ns.clusters))}
			ns.clusters = append(ns.clusters, c)
			ns.rows += len(c.Rows)
		}
		np.shards[sid] = ns
	}
	// New clusters append after every shard's existing ones, in global
	// order (addOrder is first-touch order over a log suffix, which is
	// global order for fresh globals).
	for _, gi := range addOrder {
		if int(gi) < oldGlobals {
			continue
		}
		sid := owners[gi]
		ns := np.shards[sid]
		g := append([]storage.Row(nil), adds[gi]...)
		if err := storage.SortBySequence(g, p.sidx); err != nil {
			return nil, RefreshStats{}, false
		}
		np.refs[gi] = ref{shard: sid, local: int32(len(ns.clusters))}
		ns.clusters = append(ns.clusters, Cluster{Global: int(gi), Rows: g})
		ns.rows += len(g)
	}
	return np, stats, true
}

// NumShards returns the partition's shard count.
func (p *Partition) NumShards() int { return len(p.shards) }

// Shards returns the partition's shards, indexed by shard id. The slice
// and the shards are read-only.
func (p *Partition) Shards() []*Shard { return p.shards }

// NumClusters returns the number of clusters across all shards.
func (p *Partition) NumClusters() int { return len(p.refs) }

// Rows returns the total input rows across all clusters.
func (p *Partition) Rows() int { return p.rows }

// Version returns the table data version the partition reflects.
func (p *Partition) Version() uint64 { return p.version }

// ClusterAt returns the rows of the global cluster gi.
func (p *Partition) ClusterAt(gi int) []storage.Row {
	r := p.refs[gi]
	return p.shards[r.shard].clusters[r.local].Rows
}

// OrderedRows materializes the clusters as one [][]Row in global order
// — the flat shape serial execution iterates. Only the slice of headers
// is allocated; the row slabs are shared.
func (p *Partition) OrderedRows() [][]storage.Row {
	out := make([][]storage.Row, len(p.refs))
	for gi := range p.refs {
		out[gi] = p.ClusterAt(gi)
	}
	return out
}

// String summarizes the partition for debug surfaces.
func (p *Partition) String() string {
	return fmt.Sprintf("shard.Partition{shards=%d clusters=%d rows=%d version=%d}",
		len(p.shards), len(p.refs), p.rows, p.version)
}
