package storage

import (
	"errors"
	"sync"
)

// Clustering is one immutable generation of a table's CLUSTER BY /
// SEQUENCE BY partition (paper Figure 1): the rows grouped by the cluster
// columns, groups in first-appearance order, each group sorted ascending
// by the sequence columns. With no cluster columns the whole table is one
// group.
//
// Tables are append-only, so a generation is also the base of the next
// one: Refresh regroups only the rows appended since and re-sorts only the
// groups they land in. Building from scratch is Refresh on the empty
// generation NewClustering returns — grouping and sorting have this one
// implementation.
type Clustering struct {
	// Groups holds one row slice per cluster, in blocks: a refresh copies
	// the block index and the blocks of the groups it changes, and shares
	// the rest with its base. The row slices never alias mutable table
	// storage, and neither they nor the blocks are written after the
	// generation is returned, so they are safe to share read-only across
	// goroutines.
	Groups Blocks[[]Row, struct{}]
	// Rows is the number of table rows the generation covers: the length
	// of the snapshot it consumed, and the sum of its group lengths.
	Rows int
	// Version is the table data version of that snapshot.
	Version uint64

	*lineage
}

// lineage is what every generation of one clustering shares, held once:
// its table, its cluster and sequence columns, and its cluster directory.
type lineage struct {
	table      *Table
	cidx, sidx []int
	keys       *clusterKeys // nil without cluster columns
}

// clusterKeys is the cluster directory shared by every generation of one
// lineage: encoded cluster key → group index. An index is the key's rank
// by first appearance in the append-only row log, so the directory only
// grows, and concurrent refreshes of one base assign identical indexes
// whichever runs first.
type clusterKeys struct {
	mu sync.Mutex
	m  map[string]int32
}

var (
	errShrunk   = errors.New("storage: table holds fewer rows than its clustering consumed")
	errDiverged = errors.New("storage: table rows are not an extension of the clustered prefix")
)

// NewClustering returns the empty generation of t's partition by the named
// columns: no rows consumed, no groups.
func (t *Table) NewClustering(clusterBy, sequenceBy []string) (*Clustering, error) {
	cidx, err := t.resolve(clusterBy)
	if err != nil {
		return nil, err
	}
	sidx, err := t.resolve(sequenceBy)
	if err != nil {
		return nil, err
	}
	c := &Clustering{lineage: &lineage{table: t, cidx: cidx, sidx: sidx}}
	if len(cidx) > 0 {
		c.keys = &clusterKeys{m: map[string]int32{}}
	}
	return c, nil
}

// Table returns the table the clustering partitions.
func (c *Clustering) Table() *Table { return c.table }

// Refresh derives the generation for the table's current snapshot. Groups
// that received no appended row are carried over sharing c's row slices,
// and blocks of such groups c's blocks; a group that did gets a fresh
// slice in a fresh block (c stays valid for its readers) and is
// stable-sorted again, which yields exactly what sorting the whole log
// would: c's order already breaks ties by log position, and the appended
// rows follow in log order. New keys become new groups after c's. changed
// counts the groups re-sorted or added; which they are is read off the
// two generations, a changed group's rows being a slice of their own.
//
// An error means no successor could be derived from c — the table shrank
// or was edited in place, or the appended rows do not compare under the
// sequence columns — and the caller should build from the empty
// generation, which reports a sort failure as its own error.
func (c *Clustering) Refresh() (next *Clustering, changed int, err error) {
	rows, version := c.table.Snapshot()
	if len(rows) < c.Rows {
		return nil, 0, errShrunk
	}
	next = &Clustering{Groups: c.Groups, Rows: len(rows), Version: version, lineage: c.lineage}
	delta := rows[c.Rows:]
	if len(delta) == 0 {
		return next, 0, nil
	}
	carried := c.Groups.Len()
	var ed Editor[[]Row, struct{}]
	// resorted are the carried groups that received rows, fresh the rows of
	// the groups after them, each its own slice, allocated at its size. A
	// refresh's few resorted groups fit the stack buffer.
	var rbuf [16]int
	resorted := rbuf[:0]
	var fresh [][]Row
	if c.keys == nil {
		ed = c.Groups.Edit(1)
		prev := ed.At(0)
		g := make([]Row, 0, len(prev)+len(delta))
		g = append(append(g, prev...), delta...)
		if carried > 0 {
			resorted = append(resorted, 0)
			ed.Set(0, g)
		} else {
			fresh = [][]Row{g}
		}
	} else {
		// The first pass finds every appended row's group, and a divergence
		// before anything is written; the second appends the rows.
		var gbuf [16]int32
		gis, n := gbuf[:0], carried
		// One scratch buffer serves every row's key; a key is only
		// materialized as a string when its group first appears (map probes
		// on string(scratch) don't allocate).
		var kbuf [64]byte
		scratch := kbuf[:0]
		c.keys.mu.Lock()
		for _, r := range delta {
			scratch = appendClusterKey(scratch[:0], r, c.cidx)
			i, ok := c.keys.m[string(scratch)]
			if !ok {
				i = int32(len(c.keys.m))
				c.keys.m[string(scratch)] = i
			}
			switch {
			case int(i) == n:
				n++
			case int(i) > n:
				// A key this log prefix should have introduced was assigned
				// later: the rows under c were edited, not appended to.
				c.keys.mu.Unlock()
				return nil, 0, errDiverged
			}
			gis = append(gis, i)
		}
		c.keys.mu.Unlock()
		ed = c.Groups.Edit(n)
		if n > carried {
			sizes := make([]int, n-carried)
			for _, gi := range gis {
				if int(gi) >= carried {
					sizes[int(gi)-carried]++
				}
			}
			fresh = make([][]Row, n-carried)
			for i, size := range sizes {
				fresh[i] = make([]Row, 0, size)
			}
		}
		for k, r := range delta {
			gi := int(gis[k])
			if gi >= carried {
				fresh[gi-carried] = append(fresh[gi-carried], r)
				continue
			}
			g := ed.At(gi)
			// A carried group still holding its base's rows is copied before
			// its first append.
			if &g[0] == &c.Groups.At(gi)[0] {
				resorted = append(resorted, gi)
				g = append(make([]Row, 0, len(g)+1), g...)
			}
			ed.Set(gi, append(g, r))
		}
	}
	for _, gi := range resorted {
		if err := SortBySequence(ed.At(gi), c.sidx); err != nil {
			return nil, 0, err
		}
	}
	for i, g := range fresh {
		if err := SortBySequence(g, c.sidx); err != nil {
			return nil, 0, err
		}
		ed.Set(carried+i, g)
	}
	next.Groups = ed.Done()
	return next, len(resorted) + len(fresh), nil
}
