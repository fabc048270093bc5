package storage

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Column describes one column of a table schema.
type Column struct {
	Name string
	Type Type
}

// Schema is an ordered list of columns.
type Schema struct {
	Columns []Column
	byName  map[string]int
}

// NewSchema builds a schema from columns, validating that names are
// non-empty and unique (case-insensitive, as in SQL).
func NewSchema(cols ...Column) (*Schema, error) {
	s := &Schema{Columns: append([]Column(nil), cols...), byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("storage: column %d has empty name", i)
		}
		key := strings.ToLower(c.Name)
		if _, dup := s.byName[key]; dup {
			return nil, fmt.Errorf("storage: duplicate column %q", c.Name)
		}
		s.byName[key] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for tests and literals.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// ColumnIndex returns the index of the named column (case-insensitive)
// and whether it exists.
func (s *Schema) ColumnIndex(name string) (int, bool) {
	i, ok := s.byName[strings.ToLower(name)]
	return i, ok
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Columns) }

// String renders the schema as "(name TYPE, ...)".
func (s *Schema) String() string {
	parts := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		parts[i] = c.Name + " " + c.Type.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Row is one tuple; Row[i] corresponds to Schema.Columns[i].
type Row []Value

// Clone returns a copy of the row.
func (r Row) Clone() Row { return append(Row(nil), r...) }

// Table is an in-memory relation: a schema plus an append-only bag of
// rows, stamped with a monotonic data version.
//
// Concurrency: Insert appends under an internal lock and bumps the
// version; Snapshot/Len/Cluster read under the same lock, Version reads
// the version without it, and the row prefix a Snapshot returns is
// immutable (rows are never edited in place). Insert-while-query is
// therefore safe. The exported Rows field remains for single-threaded
// loaders and tests; code that mutates it directly forfeits both safety
// and version tracking.
type Table struct {
	Name   string
	Schema *Schema
	Rows   []Row

	mu sync.RWMutex
	// version is written under mu, after the rows it counts, and read
	// without it by Version.
	version atomic.Uint64
}

// NewTable creates an empty table with the given schema.
func NewTable(name string, schema *Schema) *Table {
	return &Table{Name: name, Schema: schema}
}

// coerceRow validates arity and types of one row, returning a fresh
// coerced copy. Ints widen to float columns (and integral floats narrow
// to int columns) automatically.
func (t *Table) coerceRow(vals []Value) (Row, error) {
	if len(vals) != t.Schema.Len() {
		return nil, fmt.Errorf("storage: %s: insert arity %d, want %d", t.Name, len(vals), t.Schema.Len())
	}
	row := make(Row, len(vals))
	for i, v := range vals {
		if v.IsNull() {
			row[i] = v
			continue
		}
		want := t.Schema.Columns[i].Type
		if v.Type() != want {
			cv, err := v.Coerce(want)
			if err != nil {
				return nil, fmt.Errorf("storage: %s.%s: %w", t.Name, t.Schema.Columns[i].Name, err)
			}
			v = cv
		}
		row[i] = v
	}
	return row, nil
}

// Insert appends a row after validating arity and types. Each successful
// Insert bumps the table version.
func (t *Table) Insert(vals ...Value) error {
	row, err := t.coerceRow(vals)
	if err != nil {
		return err
	}
	t.mu.Lock()
	t.Rows = append(t.Rows, row)
	t.version.Add(1)
	t.mu.Unlock()
	return nil
}

// InsertBatch appends rows all-or-nothing: every row is validated and
// coerced into a staging slice first, and only then is the whole batch
// appended under one lock with a single version bump. On error the
// table's rows and version are untouched, so a failed bulk load never
// leaves a half-applied state (or spuriously invalidates caches keyed
// on the version).
func (t *Table) InsertBatch(rows []Row) error {
	staged := make([]Row, len(rows))
	for i, r := range rows {
		row, err := t.coerceRow(r)
		if err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
		staged[i] = row
	}
	t.mu.Lock()
	t.Rows = append(t.Rows, staged...)
	t.version.Add(1)
	t.mu.Unlock()
	return nil
}

// MustInsert is Insert that panics on error; for tests and generators.
func (t *Table) MustInsert(vals ...Value) {
	if err := t.Insert(vals...); err != nil {
		panic(err)
	}
}

// Len returns the number of rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.Rows)
}

// Version returns the table's data version: a counter bumped by every
// Insert (and once per bulk load). Two equal versions of the same
// *Table guarantee identical row contents, which is what the engine's
// partition cache keys on. It takes no lock: a version read while an
// Insert holds the lock is the one before that Insert.
func (t *Table) Version() uint64 { return t.version.Load() }

// Snapshot returns the current rows and the version they correspond to,
// taken atomically. The returned slice is an immutable prefix: later
// Inserts never modify it, so callers may read it without holding any
// lock (its capacity is clipped so callers cannot append into shared
// storage either).
func (t *Table) Snapshot() ([]Row, uint64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.Rows[:len(t.Rows):len(t.Rows)], t.version.Load()
}

// bump marks a bulk mutation performed directly on Rows (CSV load);
// single bump per batch keeps the version monotonic without per-row
// locking during construction.
func (t *Table) bump() {
	t.mu.Lock()
	t.version.Add(1)
	t.mu.Unlock()
}

// Cluster groups and orders the table's rows per the paper's
// CLUSTER BY / SEQUENCE BY semantics (Figure 1): rows are grouped by the
// cluster columns (group order = first appearance, which keeps output
// deterministic) and each group is sorted ascending by the sequence
// columns. It returns one row-slice per cluster; with no cluster columns
// the whole table is a single cluster.
func (t *Table) Cluster(clusterBy, sequenceBy []string) ([][]Row, error) {
	groups, _, err := t.ClusterVersion(clusterBy, sequenceBy)
	return groups, err
}

// ClusterVersion is Cluster over an atomic Snapshot: it additionally
// returns the data version the partition was built from, so callers can
// pair the groups with the exact table state they reflect. It is a
// from-scratch build — Refresh on the empty Clustering, so every block of
// the build is its own — that keeps nothing for a later refresh: it
// returns a flattened copy of the build's blocked group list
// (Clustering.Groups), whose blocks are garbage once it returns. The groups never alias
// mutable table storage, so they are safe to share read-only across
// goroutines.
func (t *Table) ClusterVersion(clusterBy, sequenceBy []string) ([][]Row, uint64, error) {
	c, err := t.NewClustering(clusterBy, sequenceBy)
	if err != nil {
		return nil, 0, err
	}
	if c, _, err = c.Refresh(); err != nil {
		return nil, 0, err
	}
	return c.Groups.Slice(), c.Version, nil
}

// SortBySequence stable-sorts rows ascending by the indexed sequence
// columns — the exact ordering Cluster applies per group. The shard
// layer sorts its per-shard cluster slabs through the same function so
// sharded partitions are bit-identical to unsharded ones.
func SortBySequence(rows []Row, sidx []int) error {
	if len(sidx) == 0 {
		return nil
	}
	var sortErr error
	slices.SortStableFunc(rows, func(a, b Row) int {
		for _, ci := range sidx {
			c, err := a[ci].Compare(b[ci])
			if err != nil {
				sortErr = err
				return 0
			}
			if c != 0 {
				return c
			}
		}
		return 0
	})
	return sortErr
}

func (t *Table) resolve(names []string) ([]int, error) {
	idx := make([]int, 0, len(names))
	for _, n := range names {
		i, ok := t.Schema.ColumnIndex(n)
		if !ok {
			return nil, fmt.Errorf("storage: %s has no column %q", t.Name, n)
		}
		idx = append(idx, i)
	}
	return idx, nil
}

// ColumnIndexes resolves the named columns (case-insensitive) to their
// schema indices, for callers that partition rows outside the table —
// the shard layer groups snapshot rows with the same indices Cluster
// uses internally.
func (t *Table) ColumnIndexes(names []string) ([]int, error) {
	return t.resolve(names)
}

// AppendRowKey appends a type-tagged encoding of the indexed columns of
// r to b — the canonical cluster-key encoding. Cluster grouping and the
// shard layer's hash placement both use it, so a row hashes to the same
// shard its cluster groups under.
func AppendRowKey(b []byte, r Row, idx []int) []byte {
	return appendClusterKey(b, r, idx)
}

// appendClusterKey appends a type-tagged encoding of the cluster columns
// to b. The tag byte keeps values of different types distinct even when
// their textual forms collide (e.g. the string "42" vs the integer 42).
func appendClusterKey(b []byte, r Row, idx []int) []byte {
	for _, i := range idx {
		b = append(b, byte(r[i].Type()))
		b = r[i].AppendKey(b)
		b = append(b, 0)
	}
	return b
}

// Project returns the values of the named columns of row r.
func (t *Table) Project(r Row, names []string) (Row, error) {
	idx, err := t.resolve(names)
	if err != nil {
		return nil, err
	}
	out := make(Row, len(idx))
	for i, ci := range idx {
		out[i] = r[ci]
	}
	return out, nil
}
