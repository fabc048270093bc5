package shard_test

import (
	"fmt"
	"reflect"
	"testing"

	"sqlts/internal/bench"
	"sqlts/internal/pattern"
	"sqlts/internal/shard"
	"sqlts/internal/storage"
	"sqlts/internal/workload"
)

// quoteTable builds a quote(name, date, price) table with the rows
// interleaved across symbols (row r of every symbol before row r+1 of
// any) and dates descending, so grouping must preserve first-appearance
// order and per-cluster sorting must actually reorder.
func quoteTable(t *testing.T, clusters, rowsPer int) *storage.Table {
	t.Helper()
	schema := storage.MustSchema(
		storage.Column{Name: "name", Type: storage.TypeString},
		storage.Column{Name: "date", Type: storage.TypeDate},
		storage.Column{Name: "price", Type: storage.TypeFloat},
	)
	tbl := storage.NewTable("quote", schema)
	for r := 0; r < rowsPer; r++ {
		for c := 0; c < clusters; c++ {
			tbl.MustInsert(
				storage.NewString(fmt.Sprintf("s%02d", c)),
				storage.NewDateDays(int64(rowsPer-r)),
				storage.NewFloat(100+float64(r)+float64(c)/10),
			)
		}
	}
	return tbl
}

func buildFrom(t *testing.T, tbl *storage.Table, nshards int) *shard.Partition {
	t.Helper()
	rows, ver := tbl.Snapshot()
	cidx, err := tbl.ColumnIndexes([]string{"name"})
	if err != nil {
		t.Fatal(err)
	}
	sidx, err := tbl.ColumnIndexes([]string{"date"})
	if err != nil {
		t.Fatal(err)
	}
	p, err := shard.Build(rows, ver, cidx, sidx, nshards)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBuildMatchesSerialClustering: the sharded partition's global
// cluster order and per-cluster rows must be exactly what the serial
// path's storage.Table.Cluster produces.
func TestBuildMatchesSerialClustering(t *testing.T) {
	tbl := quoteTable(t, 13, 7)
	for _, nshards := range []int{1, 2, 4, 8, 64} {
		p := buildFrom(t, tbl, nshards)
		want, err := tbl.Cluster([]string{"name"}, []string{"date"})
		if err != nil {
			t.Fatal(err)
		}
		if p.NumShards() != nshards {
			t.Fatalf("NumShards = %d, want %d", p.NumShards(), nshards)
		}
		if p.NumClusters() != len(want) {
			t.Fatalf("nshards=%d: %d clusters, want %d", nshards, p.NumClusters(), len(want))
		}
		if !reflect.DeepEqual(p.OrderedRows(), want) {
			t.Fatalf("nshards=%d: sharded cluster layout differs from serial clustering", nshards)
		}
		total := 0
		for _, s := range p.Shards() {
			total += s.NumClusters()
		}
		if total != p.NumClusters() {
			t.Fatalf("nshards=%d: shards hold %d clusters, partition reports %d", nshards, total, p.NumClusters())
		}
	}
}

// TestBuildNoClusterColumns: with no CLUSTER BY the whole input is one
// sequence-sorted cluster.
func TestBuildNoClusterColumns(t *testing.T) {
	tbl := quoteTable(t, 3, 5)
	rows, ver := tbl.Snapshot()
	sidx, err := tbl.ColumnIndexes([]string{"date"})
	if err != nil {
		t.Fatal(err)
	}
	p, err := shard.Build(rows, ver, nil, sidx, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumClusters() != 1 {
		t.Fatalf("NumClusters = %d, want 1", p.NumClusters())
	}
	got := p.ClusterAt(0)
	if len(got) != len(rows) {
		t.Fatalf("cluster holds %d rows, want %d", len(got), len(rows))
	}
	for i := 1; i < len(got); i++ {
		c, err := got[i-1][1].Compare(got[i][1])
		if err != nil {
			t.Fatal(err)
		}
		if c > 0 {
			t.Fatalf("cluster not sorted by date at row %d", i)
		}
	}
}

// TestRefreshMatchesRebuild: an incremental Refresh over appended rows
// must be bit-identical to a full Build, rebuild only the shards the
// delta touched, and share every other shard pointer-identical.
func TestRefreshMatchesRebuild(t *testing.T) {
	tbl := quoteTable(t, 10, 6)
	const nshards = 4
	p := buildFrom(t, tbl, nshards)

	// Delta: rows into two existing clusters plus one brand-new cluster.
	for _, name := range []string{"s03", "s03", "s07", "zz-new", "zz-new"} {
		tbl.MustInsert(storage.NewString(name), storage.NewDateDays(0), storage.NewFloat(55))
	}
	rows, ver := tbl.Snapshot()
	np, stats, ok := p.Refresh(rows, ver)
	if !ok {
		t.Fatal("Refresh reported ok=false for an append-only delta")
	}
	full := buildFrom(t, tbl, nshards)
	if !reflect.DeepEqual(np.OrderedRows(), full.OrderedRows()) {
		t.Fatal("refreshed partition differs from full rebuild")
	}
	if np.Version() != ver || np.Rows() != len(rows) {
		t.Fatalf("refreshed version/rows = %d/%d, want %d/%d", np.Version(), np.Rows(), ver, len(rows))
	}
	if stats.NewRows != 5 || stats.NewClusters != 1 {
		t.Fatalf("RefreshStats = %+v, want NewRows=5 NewClusters=1", stats)
	}
	if stats.Dirty < 1 || stats.Dirty > 3 {
		t.Fatalf("Dirty = %d, want 1..3 (3 clusters touched)", stats.Dirty)
	}

	// Copy-on-invalidate is per-shard: untouched shards are the same
	// object at the same version; dirty shards are replacements with a
	// bumped version.
	rebuilt := 0
	for i, old := range p.Shards() {
		ns := np.Shards()[i]
		if ns == old {
			if ns.Version() != 1 {
				t.Fatalf("shard %d shared but version %d", i, ns.Version())
			}
			continue
		}
		rebuilt++
		if ns.Version() != old.Version()+1 {
			t.Fatalf("shard %d rebuilt with version %d, want %d", i, ns.Version(), old.Version()+1)
		}
	}
	if rebuilt != stats.Dirty {
		t.Fatalf("%d shards replaced, stats.Dirty = %d", rebuilt, stats.Dirty)
	}
}

// TestRefreshNoDelta: a refresh with no appended rows shares everything.
func TestRefreshNoDelta(t *testing.T) {
	tbl := quoteTable(t, 6, 4)
	p := buildFrom(t, tbl, 3)
	rows, ver := tbl.Snapshot()
	np, stats, ok := p.Refresh(rows, ver+1)
	if !ok {
		t.Fatal("Refresh reported ok=false")
	}
	if stats.Dirty != 0 || stats.NewRows != 0 || stats.NewClusters != 0 {
		t.Fatalf("RefreshStats = %+v, want all zero", stats)
	}
	for i := range p.Shards() {
		if np.Shards()[i] != p.Shards()[i] {
			t.Fatalf("shard %d not shared across a no-op refresh", i)
		}
	}
}

// TestRefreshShrunkenInput: fewer rows than the generation was built
// from means the table was replaced, not appended to.
func TestRefreshShrunkenInput(t *testing.T) {
	tbl := quoteTable(t, 4, 4)
	p := buildFrom(t, tbl, 2)
	rows, ver := tbl.Snapshot()
	if _, _, ok := p.Refresh(rows[:len(rows)-1], ver+1); ok {
		t.Fatal("Refresh accepted a shrunken input")
	}
}

// TestMemoIdentity: masks — and never a projection, whether or not the
// masks answer every element — are built once per (shard, kernel) and
// shared thereafter, including across a refresh that did not touch the
// shard.
func TestMemoIdentity(t *testing.T) {
	prices := workload.DJIA25Years(7)
	rows := make([]storage.Row, len(prices))
	for i, pr := range prices {
		rows[i] = storage.Row{storage.NewFloat(pr)}
	}
	p, err := shard.Build(rows, 1, nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	k := bench.DoubleBottomPattern().CompileKernel()
	if k == nil {
		t.Fatal("double-bottom pattern compiled no kernel")
	}
	if !k.AllPure() {
		t.Fatal("the double bottom's masks do not answer every element")
	}
	s := p.Shards()[0]
	ms1, ms2 := s.Memo(k), s.Memo(k)
	if len(ms1) != 1 || ms1[0] != ms2[0] {
		t.Fatal("masks not memoized")
	}

	// A kernel with a cross condition, and one with an opaque element: the
	// masks answer what they hold, the interpreter the rest, so their memos
	// hold masks too and nothing else.
	cross := bench.DoubleBottomPattern()
	cross.Elems[1].CrossConds = append(cross.Elems[1].CrossConds,
		pattern.Cross("true", func(*pattern.EvalContext) bool { return true }))
	opaque := bench.DoubleBottomPattern()
	opaque.Elems[0].Local = append(opaque.Elems[0].Local,
		pattern.Opaque("true", func(_, _ storage.Row) bool { return true }))
	var kernels []*pattern.Kernel
	for _, kp := range []*pattern.Pattern{cross, opaque} {
		kc := kp.CompileKernel()
		if kc.AllPure() {
			t.Fatal("a cross or opaque element went unnoticed")
		}
		mc1, mc2 := s.Memo(kc), s.Memo(kc)
		if len(mc1) != 1 || mc1[0] != mc2[0] {
			t.Fatal("masks of a cross-condition or opaque-element kernel not memoized")
		}
		kernels = append(kernels, kc)
	}
	if s.Kernels() != 3 {
		t.Fatalf("Kernels() = %d, want 3", s.Kernels())
	}
	if projs := projectionsIn(reflect.ValueOf(s)); projs != 0 {
		t.Fatalf("the shard's memos hold %d projections", projs)
	}

	// A refresh with no delta carries the shard — and its memos — over.
	np, _, ok := p.Refresh(rows, 2)
	if !ok {
		t.Fatal("Refresh reported ok=false")
	}
	if ms := np.Shards()[0].Memo(k); ms[0] != ms1[0] {
		t.Fatal("memo lost across a no-op refresh")
	}
	for _, kc := range kernels {
		if ms := np.Shards()[0].Memo(kc); ms[0] != s.Memo(kc)[0] {
			t.Fatal("memo lost across a no-op refresh")
		}
	}
}

// projectionsIn counts the storage.Projection values reachable from v
// through pointers, slices, maps and struct fields, each pointer followed
// once.
func projectionsIn(v reflect.Value) int {
	seen := map[uintptr]bool{}
	var walk func(v reflect.Value) int
	walk = func(v reflect.Value) int {
		n := 0
		switch v.Kind() {
		case reflect.Pointer:
			if !v.IsNil() && !seen[v.Pointer()] {
				seen[v.Pointer()] = true
				n = walk(v.Elem())
			}
		case reflect.Interface:
			n = walk(v.Elem())
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				n += walk(v.Index(i))
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				n += walk(it.Key()) + walk(it.Value())
			}
		case reflect.Struct:
			if v.Type() == reflect.TypeOf(storage.Projection{}) {
				return 1
			}
			for i := 0; i < v.NumField(); i++ {
				n += walk(v.Field(i))
			}
		}
		return n
	}
	return walk(v)
}

// TestProjectionsNilKernel: nil or empty kernels produce no masks.
func TestProjectionsNilKernel(t *testing.T) {
	tbl := quoteTable(t, 2, 3)
	p := buildFrom(t, tbl, 2)
	for _, s := range p.Shards() {
		if ms := s.Memo(nil); ms != nil {
			t.Fatal("Memo(nil) built something")
		}
	}
}
