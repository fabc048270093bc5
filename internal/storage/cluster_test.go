package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// scratchClustering clusters the first n rows of tbl's log from nothing,
// over a table of its own: the reference every refresh must equal.
func scratchClustering(t *testing.T, tbl *Table, n int, clusterBy, sequenceBy []string) [][]Row {
	t.Helper()
	rows, _ := tbl.Snapshot()
	ref := NewTable(tbl.Name, tbl.Schema)
	if err := ref.InsertBatch(rows[:n]); err != nil {
		t.Fatal(err)
	}
	groups, err := ref.Cluster(clusterBy, sequenceBy)
	if err != nil {
		t.Fatal(err)
	}
	return groups
}

// randomQuotes returns n rows over the given names with dates drawn from
// a narrow range, so sequence keys arrive out of order and repeat.
func randomQuotes(r *rand.Rand, names []string, n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{
			NewString(names[r.Intn(len(names))]),
			NewDateDays(int64(r.Intn(40))),
			NewFloat(float64(r.Intn(1000))),
		}
	}
	return rows
}

func sameBacking(a, b []Row) bool { return len(a) == len(b) && &a[0] == &b[0] }

// TestPartitionRefreshMatchesBuild is the storage half of the refresh
// differential: a chain of refreshes over random appends — into existing
// clusters, into new ones, with out-of-order and duplicate sequence keys,
// with and without CLUSTER BY — equals a from-scratch build after every
// step, shares every untouched cluster's rows with its base, counts
// exactly the clusters it re-sorted or added, and leaves the base as it
// was. It
// starts from three names and from one row in each of 63, 64, 65 and 129
// clusters, so new keys land in full, nearly full and partly filled last
// blocks: a block of clusters none of which changed is its base's, and
// one holding a changed or new cluster is not.
func TestPartitionRefreshMatchesBuild(t *testing.T) {
	for _, clusters := range []int{3, 63, 64, 65, 129} {
		for _, clusterBy := range [][]string{{"name"}, nil} {
			r := rand.New(rand.NewSource(13))
			tbl := NewTable("quote", quoteSchema(t))
			names := []string{"A", "B", "C"}
			if clusters > 3 {
				names = names[:0]
				for i := 0; i < clusters; i++ {
					names = append(names, fmt.Sprintf("S%03d", i))
					tbl.MustInsert(NewString(names[i]), NewDateDays(20), NewFloat(1))
				}
			}
			sequenceBy := []string{"date"}
			gen, err := tbl.NewClustering(clusterBy, sequenceBy)
			if err != nil {
				t.Fatal(err)
			}
			intoShared := 0
			for step := 0; step < 60; step++ {
				label := fmt.Sprintf("%d clusters, cluster by %v, step %d", clusters, clusterBy, step)
				if r.Intn(3) == 0 {
					names = append(names, fmt.Sprintf("N%d", step))
				}
				for b := r.Intn(3); b >= 0; b-- {
					// A batch may be empty: the version moves, the rows don't.
					if err := tbl.InsertBatch(randomQuotes(r, names, r.Intn(7))); err != nil {
						t.Fatal(err)
					}
				}
				base := gen.Groups
				baseRows := base.Slice()
				for i, g := range baseRows {
					baseRows[i] = append([]Row(nil), g...)
				}
				next, changed, err := gen.Refresh()
				if err != nil {
					t.Fatal(err)
				}
				if next.Rows != tbl.Len() || next.Version != tbl.Version() {
					t.Fatalf("%s: refresh covers %d rows at version %d, table has %d at %d",
						label, next.Rows, next.Version, tbl.Len(), tbl.Version())
				}
				if got, want := next.Groups.Slice(), scratchClustering(t, tbl, next.Rows, clusterBy, sequenceBy); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: refresh differs from a build:\n%v\n%v", label, got, want)
				}
				// The carried clusters the appended rows land in, found by name.
				at := map[string]int{}
				for i, g := range baseRows {
					at[g[0][0].Str()] = i
				}
				rows, _ := tbl.Snapshot()
				dirty := map[int]bool{}
				for _, r := range rows[gen.Rows:next.Rows] {
					if gi, ok := at[r[0].Str()]; ok || clusterBy == nil && base.Len() > 0 {
						dirty[gi] = true
					}
				}
				if want := len(dirty) + next.Groups.Len() - base.Len(); changed != want {
					t.Fatalf("%s: the refresh reports %d clusters changed, %d were re-sorted or added", label, changed, want)
				}
				for i := 0; i < base.Len(); i++ {
					if shared := sameBacking(next.Groups.At(i), base.At(i)); shared == dirty[i] {
						t.Fatalf("%s: cluster %d shares its base's rows = %v, reported re-sorted = %v", label, i, shared, dirty[i])
					}
				}
				for lo := 0; lo < base.Len(); lo += BlockLen {
					touched := next.Groups.Len() > base.Len() && lo+BlockLen > base.Len()
					for i := lo; i < min(lo+BlockLen, base.Len()); i++ {
						touched = touched || dirty[i]
					}
					if shared := next.Groups.Block(lo) == base.Block(lo); shared == touched {
						t.Fatalf("%s: the block at cluster %d is shared = %v, holds a changed or new cluster = %v", label, lo, shared, touched)
					}
				}
				if base.Len()%BlockLen != 0 && next.Groups.Len() > base.Len() {
					intoShared++
				}
				// The reader still holding the base sees it unchanged.
				if !reflect.DeepEqual(gen.Groups.Slice(), baseRows) {
					t.Fatalf("%s: refresh wrote into its base", label)
				}
				gen = next
			}
			if clusterBy != nil && intoShared == 0 {
				t.Errorf("%d clusters: no refresh added a cluster to a partly filled block", clusters)
			}
		}
	}
}

// TestPartitionRefreshFallback pins the cases Refresh refuses, leaving
// the caller to build from the empty clustering: a shrunken table, rows
// edited under the clustering, and an appended suffix that does not sort.
func TestPartitionRefreshFallback(t *testing.T) {
	build := func(tbl *Table) *Clustering {
		t.Helper()
		c, err := tbl.NewClustering([]string{"name"}, []string{"date"})
		if err != nil {
			t.Fatal(err)
		}
		if c, _, err = c.Refresh(); err != nil {
			t.Fatal(err)
		}
		return c
	}
	tbl := NewTable("quote", quoteSchema(t))
	tbl.MustInsert(NewString("A"), NewDateDays(1), NewFloat(1))
	tbl.MustInsert(NewString("B"), NewDateDays(1), NewFloat(1))

	shrunk := build(tbl)
	tbl.Rows = tbl.Rows[:1]
	if _, _, err := shrunk.Refresh(); err == nil {
		t.Error("refresh accepted a table shorter than its base")
	}

	// A refresh of the lineage indexed keys C and D; then the log is edited
	// so that D follows B directly. D's index now skips one.
	tbl = NewTable("quote", quoteSchema(t))
	tbl.MustInsert(NewString("A"), NewDateDays(1), NewFloat(1))
	tbl.MustInsert(NewString("B"), NewDateDays(1), NewFloat(1))
	edited := build(tbl)
	tbl.MustInsert(NewString("C"), NewDateDays(1), NewFloat(1))
	tbl.MustInsert(NewString("D"), NewDateDays(1), NewFloat(1))
	if next, _, err := edited.Refresh(); err != nil || next.Groups.Len() != 4 {
		t.Fatalf("refresh: %v, %v", next, err)
	}
	tbl.Rows = []Row{tbl.Rows[0], tbl.Rows[1], tbl.Rows[3]}
	if _, _, err := edited.Refresh(); err == nil {
		t.Error("refresh accepted rows that do not extend the clustered prefix")
	}

	// NULL does not compare with a date.
	tbl = NewTable("quote", quoteSchema(t))
	tbl.MustInsert(NewString("A"), NewDateDays(1), NewFloat(1))
	base := build(tbl)
	tbl.MustInsert(NewString("A"), Null, NewFloat(2))
	if _, _, err := base.Refresh(); err == nil {
		t.Error("refresh sorted a NULL sequence key among dates")
	}
	if base.Groups.Len() != 1 || len(base.Groups.At(0)) != 1 {
		t.Errorf("failed refresh changed its base: %v", base.Groups.Slice())
	}
	if _, _, err := tbl.ClusterVersion([]string{"name"}, []string{"date"}); err == nil {
		t.Error("the full build accepted what the refresh refused")
	}
}

// TestPartitionRefreshConcurrent refreshes one lineage from several
// goroutines while a writer appends rows under new and old keys. The
// refreshers share the key directory and see snapshots of different
// lengths — a shorter one may well run after a longer one assigned keys
// it has not reached — and every generation must equal a from-scratch
// build of exactly the prefix it consumed. Meaningful under -race.
func TestPartitionRefreshConcurrent(t *testing.T) {
	tbl := NewTable("quote", quoteSchema(t))
	r := rand.New(rand.NewSource(7))
	if err := tbl.InsertBatch(randomQuotes(r, []string{"A", "B", "C"}, 30)); err != nil {
		t.Fatal(err)
	}
	clusterBy, sequenceBy := []string{"name"}, []string{"date"}
	empty, err := tbl.NewClustering(clusterBy, sequenceBy)
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := empty.Refresh()
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		names := []string{"A", "B", "C"}
		for i := 0; i < 150; i++ {
			names = append(names, fmt.Sprintf("N%d", i))
			if err := tbl.InsertBatch(randomQuotes(r, names[len(names)-3:], 4)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	gens := make([][]*Clustering, 4)
	for g := range gens {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			from := base
			for stop := false; !stop; {
				select {
				case <-done:
					stop = true // one last refresh, over the final table
				default:
				}
				// Even goroutines all refresh the same stale base; odd ones
				// walk the lineage forward.
				next, _, err := from.Refresh()
				if err != nil {
					t.Error(err)
					return
				}
				gens[g] = append(gens[g], next)
				if g%2 == 1 {
					from = next
				}
			}
		}(g)
	}
	wg.Wait()
	want := map[int][][]Row{}
	for g := range gens {
		for _, c := range gens[g] {
			if want[c.Rows] == nil {
				want[c.Rows] = scratchClustering(t, tbl, c.Rows, clusterBy, sequenceBy)
			}
			if !reflect.DeepEqual(c.Groups.Slice(), want[c.Rows]) {
				t.Fatalf("goroutine %d: generation over %d rows differs from a build", g, c.Rows)
			}
		}
		if last := gens[g][len(gens[g])-1]; last.Rows != tbl.Len() {
			t.Errorf("goroutine %d: last refresh covers %d of %d rows", g, last.Rows, tbl.Len())
		}
	}
}
