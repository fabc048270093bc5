package engine

// TestPlainCountsGolden pins what OPS spends on star-free patterns. The
// golden was written by the §4.2.1 search loop that star-free patterns ran
// before the §5 loops served every pattern, so it holds that loop's
// counters, matches and search paths; every loop that now serves such a
// pattern, over the kernel's masks, and the incremental matcher must
// reproduce them to the digit. Regenerate with
//
//	go test ./internal/engine -run PlainCountsGolden -update-plain-counts
//
// only when the §4.2 semantics themselves are meant to change.

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sqlts/internal/core"
	"sqlts/internal/pattern"
	"sqlts/internal/storage"
	"sqlts/internal/testutil"
)

var updatePlainCounts = flag.Bool("update-plain-counts", false, "rewrite testdata/plain_counts.golden")

const plainCountsGolden = "plain_counts.golden"

// starFree is p with every element plain: a generator's draw made
// star-free without disturbing anything else it drew.
func starFree(p *pattern.Pattern) *pattern.Pattern {
	q := *p
	q.Elems = slices.Clone(p.Elems)
	for i := range q.Elems {
		q.Elems[i].Star = false
	}
	return &q
}

// plainDraw is the golden's draw d: a star-free pattern from one of the
// differentials' generators and a sequence it can match.
func plainDraw(t testing.TB, d int) (*pattern.Pattern, []storage.Row) {
	r := rand.New(rand.NewSource(int64(31_000 + d)))
	n := pureLens[d/4%len(pureLens)]
	switch d % 4 {
	case 0:
		return starFree(purePattern(t, r)), pureSeq(r, n)
	case 1:
		return starFree(repeatPattern(t, r)), walkSeq(r, n)
	case 2:
		return starFree(crossPattern(t, r)), pureSeq(r, n)
	}
	return starFree(diffPattern(t, r)), diffSeq(r, n)
}

// plainConfigs are the OPS configurations the golden covers, by name.
var plainConfigs = []struct {
	name string
	cfg  OPSConfig
}{
	{"default", OPSConfig{}},
	{"shift-only", OPSConfig{Variant: ShiftOnly}},
	{"no-counters", OPSConfig{Variant: NoCounters}},
	{"skip", OPSConfig{Variant: LastRowSkip}},
}

// matchHash digests matches and their spans.
func matchHash(ms []Match) uint64 {
	h := fnv.New64a()
	for _, m := range ms {
		fmt.Fprintf(h, "%d %d", m.Start, m.End)
		for _, s := range m.Spans {
			fmt.Fprintf(h, " %d-%d-%v", s.Start, s.End, s.Set)
		}
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// pathHash digests a search path.
func pathHash(path []PathPoint) uint64 {
	h := fnv.New64a()
	for _, pt := range path {
		fmt.Fprintf(h, "%d,%d;", pt.I, pt.J)
	}
	return h.Sum64()
}

// plainLine renders one case: its counters and digests.
func plainLine(d int, policy SkipPolicy, cfg string, st Stats, matches, path uint64) string {
	pol := "past"
	if policy == SkipToNextRow {
		pol = "next"
	}
	return fmt.Sprintf("%d %s %s %d %d %d %016x %016x", d, pol, cfg, st.PredEvals, st.Rollbacks, st.Matches, matches, path)
}

func TestPlainCountsGolden(t *testing.T) {
	const draws = 300
	var got []string
	check := func(label, want, line string) {
		t.Helper()
		if line != want {
			t.Fatalf("%s diverges from the golden\ngolden: %s\ngot:    %s", label, want, line)
		}
	}
	for d := 0; d < draws; d++ {
		p, seq := plainDraw(t, d)
		tab, k := core.Compute(p), p.CompileKernel()
		ms := testutil.Masks(k, seq)
		if tab.HasStar {
			t.Fatalf("draw %d: starFree left a star", d)
		}
		for _, policy := range []SkipPolicy{SkipPastLastRow, SkipToNextRow} {
			for _, c := range plainConfigs {
				cfg := c.cfg
				cfg.Policy = policy
				// The reference: interpreted and traced, so the path is every probe.
				ref := NewOPS(p, tab, cfg)
				ref.Trace()
				rm, rs := ref.FindAll(seq)
				line := plainLine(d, policy, c.name, rs, matchHash(rm), pathHash(ref.Path()))
				got = append(got, line)
				if int64(len(ref.Path())) != rs.PredEvals {
					t.Fatalf("draw %d %s: %d path points for %d pred-evals", d, c.name, len(ref.Path()), rs.PredEvals)
				}
				o := NewOPS(p, tab, cfg)
				o.UseKernel(k)
				o.UseMasks(ms)
				om, st := o.FindAll(seq)
				check(fmt.Sprintf("draw %d %s masks", d, c.name), line,
					plainLine(d, policy, c.name, st, matchHash(om), pathHash(ref.Path())))
				if cfg.Variant != Default {
					continue // the incremental matcher runs the default rule
				}
				var sm []Match
				s := NewStreamer(p, StreamConfig{Policy: policy}, func(m Match) {
					m.Spans = slices.Clone(m.Spans)
					sm = append(sm, m)
				})
				s.UseKernel(k)
				for _, row := range seq {
					if err := s.Push(row); err != nil {
						t.Fatal(err)
					}
				}
				s.Flush()
				check(fmt.Sprintf("draw %d %s stream", d, c.name), line,
					plainLine(d, policy, c.name, s.Stats(), matchHash(sm), pathHash(ref.Path())))
			}
		}
	}

	path := filepath.Join("testdata", plainCountsGolden)
	if *updatePlainCounts {
		body := "# draw policy config pred-evals rollbacks matches match-digest path-digest\n" + strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("the golden holds %d cases, the test ran %d", len(want), len(got))
	}
	for i := range want {
		check("case", want[i], got[i])
	}
	if len(got) < 2000 {
		t.Fatalf("%d cases; the golden must cover at least 2000", len(got))
	}
}
