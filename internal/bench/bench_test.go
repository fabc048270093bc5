package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sqlts/internal/core"
	"sqlts/internal/engine"
	"sqlts/internal/testutil"
)

func TestReportFormat(t *testing.T) {
	r := &Report{
		ID:     "T1",
		Title:  "test",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"a note"},
	}
	out := r.Format()
	for _, want := range []string{"== T1: test ==", "333", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestKMPTraceReport(t *testing.T) {
	rep := KMPTrace(1, 2000)
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for _, n := range rep.Notes {
		if strings.Contains(n, "MISMATCH") {
			t.Errorf("kmp/naive disagreement: %s", n)
		}
	}
}

func TestDoubleBottomExperimentSmall(t *testing.T) {
	res, evals, err := RunDoubleBottom(1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Days != 2*252 {
		t.Errorf("days = %d", res.Days)
	}
	if res.Matches < 3 {
		t.Errorf("matches = %d, want at least the 3 planted", res.Matches)
	}
	if res.Speedup <= 1 {
		t.Errorf("speedup = %.2f, OPS should beat naive", res.Speedup)
	}
	// All four executors must have been measured.
	for _, k := range []string{"naive", "ops", "ops-shift-only", "ops-no-counters"} {
		if evals[k] <= 0 {
			t.Errorf("no evals recorded for %s", k)
		}
	}
	if evals["ops"] > evals["ops-shift-only"] {
		t.Errorf("full OPS (%d) should not exceed shift-only (%d)", evals["ops"], evals["ops-shift-only"])
	}
}

func TestSweepCasesAgree(t *testing.T) {
	// Every sweep case must produce identical matches across executors
	// (small n to keep the naive runs fast).
	for _, c := range SweepCases(1, 1500) {
		seq := priceRows(c.Prices...)
		tables := core.Compute(c.Pattern)
		nm, ns := engine.NewNaive(c.Pattern, engine.SkipPastLastRow).FindAll(seq)
		om, os := engine.NewOPS(c.Pattern, tables, engine.OPSConfig{Policy: engine.SkipPastLastRow}).FindAll(seq)
		if len(nm) != len(om) {
			t.Errorf("%s: naive %d matches, ops %d", c.Name, len(nm), len(om))
			continue
		}
		for i := range nm {
			if nm[i].Start != om[i].Start || nm[i].End != om[i].End {
				t.Errorf("%s: match %d differs", c.Name, i)
				break
			}
		}
		if os.PredEvals > ns.PredEvals {
			t.Errorf("%s: ops (%d evals) worse than naive (%d)", c.Name, os.PredEvals, ns.PredEvals)
		}
	}
}

func TestPaperPatternsCompile(t *testing.T) {
	for _, p := range []interface{ Len() int }{
		Example4Pattern(), Example4Mirrored(), Example9Pattern(), DoubleBottomPattern(),
	} {
		if p.Len() == 0 {
			t.Error("empty pattern")
		}
	}
	if Example9Pattern().Len() != 7 || DoubleBottomPattern().Len() != 9 {
		t.Error("paper pattern lengths wrong")
	}
}

// TestExperimentsGolden pins the paper reproduction: every report at
// sqltsbench's defaults (seed 1, 25 years, n 50,000), as `sqltsbench -exp
// all` prints it, equals testdata/experiments.golden byte for byte, so a
// change of one predicate evaluation in any experiment fails it. The
// golden is that command's output; regenerate it with
//
//	go run ./cmd/sqltsbench -exp all > internal/bench/testdata/experiments.golden
//
// only when an experiment is meant to change.
func TestExperimentsGolden(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the experiments search on one goroutine; under the race detector this pin takes minutes")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "experiments.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, e := range Experiments(1, 25, 50_000) {
		b.WriteString(e.Run().Format())
		b.WriteByte('\n')
	}
	got, golden := strings.SplitAfter(b.String(), "\n"), strings.SplitAfter(string(want), "\n")
	for len(got) < len(golden) {
		got = append(got, "(no line)\n")
	}
	for len(golden) < len(got) {
		golden = append(golden, "(no line)\n")
	}
	for i := range got {
		if got[i] != golden[i] {
			t.Fatalf("line %d differs from the golden\ngolden: %sgot:    %s", i+1, golden[i], got[i])
		}
	}
}
