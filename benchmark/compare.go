package main

// -compare a.json b.json: the self-agreement tool. It applies each
// end-to-end metric's bound per workload, and demands that the exact
// counts of both passes are identical when the seeds are.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

func readDoc(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc := &document{}
	if err := json.Unmarshal(b, doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// roundSpread is (max − min) ÷ median of a metric's per-round values, for
// the one metric that has them; 0 for the rest.
func roundSpread(res *e2eResult, metric string) float64 {
	if metric != "throughput_ops_s" || len(res.Rounds) == 0 {
		return 0
	}
	var v []float64
	for _, rr := range res.Rounds {
		v = append(v, rr.ThroughputOps)
	}
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo, hi = min(lo, x), max(hi, x)
	}
	return (hi - lo) / medianFloat(v)
}

// compareDocs prints one row per (workload, metric) and returns non-zero
// on a regression or on any difference in an exact count.
func compareDocs(pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := readDoc(pathA)
	b, errB := readDoc(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	return compare(a, b, stdout)
}

func compare(a, b *document, stdout io.Writer) int {
	sameSeed := a.Seed == b.Seed && a.Quick == b.Quick
	bad := 0
	byName := map[string]*workloadDoc{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	fmt.Fprintf(stdout, "%-14s %-30s %14s %14s %8s  %s\n", "workload", "metric", "a", "b", "worse", "verdict")
	row := func(w, metric string, va, vb, worse float64, verdict string) {
		fmt.Fprintf(stdout, "%-14s %-30s %14.4f %14.4f %+7.1f%%  %s\n", w, metric, va, vb, 100*worse, verdict)
		if verdict == "regressed" || verdict == "differs" {
			bad++
		}
	}
	for _, wa := range a.Workloads {
		wb := byName[wa.Name]
		if wb == nil {
			continue
		}
		if wa.EndToEnd != nil && wb.EndToEnd != nil {
			for _, d := range endToEnd {
				va, vb := wa.EndToEnd.Metrics[d.Name], wb.EndToEnd.Metrics[d.Name]
				worse := (vb - va) / va
				if d.Better == "higher" {
					worse = -worse
				}
				verdict := "ok"
				switch {
				case d.exact && sameSeed && va != vb:
					verdict = "differs"
				case d.exact && sameSeed:
				case worse > d.Bound:
					verdict = "regressed"
				}
				if spread := max(roundSpread(wa.EndToEnd, d.Name), roundSpread(wb.EndToEnd, d.Name)); spread > d.Bound && !d.exact {
					verdict = fmt.Sprintf("unresolved (rounds spread %.0f%%)", 100*spread)
				}
				row(wa.Name, d.Name, va, vb, worse, verdict)
			}
		}
		if wa.PerLayer != nil && wb.PerLayer != nil && sameSeed {
			for _, d := range perLayer {
				va, vb := wa.PerLayer.Metrics[d.Name], wb.PerLayer.Metrics[d.Name]
				if d.exact && va != vb {
					row(wa.Name, d.Name, va, vb, math.NaN(), "differs")
				}
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d row(s) regressed or differ\n", bad)
		return 1
	}
	return 0
}
