package sqlts

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"sqlts/internal/engine"
	"sqlts/internal/obs"
	"sqlts/internal/storage"
)

// planResult wraps rendered plan text as a one-column result, Postgres
// style: one "QUERY PLAN" row per line. stats carries the primary run's
// counters (zero for plain EXPLAIN) so callers that print statistics
// after every SELECT keep working.
func planResult(text string, stats engine.Stats) *Result {
	res := &Result{
		Columns: []string{"QUERY PLAN"},
		Types:   []storage.Type{storage.TypeString},
		Stats:   stats,
	}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		res.Rows = append(res.Rows, storage.Row{storage.NewString(line)})
	}
	return res
}

// ExplainAnalyze executes the query with the given options and renders
// the compiled plan annotated with measured per-phase timings, runtime
// counters, the per-cluster breakdown, and — when the primary executor
// is not naive — a naive-vs-OPS predicate-evaluation comparison (the
// comparison re-executes the query with the naive executor; it is a
// diagnostic, and its counters stay out of the metrics registry).
func (q *Query) ExplainAnalyze(opts RunOptions) (string, error) {
	text, _, err := q.explainAnalyzeText(opts)
	return text, err
}

// reportBody renders the plan annotated with an already-measured run,
// read from its event: cache outcome, phase timings (the plan's compile
// phases, then this run's admission wait and execute line), executor
// counters, and — from res, nil for a failed run — the per-cluster
// breakdown. It is the EXPLAIN ANALYZE layout minus the naive comparison,
// shared with the slow-query log (which must not re-execute anything).
func (q *Query) reportBody(ev *obs.Event, res *Result) string {
	var b strings.Builder
	b.WriteString(q.explain(ev.Executor))
	fmt.Fprintf(&b, "plan: %s\n", planWord(ev.PlanCached, ev.PatternCached))
	if ev.Partition != "" {
		fmt.Fprintf(&b, "partition: %s\n", ev.Partition)
	}
	if ev.Vectorized {
		b.WriteString("execution: vectorized (selection bitmasks)\n")
	}
	stats := eventStats(ev)
	execute := &obs.Span{Name: "execute", Duration: time.Duration(ev.DurationNs)}
	execute.Annotate("executor", ev.Executor)
	if res == nil {
		execute.Annotate("error", ev.ErrorKind)
	} else {
		// "denied" is the answer to "why did it run on one core": the
		// others were busy.
		workers := fmt.Sprintf("%d (%d borrowed, %d yielded", ev.Workers, ev.HelpersBorrowed, ev.HelpersYielded)
		if ev.HelpersDenied > 0 {
			workers += fmt.Sprintf(", %d denied: no idle core", ev.HelpersDenied)
		}
		workers += ")"
		execute.Annotate("clusters", ev.Clusters).
			Annotate("rows-scanned", ev.RowsScanned).
			Annotate("rows", ev.Rows).
			Annotate("plan", cachedWord(ev.PlanCached)).
			Annotate("partition", ev.Partition).
			Annotate("workers", workers).
			Annotate("stats", stats)
	}
	b.WriteString("\nPhases:\n")
	b.WriteString(indent(obs.FormatSpans(append(q.plan.trace.Spans(),
		&obs.Span{Name: "admission", Duration: time.Duration(ev.AdmissionWaitNs)}, execute)), "  "))

	if res == nil {
		fmt.Fprintf(&b, "Executor %s: failed: %s\n", ev.Executor, ev.Error)
		return b.String()
	}
	fmt.Fprintf(&b, "Executor %s: %s (%d result rows)\n", ev.Executor, stats, ev.Rows)
	writeClusterTable(&b, res.ClusterStats())
	return b.String()
}

// clusterTableRows bounds EXPLAIN ANALYZE's per-cluster table — and with it
// the report a slow-log record retains — whatever the cluster count.
const clusterTableRows = 10

// writeClusterTable renders the per-cluster breakdown: every cluster in
// cluster order when they fit the table, otherwise the heaviest by
// predicate evaluations under one line of distribution.
func writeClusterTable(b *strings.Builder, cs []ClusterStat) {
	if len(cs) < 2 {
		return
	}
	b.WriteString("Clusters:\n")
	if len(cs) > clusterTableRows {
		rows := make([]int64, len(cs))
		evals := make([]int64, len(cs))
		for i, c := range cs {
			rows[i], evals[i] = int64(c.Rows), c.Stats.PredEvals
		}
		slices.Sort(rows)
		slices.Sort(evals)
		mid, last := len(cs)/2, len(cs)-1
		fmt.Fprintf(b, "  %d clusters: rows min/median/max %d/%d/%d, PredEvals min/median/max %d/%d/%d; the %d heaviest:\n",
			len(cs), rows[0], rows[mid], rows[last], evals[0], evals[mid], evals[last], clusterTableRows)
		slices.SortStableFunc(cs, func(x, y ClusterStat) int { return cmp.Compare(y.Stats.PredEvals, x.Stats.PredEvals) })
		cs = cs[:clusterTableRows]
	}
	for _, c := range cs {
		fmt.Fprintf(b, "  cluster %d: rows=%d %s\n", c.Cluster, c.Rows, c.Stats)
	}
}

func (q *Query) explainAnalyzeText(opts RunOptions) (string, engine.Stats, error) {
	res, ev, err := q.runMeasured(opts)
	if err != nil {
		return "", engine.Stats{}, err
	}

	var b strings.Builder
	b.WriteString(q.reportBody(&ev, res))

	if opts.Executor != NaiveExec {
		nopts := opts
		nopts.Executor = NaiveExec
		// Diagnostic re-run: no admission slot, no metrics, and the
		// caller's budgets don't apply (the comparison must complete to
		// be meaningful) — but panics are still contained by execute.
		nres, _, nerr := q.execute(newRunControl(opts.Context, RunOptions{}, nil), nopts)
		if nerr != nil {
			return "", engine.Stats{}, nerr
		}
		fmt.Fprintf(&b, "Naive comparison: %s\n", nres.Stats)
		d := nres.Stats.Sub(res.Stats)
		if nres.Stats.PredEvals > 0 {
			fmt.Fprintf(&b, "  OPS saves %d predicate evaluations (%.1f%%), %d rollbacks\n",
				d.PredEvals, 100*float64(d.PredEvals)/float64(nres.Stats.PredEvals), d.Rollbacks)
		}
	}
	return b.String(), res.Stats, nil
}

// planWord renders the plan-cache outcome for EXPLAIN ANALYZE: a plan
// compiled for the run may have found its pattern compiled already.
func planWord(hit, patternHit bool) string {
	if hit {
		return "cached"
	}
	if patternHit {
		return "compiled (pattern cached)"
	}
	return "compiled"
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = prefix + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
