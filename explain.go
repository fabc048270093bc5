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
// is not naive — a naive-vs-OPS predicate-evaluation comparison. The
// breakdown and the comparison are measured by a diagnostic pass over the
// clusters after the run (diagnose), whose counters stay out of the
// metrics registry.
func (q *Query) ExplainAnalyze(opts RunOptions) (string, error) {
	q, err := q.current()
	if err != nil {
		return "", err
	}
	text, _, err := q.explainAnalyzeText(opts)
	return text, err
}

// reportBody renders the plan annotated with an already-measured run,
// read from its event: cache outcome, phase timings (the plan's compile
// phases, then this run's admission wait and execute line) and executor
// counters. It is the EXPLAIN ANALYZE layout minus what only the
// diagnostic pass measures — the per-cluster table and the naive
// comparison — shared with the slow-query log, which must not re-execute
// anything.
func (q *Query) reportBody(ev *obs.Event) string {
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
	failed := ev.ErrorKind != ""
	if failed {
		execute.Annotate("error", ev.ErrorKind)
	} else {
		execute.Annotate("clusters", ev.Clusters).
			Annotate("rows-scanned", ev.RowsScanned).
			Annotate("rows", ev.Rows).
			Annotate("plan", cachedWord(ev.PlanCached))
		if ev.Partition != "" { // a run that read no partition searched nothing
			// "denied" is the answer to "why did it run on one core": the
			// others were busy.
			workers := fmt.Sprintf("%d (%d borrowed, %d yielded", ev.Workers, ev.HelpersBorrowed, ev.HelpersYielded)
			if ev.HelpersDenied > 0 {
				workers += fmt.Sprintf(", %d denied: no idle core", ev.HelpersDenied)
			}
			execute.Annotate("partition", ev.Partition).
				Annotate("workers", workers+")")
		}
		execute.Annotate("stats", stats)
	}
	b.WriteString("\nPhases:\n")
	b.WriteString(indent(obs.FormatSpans(append(q.plan.compileTrace().Spans(),
		&obs.Span{Name: "admission", Duration: time.Duration(ev.AdmissionWaitNs)}, execute)), "  "))

	if failed {
		fmt.Fprintf(&b, "Executor %s: failed: %s\n", ev.Executor, ev.Error)
		return b.String()
	}
	fmt.Fprintf(&b, "Executor %s: %s (%d result rows)\n", ev.Executor, stats, ev.Rows)
	return b.String()
}

// clusterTableRows bounds EXPLAIN ANALYZE's per-cluster table, whatever
// the cluster count.
const clusterTableRows = 10

// clusterStat is one cluster's row of EXPLAIN ANALYZE's table: its index
// in first-appearance order, its input rows, and the counters its search
// booked. Every searched cluster has one, matches or not, so skew across
// clusters is visible.
type clusterStat struct {
	cluster, rows int
	stats         engine.Stats
}

// diagnose is EXPLAIN ANALYZE's diagnostic pass over the query's
// clusters. It fetches the partition and its masks once, as a run does,
// and drives each cluster as a one-cluster engine.Run through FindRun
// under the run's executor — a row of the per-cluster table — and, when
// that is not naive, under naive, whose counters it sums. It takes no
// admission slot and records no event or metric, and the run's budgets do
// not apply (the comparison must complete to be meaningful), but
// opts.Context cancels it. Like execute it contains panics: one comes back
// as the typed error. A plain SELECT has no clusters to diagnose.
func (q *Query) diagnose(opts RunOptions) (cs []clusterStat, naive engine.Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			cs, naive, err = nil, engine.Stats{}, q.recovered(r)
		}
	}()
	rc := newRunControl(opts.Context, RunOptions{}, nil)
	if err := rc.check(); err != nil {
		return nil, engine.Stats{}, err
	}
	compiled := q.plan.compiled
	if compiled.Pattern == nil || compiled.AlwaysEmpty() {
		return nil, engine.Stats{}, nil
	}
	part, _, err := q.db.partition(q.plan, opts.NoCache)
	if err != nil {
		return nil, engine.Stats{}, err
	}
	masks := q.plan.masks(part)
	exs := []engine.Executor{q.plan.art.newExecutor(executorKey{opts.Executor, opts.Overlap})}
	if opts.Executor != NaiveExec {
		exs = append(exs, q.plan.art.newExecutor(executorKey{NaiveExec, opts.Overlap}))
	}
	cs = make([]clusterStat, part.Groups.Len())
	r := engine.Run{Clusters: part.Groups, Masks: masks, Sink: diagnosticSink{rc}}
	for k, ex := range exs {
		ex.SetInterrupt(rc.interrupt())
		for i := range cs {
			r.Lo, r.Hi = i, i+1
			if err := ex.FindRun(&r); err != nil {
				return nil, engine.Stats{}, err
			}
			if k == 0 {
				cs[i] = clusterStat{cluster: i, rows: len(part.Groups.At(i)), stats: r.Stats}
			} else {
				naive.Add(r.Stats)
			}
		}
	}
	return cs, naive, nil
}

// diagnosticSink is the sink of the diagnostic pass: before each cluster
// the per-cluster loop searches it takes the pass's checkpoint, and it
// keeps nothing of what is found.
type diagnosticSink struct{ rc *runControl }

func (s diagnosticSink) Enter(int) error                             { return s.rc.check() }
func (diagnosticSink) Found(int, []engine.Match, engine.Stats) error { return nil }
func (diagnosticSink) Tick(int64, int64, int64)                      {}

// writeClusterTable renders the per-cluster breakdown: every cluster in
// cluster order when they fit the table, otherwise the heaviest by
// predicate evaluations under one line of distribution.
func writeClusterTable(b *strings.Builder, cs []clusterStat) {
	if len(cs) < 2 {
		return
	}
	b.WriteString("Clusters:\n")
	if len(cs) > clusterTableRows {
		rows := make([]int64, len(cs))
		evals := make([]int64, len(cs))
		for i, c := range cs {
			rows[i], evals[i] = int64(c.rows), c.stats.PredEvals
		}
		slices.Sort(rows)
		slices.Sort(evals)
		mid, last := len(cs)/2, len(cs)-1
		fmt.Fprintf(b, "  %d clusters: rows min/median/max %d/%d/%d, PredEvals min/median/max %d/%d/%d; the %d heaviest:\n",
			len(cs), rows[0], rows[mid], rows[last], evals[0], evals[mid], evals[last], clusterTableRows)
		slices.SortStableFunc(cs, func(x, y clusterStat) int { return cmp.Compare(y.stats.PredEvals, x.stats.PredEvals) })
		cs = cs[:clusterTableRows]
	}
	for _, c := range cs {
		fmt.Fprintf(b, "  cluster %d: rows=%d %s\n", c.cluster, c.rows, c.stats)
	}
}

func (q *Query) explainAnalyzeText(opts RunOptions) (string, engine.Stats, error) {
	res, ev, err := q.runMeasured(opts)
	if err != nil {
		return "", engine.Stats{}, err
	}
	cs, naive, err := q.diagnose(opts)
	if err != nil {
		return "", engine.Stats{}, err
	}

	var b strings.Builder
	b.WriteString(q.reportBody(&ev))
	writeClusterTable(&b, cs)
	if opts.Executor != NaiveExec {
		fmt.Fprintf(&b, "Naive comparison: %s\n", naive)
		d := naive.Sub(res.Stats)
		if naive.PredEvals > 0 {
			fmt.Fprintf(&b, "  OPS saves %d predicate evaluations (%.1f%%), %d rollbacks\n",
				d.PredEvals, 100*float64(d.PredEvals)/float64(naive.PredEvals), d.Rollbacks)
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
