package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"time"

	"sqlts"
	"sqlts/internal/query"
)

// repl reads semicolon-terminated statements from in and executes them
// against db, printing results to out. Meta-commands start with a
// backslash:
//
//	\q            quit
//	\tables       list tables
//	\explain      toggle plan printing
//	\exec NAME    switch executor (ops or naive)
//	\workers [n]  search each statement's clusters on n goroutines
//	              (0 = elastic, the default: borrow the cores no other
//	              query is searching on; 1 = serially)
//	\counters     toggle the per-query counter line after each SELECT
//	\stats        print the per-statement statistics table (calls,
//	              latency quantiles, pred-evals, cache hit rates)
//	\slowlog [full]  print the retained slow-query log (full: with each
//	              record's annotated plan report)
//	\timing [on|off]  toggle wall-clock timing of each statement
//	              (cache hits are noted on the timing line)
//	\timeout [dur|off]  bound each statement's execution (e.g. 500ms,
//	              2s); a statement past its deadline fails with the
//	              typed deadline error instead of running away
//	\cache        plan/partition cache sizes, hit rates, table versions
//	\metrics      dump the Prometheus metrics registry
//
// EXPLAIN [ANALYZE] SELECT ... statements pass through to the engine
// and print the rendered plan.
//
// Ctrl-C cancels the in-flight statement (surfacing the typed
// cancellation error) instead of exiting the shell; \q exits.
func repl(db *sqlts.DB, in io.Reader, out io.Writer, kind sqlts.ExecutorKind, overlap bool) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var buf strings.Builder
	explain := false
	stats := false
	timing := false
	workers := 0
	var timeout time.Duration

	// SIGINT cancels the statement currently executing (if any) rather
	// than killing the shell. The holder hands each statement's cancel
	// func to the signal goroutine for the duration of its run.
	var cancelMu sync.Mutex
	var cancelCurrent context.CancelFunc
	setCancel := func(c context.CancelFunc) {
		cancelMu.Lock()
		cancelCurrent = c
		cancelMu.Unlock()
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	defer signal.Stop(sigc)
	sigDone := make(chan struct{})
	defer close(sigDone)
	go func() {
		for {
			select {
			case <-sigc:
				cancelMu.Lock()
				if cancelCurrent != nil {
					cancelCurrent()
				}
				cancelMu.Unlock()
			case <-sigDone:
				return
			}
		}
	}()

	fmt.Fprintln(out, `sqlts interactive shell — end statements with ';', \q to quit`)
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Fprint(out, "sqlts> ")
		} else {
			fmt.Fprint(out, "  ...> ")
		}
	}
	prompt()
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, `\`) {
			switch {
			case trimmed == `\q` || trimmed == `\quit`:
				return nil
			case trimmed == `\tables`:
				for _, n := range db.TableNames() {
					t := db.Table(n)
					fmt.Fprintf(out, "%s %s (%d rows)\n", n, t.Schema, t.Len())
				}
			case trimmed == `\explain`:
				explain = !explain
				fmt.Fprintf(out, "explain: %v\n", explain)
			case trimmed == `\workers` || strings.HasPrefix(trimmed, `\workers `):
				arg := strings.TrimSpace(strings.TrimPrefix(trimmed, `\workers`))
				if arg != "" {
					n, err := strconv.Atoi(arg)
					if err != nil || n < 0 {
						fmt.Fprintf(out, "usage: \\workers [n] (0 = elastic, 1 = serial)\n")
						prompt()
						continue
					}
					workers = n
				}
				switch workers {
				case 0:
					fmt.Fprintf(out, "workers: elastic\n")
				case 1:
					fmt.Fprintf(out, "workers: serial\n")
				default:
					fmt.Fprintf(out, "workers: %d\n", workers)
				}
			case trimmed == `\counters`:
				stats = !stats
				fmt.Fprintf(out, "counters: %v\n", onOff(stats))
			case trimmed == `\stats`:
				if err := db.WriteStatementStats(out); err != nil {
					fmt.Fprintln(out, "error:", err)
				}
			case trimmed == `\slowlog` || strings.HasPrefix(trimmed, `\slowlog `):
				arg := strings.TrimSpace(strings.TrimPrefix(trimmed, `\slowlog`))
				if err := db.WriteSlowLog(out, arg == "full"); err != nil {
					fmt.Fprintln(out, "error:", err)
				}
			case trimmed == `\timing` || strings.HasPrefix(trimmed, `\timing `):
				arg := strings.TrimSpace(strings.TrimPrefix(trimmed, `\timing`))
				switch arg {
				case "":
					timing = !timing
				case "on":
					timing = true
				case "off":
					timing = false
				default:
					fmt.Fprintf(out, "usage: \\timing [on|off]\n")
					prompt()
					continue
				}
				fmt.Fprintf(out, "timing: %v\n", onOff(timing))
			case trimmed == `\timeout` || strings.HasPrefix(trimmed, `\timeout `):
				arg := strings.TrimSpace(strings.TrimPrefix(trimmed, `\timeout`))
				switch {
				case arg == "":
					// show current
				case arg == "off" || arg == "0":
					timeout = 0
				default:
					d, err := time.ParseDuration(arg)
					if err != nil || d < 0 {
						fmt.Fprintf(out, "usage: \\timeout [duration|off] (e.g. \\timeout 500ms)\n")
						prompt()
						continue
					}
					timeout = d
				}
				if timeout == 0 {
					fmt.Fprintln(out, "timeout: off")
				} else {
					fmt.Fprintf(out, "timeout: %s\n", timeout)
				}
			case trimmed == `\queries`:
				if err := db.WriteActiveQueries(out); err != nil {
					fmt.Fprintln(out, "error:", err)
				}
			case strings.HasPrefix(trimmed, `\kill `):
				arg := strings.TrimSpace(strings.TrimPrefix(trimmed, `\kill `))
				id, err := strconv.ParseUint(arg, 10, 64)
				if err != nil {
					fmt.Fprintf(out, "usage: \\kill <id> (ids from \\queries)\n")
					prompt()
					continue
				}
				if err := db.KillQuery(id, `killed via \kill`); err != nil {
					fmt.Fprintln(out, "error:", err)
				} else {
					fmt.Fprintf(out, "kill delivered to query %d\n", id)
				}
			case trimmed == `\cache`:
				printCacheStats(db, out)
			case trimmed == `\metrics`:
				if err := db.WriteMetrics(out); err != nil {
					fmt.Fprintln(out, "error:", err)
				}
			case strings.HasPrefix(trimmed, `\exec `):
				k, err := parseExec(strings.TrimSpace(strings.TrimPrefix(trimmed, `\exec `)))
				if err != nil {
					fmt.Fprintln(out, "error:", err)
				} else {
					kind = k
					fmt.Fprintf(out, "executor: %s\n", kind)
				}
			default:
				fmt.Fprintf(out, "unknown command %q\n", trimmed)
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.Contains(line, ";") {
			prompt()
			continue
		}
		src := buf.String()
		buf.Reset()
		if err := execStatements(db, src, out, execOpts{
			kind: kind, overlap: overlap, explain: explain, stats: stats, timing: timing,
			workers: workers, timeout: timeout, setCancel: setCancel,
		}); err != nil {
			fmt.Fprintln(out, "error:", err)
		}
		prompt()
	}
	return sc.Err()
}

func onOff(v bool) string {
	if v {
		return "on"
	}
	return "off"
}

// printCacheStats renders the serving-cache snapshot for \cache: both
// caches' occupancy and hit rates plus each table's data version (the
// counter partition invalidation keys on).
func printCacheStats(db *sqlts.DB, out io.Writer) {
	cs := db.CacheStats()
	fmt.Fprintf(out, "plan cache:      %d/%d entries, %d hits, %d misses%s\n",
		cs.PlanEntries, cs.PlanCapacity, cs.PlanHits, cs.PlanMisses,
		hitRate(cs.PlanHits, cs.PlanMisses))
	fmt.Fprintf(out, "partition cache: %d/%d entries, %d hits, %d misses, %d invalidations%s\n",
		cs.PartitionEntries, cs.PartitionCapacity, cs.PartitionHits, cs.PartitionMisses,
		cs.PartitionInvalidations, hitRate(cs.PartitionHits, cs.PartitionMisses))
	for _, n := range db.TableNames() {
		fmt.Fprintf(out, "table %s: version %d (%d rows)\n", n, db.Table(n).Version(), db.Table(n).Len())
	}
}

func hitRate(hits, misses int64) string {
	if hits+misses == 0 {
		return ""
	}
	return fmt.Sprintf(" (%.1f%% hit rate)", 100*float64(hits)/float64(hits+misses))
}

// cacheNote summarizes a result's cache outcome for the timing line: a
// cached plan, and a partition that was cached or refreshed per cluster.
func cacheNote(res *sqlts.Result) string {
	var notes []string
	if res.PlanCached() {
		notes = append(notes, "plan: cached")
	}
	if how := res.PartitionOutcome(); how != "built" && how != "" {
		notes = append(notes, "partition: "+how)
	}
	if len(notes) == 0 {
		return ""
	}
	return " (" + strings.Join(notes, ", ") + ")"
}

// execOpts carry the REPL toggles into statement execution.
type execOpts struct {
	kind    sqlts.ExecutorKind
	overlap bool
	explain bool
	stats   bool
	timing  bool
	// workers is the cluster-search goroutine count
	// (RunOptions.MaxWorkers; 0 = elastic, 1 = serial).
	workers int
	// timeout bounds each statement via RunOptions.Deadline (0 = none).
	timeout time.Duration
	// setCancel publishes the running statement's cancel func to the
	// SIGINT handler (nil when the REPL runs without one, e.g. tests).
	setCancel func(context.CancelFunc)
}

// execStatements parses and runs a script fragment in the REPL.
func execStatements(db *sqlts.DB, src string, out io.Writer, opts execOpts) error {
	stmts, err := query.ParseScript(src)
	if err != nil {
		return err
	}
	for _, st := range stmts {
		start := time.Now()
		note := ""
		switch st := st.(type) {
		case *query.SelectStmt, *query.ExplainStmt:
			// A plain EXPLAIN never executes, so a counter line would
			// always read zero — suppress it.
			ranPattern := true
			if ex, ok := st.(*query.ExplainStmt); ok && !ex.Analyze {
				ranPattern = false
			}
			q, err := db.Prepare(query.Render(st))
			if err != nil {
				return err
			}
			if opts.explain {
				fmt.Fprintln(out, q.Explain())
			}
			ctx, cancel := context.WithCancel(context.Background())
			if opts.setCancel != nil {
				opts.setCancel(cancel)
			}
			res, err := q.RunWith(sqlts.RunOptions{
				Executor: opts.kind, Overlap: opts.overlap, MaxWorkers: opts.workers,
				Context: ctx, Deadline: opts.timeout,
			})
			if opts.setCancel != nil {
				opts.setCancel(nil)
			}
			cancel()
			if err != nil {
				return err
			}
			note = cacheNote(res)
			if err := res.Format(out); err != nil {
				return err
			}
			fmt.Fprintf(out, "(%d rows)\n", len(res.Rows))
			if opts.stats && ranPattern {
				fmt.Fprintf(out, "executor=%s pred-evals=%d rollbacks=%d matches=%d\n",
					opts.kind, res.Stats.PredEvals, res.Stats.Rollbacks, res.Stats.Matches)
			}
		default:
			if err := db.Exec(query.Render(st)); err != nil {
				return err
			}
			fmt.Fprintln(out, "ok")
		}
		if opts.timing {
			fmt.Fprintf(out, "Time: %.3f ms%s\n", float64(time.Since(start).Microseconds())/1000, note)
		}
	}
	return nil
}
