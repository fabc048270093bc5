// Command sqltsload is a wrk-style load generator for the serving path:
// it builds a many-small-clusters quote table, drives the paper's
// relaxed double-bottom query over it from concurrent clients for a
// fixed duration, and reports throughput plus the p50/p95/p99 latency
// quantiles recorded by the statement-introspection layer. The queries
// take the path every DB serves: the plan cache, the partition cache
// and the cluster driver.
//
// Usage:
//
//	sqltsload [-clusters 100000] [-rows 10] [-plant 50] [-seed 1]
//	          [-workers 0] [-conc 8] [-duration 10s]
//	          [-threshold 0.02] [-debug addr] [-events file]
//
// Every run re-checks that the match count equals the warm-up run's —
// a cheap end-to-end guard that the serving path stays bit-identical
// under concurrency. -workers is RunOptions.MaxWorkers: 0, the default,
// is elastic (each query borrows the cores no other query is searching
// on), 1 searches each query's clusters serially and N > 1 on exactly N
// goroutines; -debug serves the DB's /debug surface (including
// /debug/queries) for the duration of the run; -events streams the
// per-query wide-event log (JSON lines) to a file, "-" for stdout.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sqlts"
	"sqlts/internal/obs"
	"sqlts/internal/workload"
	"sqlts/ta"
)

func main() {
	clusters := flag.Int("clusters", 100000, "number of symbol clusters in the generated table")
	rows := flag.Int("rows", 10, "rows per cluster (planted clusters are lengthened to 24)")
	plant := flag.Int("plant", 50, "plant a guaranteed double bottom in every Nth cluster (0 = none)")
	seed := flag.Int64("seed", 1, "workload random seed")
	workers := flag.Int("workers", 0, "goroutines searching each query's clusters (RunOptions.MaxWorkers; 0 = elastic: borrow idle cores, 1 = serial, N = exactly N)")
	conc := flag.Int("conc", 8, "concurrent client goroutines")
	duration := flag.Duration("duration", 10*time.Second, "how long to drive load")
	threshold := flag.Float64("threshold", 0.02, "relaxation threshold for the double-bottom pattern")
	debug := flag.String("debug", "", "serve the /debug surface on this address for the run (e.g. localhost:6060)")
	events := flag.String("events", "", "write the wide-event log (JSON lines) to this file; \"-\" = stdout")
	flag.Parse()

	if err := run(*clusters, *rows, *plant, *seed, *workers, *conc, *duration, *threshold, *debug, *events); err != nil {
		fmt.Fprintln(os.Stderr, "sqltsload:", err)
		os.Exit(1)
	}
}

func run(clusters, rows, plant int, seed int64, workers, conc int, duration time.Duration, threshold float64, debug, events string) error {
	db := sqlts.New()

	var sink *obs.WriterSink
	if events != "" {
		w := os.Stdout
		if events != "-" {
			f, err := os.Create(events)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		sink = obs.NewWriterSink(w)
		db.SetEventSink(sink)
	}

	buildStart := time.Now()
	t := workload.ClusterWalks("quote", seed, clusters, rows, plant)
	db.RegisterTable(t)
	if err := db.DeclarePositive("quote", "price"); err != nil {
		return err
	}
	fmt.Printf("table: %d clusters, %d rows (built in %s)\n", clusters, t.Len(), time.Since(buildStart).Round(time.Millisecond))

	if debug != "" {
		go func() {
			if err := http.ListenAndServe(debug, db.DebugHandler()); err != nil {
				fmt.Fprintln(os.Stderr, "sqltsload: debug server:", err)
			}
		}()
		fmt.Printf("debug surface on http://%s/ (see /debug/queries)\n", debug)
	}

	q, err := db.Prepare(ta.DoubleBottomOver("quote", "name", threshold))
	if err != nil {
		return err
	}
	opts := sqlts.RunOptions{MaxWorkers: workers}

	// Warm-up: primes the plan and partition caches and fixes the
	// reference match count every timed run is checked against.
	warmStart := time.Now()
	ref, err := q.RunWith(opts)
	if err != nil {
		return err
	}
	fmt.Printf("warm-up: %d matches, %d pred-evals, %s\n",
		ref.Stats.Matches, ref.Stats.PredEvals, time.Since(warmStart).Round(time.Millisecond))

	var (
		stop    atomic.Bool
		queries atomic.Int64
		failed  atomic.Int64
	)
	var wg sync.WaitGroup
	loadStart := time.Now()
	for i := 0; i < conc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				res, err := q.RunWith(opts)
				if err != nil {
					failed.Add(1)
					fmt.Fprintln(os.Stderr, "sqltsload: query:", err)
					continue
				}
				if res.Stats.Matches != ref.Stats.Matches {
					failed.Add(1)
					fmt.Fprintf(os.Stderr, "sqltsload: match count drifted: got %d, want %d\n",
						res.Stats.Matches, ref.Stats.Matches)
					continue
				}
				queries.Add(1)
			}
		}()
	}
	time.AfterFunc(duration, func() { stop.Store(true) })
	wg.Wait()
	elapsed := time.Since(loadStart)

	n := queries.Load()
	fmt.Printf("\n%d queries in %s (%d clients, workers=%s)\n",
		n, elapsed.Round(time.Millisecond), conc, workersWord(workers))
	if f := failed.Load(); f > 0 {
		fmt.Printf("FAILED: %d queries errored or drifted\n", f)
	}
	if elapsed > 0 {
		fmt.Printf("throughput: %.1f queries/sec\n", float64(n)/elapsed.Seconds())
	}
	if snap, ok := statementSnapshot(db); ok {
		fmt.Printf("latency: p50=%s p95=%s p99=%s max=%s (from statement introspection, %d calls)\n",
			ms(snap.P50Ns), ms(snap.P95Ns), ms(snap.P99Ns), ms(snap.MaxNs), snap.Calls)
	}
	if sink != nil {
		fmt.Printf("events: %d written", sink.Count())
		if events != "-" {
			fmt.Printf(" to %s", events)
		}
		fmt.Println()
		if err := sink.Err(); err != nil {
			return fmt.Errorf("event sink: %w", err)
		}
	}
	if failed.Load() > 0 {
		return fmt.Errorf("%d queries failed", failed.Load())
	}
	return nil
}

// statementSnapshot finds the driven statement's introspection entry
// (the busiest one — the load loop runs a single statement).
func statementSnapshot(db *sqlts.DB) (obs.StmtSnapshot, bool) {
	var best obs.StmtSnapshot
	for _, s := range db.StatementStats() {
		if s.Calls > best.Calls {
			best = s
		}
	}
	return best, best.Calls > 0
}

func ms(ns int64) string {
	return fmt.Sprintf("%.2fms", float64(ns)/1e6)
}

func workersWord(n int) string {
	switch n {
	case 0:
		return "elastic"
	case 1:
		return "serial"
	}
	return fmt.Sprintf("%d", n)
}
