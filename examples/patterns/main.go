// Patterns scans one simulated market with the whole ta pattern library
// (the paper's §1 motivating application domain): double bottoms and
// tops, V-reversals, rallies, crash days and head-and-shoulders, each
// with naive-vs-OPS work measurements.
//
//	go run ./examples/patterns [-n 5000] [-seed 11]
package main

import (
	"flag"
	"fmt"
	"log"

	"sqlts"
	"sqlts/internal/workload"
	"sqlts/ta"
)

func main() {
	n := flag.Int("n", 5000, "days of simulated data")
	seed := flag.Int64("seed", 11, "random seed")
	flag.Parse()

	prices := workload.GeometricWalk(workload.WalkConfig{
		Seed: *seed, N: *n, Start: 1000, Drift: 0.0002, Vol: 0.012,
	})
	for i := 0; i < 5; i++ {
		workload.PlantDoubleBottom(prices, 1+(i+1)*len(prices)/6)
	}

	db := sqlts.New()
	if err := ta.Series(db, "djia", 2557, prices); err != nil {
		log.Fatal(err)
	}

	scans := []struct {
		name string
		sql  string
	}{
		{"double bottoms (2%)", ta.DoubleBottom("djia", 0.02)},
		{"double tops (2%)", ta.DoubleTop("djia", 0.02)},
		{"V-reversals (2%)", ta.VReversal("djia", 0.02)},
		{"rallies (1%)", ta.Rally("djia", 0.01)},
		{"crash days (-4%)", ta.Crash("djia", 0.04)},
		{"head and shoulders (2%)", ta.HeadAndShoulders("djia", 0.02)},
	}

	fmt.Printf("%-26s %8s %12s %12s %8s\n", "pattern", "matches", "naive evals", "ops evals", "speedup")
	for _, s := range scans {
		q, err := db.Prepare(s.sql)
		if err != nil {
			log.Fatalf("%s: %v", s.name, err)
		}
		ops, err := q.Run()
		if err != nil {
			log.Fatal(err)
		}
		naive, err := q.RunWith(sqlts.RunOptions{Executor: sqlts.NaiveExec})
		if err != nil {
			log.Fatal(err)
		}
		if len(naive.Rows) != len(ops.Rows) {
			log.Fatalf("%s: executor disagreement (%d vs %d)", s.name, len(naive.Rows), len(ops.Rows))
		}
		fmt.Printf("%-26s %8d %12d %12d %7.2fx\n",
			s.name, len(ops.Rows), naive.Stats.PredEvals, ops.Stats.PredEvals,
			float64(naive.Stats.PredEvals)/float64(ops.Stats.PredEvals))
	}
}
