// Command sqltsbench regenerates the paper's experimental tables and
// figures (see DESIGN.md's experiment index and EXPERIMENTS.md for the
// recorded results).
//
// Usage:
//
//	sqltsbench [-exp all|kmp|matrices|fig5|doublebottom|matches|sweep|reverse]
//	           [-seed 1] [-years 25] [-n 50000]
package main

import (
	"flag"
	"fmt"
	"os"

	"sqlts/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, kmp, matrices, fig5, doublebottom, matches, sweep, reverse")
	seed := flag.Int64("seed", 1, "workload random seed")
	years := flag.Int("years", 25, "years of simulated DJIA data")
	n := flag.Int("n", 50000, "sequence length for sweep/text experiments")
	flag.Parse()

	run := func(name string, f func() *bench.Report) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Println(f().Format())
	}

	run("kmp", func() *bench.Report { return bench.KMPTrace(*seed, *n) })
	run("matrices", bench.Matrices)
	run("fig5", bench.Figure5)
	run("doublebottom", func() *bench.Report { return bench.DoubleBottom(*seed, *years) })
	run("matches", func() *bench.Report { return bench.Matches(*seed, *years) })
	run("sweep", func() *bench.Report { return bench.Sweep(*seed, *n) })
	run("reverse", func() *bench.Report { return bench.ReverseHeuristic(*seed, *n) })

	switch *exp {
	case "all", "kmp", "matrices", "fig5", "doublebottom", "matches", "sweep", "reverse":
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
