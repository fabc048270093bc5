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

	known := *exp == "all"
	for _, e := range bench.Experiments(*seed, *years, *n) {
		if *exp == "all" || *exp == e.Name {
			known = true
			fmt.Println(e.Run().Format())
		}
	}
	if !known {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
