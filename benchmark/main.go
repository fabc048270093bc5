// Command benchmark is the repo's benchmark: seven named workloads run
// closed-loop against the in-process sqlts library, every result
// verified, end-to-end metrics from an untraced pass and per-layer
// metrics from a separate traced pass.
//
//	go run ./benchmark                                   # all workloads, both passes
//	go run ./benchmark --workload warm_long --seed 7 --seconds 10 --trace 0
//	go run ./benchmark -quick                            # the tier-1 smoke
//	go run ./benchmark -compare a.json b.json            # self-agreement
//
// With --trace 0 a run prints the end-to-end metrics, with --trace 1 the
// per-layer ones; without it, both. After each workload it prints one
// JSON object on its own line — {"correct", "attempted", "failed",
// "metrics"} — so with --workload the last line of standard output is
// that workload's result. The whole document goes to -outdir. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// quickDivisor scales a -quick run: durations and counted op counts
// are divided by it.
const quickDivisor = 20

type config struct {
	seed    int64
	seconds float64
	quick   bool
	trace   int // 0 end to end, 1 per layer, -1 both
	outdir  string
}

// budget is how long one pass of one workload measures.
func (c config) budget() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

func (c config) scaleOps(n int) int {
	if c.quick {
		return max(2, n/quickDivisor)
	}
	return n
}

// metricValue is how a metric is written: its value as measured, and
// its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the one-line result the builder's contract asks for.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// workloadDoc is one workload in the document.
type workloadDoc struct {
	Name     string       `json:"name"`
	Why      string       `json:"why"`
	Correct  bool         `json:"correct"`
	EndToEnd *e2eResult   `json:"end_to_end,omitempty"`
	PerLayer *layerResult `json:"per_layer,omitempty"`
}

// document is what -outdir/result.json holds and -compare reads.
type document struct {
	Quick     bool           `json:"quick"`
	Seed      int64          `json:"seed"`
	Seconds   float64        `json:"seconds"`
	Env       environment    `json:"env"`
	Workloads []*workloadDoc `json:"workloads"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run only this workload (default: all seven)")
		seed    = fs.Int64("seed", 1, "seed every input is generated from")
		seconds = fs.Float64("seconds", 10, "how long each pass of each workload measures")
		trace   = fs.Int("trace", -1, "0: end-to-end pass only; 1: traced per-layer pass only; default both")
		quick   = fs.Bool("quick", false, "divide durations and counted op counts by 20 (smoke test)")
		outdir  = fs.String("outdir", filepath.Join("benchmark", "out"), "directory for result.json and trace-<workload>.json")
		compare = fs.Bool("compare", false, "compare two result documents: -compare a.json b.json")
		pin     = fs.Bool("pin", false, "print this seed's reference results as JSON (for expected/) and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareDocs(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	cfg := config{seed: *seed, seconds: *seconds, quick: *quick, trace: *trace, outdir: *outdir}
	if cfg.seconds <= 0 || cfg.trace < -1 || cfg.trace > 1 || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "benchmark: --seconds must be positive, --trace 0 or 1, and no positional arguments")
		return 2
	}
	if cfg.quick {
		cfg.seconds /= quickDivisor
	}
	selected := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(stderr, "benchmark: no workload %q\n", *name)
			return 2
		}
		selected = []*workload{w}
	}
	if *pin {
		return printPins(selected, cfg, stdout, stderr)
	}
	if err := os.MkdirAll(cfg.outdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}

	doc := &document{Quick: cfg.quick, Seed: cfg.seed, Seconds: cfg.seconds, Env: readEnvironment()}
	allCorrect := true
	for _, w := range selected {
		wd, line, err := runWorkload(w, cfg, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		doc.Workloads = append(doc.Workloads, wd)
		allCorrect = allCorrect && wd.Correct
		out, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", out)
	}
	if err := writeJSON(filepath.Join(cfg.outdir, "result.json"), doc); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !allCorrect {
		fmt.Fprintln(stderr, "benchmark: verification failed; see the errors above")
		return 1
	}
	return 0
}

// runWorkload runs the selected passes of one workload and prints every
// metric by name and unit.
func runWorkload(w *workload, cfg config, stdout io.Writer) (*workloadDoc, *resultLine, error) {
	wd := &workloadDoc{Name: w.name, Why: w.why, Correct: true}
	line := &resultLine{Metrics: map[string]metricValue{}}
	fmt.Fprintf(stdout, "== %s (seed %d, %d client(s)): %s\n", w.name, cfg.seed, w.clients(), w.why)
	emit := func(decls []metricDecl, values map[string]float64) {
		for _, d := range decls {
			v := values[d.Name] // a layer this workload never enters reads 0
			line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
			fmt.Fprintf(stdout, "  %-34s %16.4f %s\n", d.Name, v, d.Unit)
		}
	}
	report := func(errs []string) {
		for _, e := range errs {
			fmt.Fprintf(stdout, "  FAILED: %s\n", e)
		}
	}
	in := w.gen(cfg.seed)
	if cfg.trace != 1 {
		res, err := runE2E(w, in, cfg)
		if err != nil {
			return nil, nil, err
		}
		wd.EndToEnd = res
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		fmt.Fprintf(stdout, "  inputs_sha256 %s\n  ops_attempted %d  ops_failed %d  op_p95 over %d samples  rounds (ops/s):",
			res.InputsSHA256, res.Attempted, res.Failed, res.P95Samples)
		for _, rr := range res.Rounds {
			fmt.Fprintf(stdout, " %.1f", rr.ThroughputOps)
		}
		fmt.Fprintf(stdout, "\n  machine speed %.3f of the reference; throughput as the clock read it %.1f ops/s\n", res.Speed, res.RawThroughputOps)
		fmt.Fprintf(stdout, "  latency us: p50 %.3f  p90 %.3f  p95 %.3f  p99 %.3f\n",
			res.LatencyUs["p50"], res.LatencyUs["p90"], res.LatencyUs["p95"], res.LatencyUs["p99"])
		emit(endToEnd, res.Metrics)
		report(res.Errors)
	}
	if cfg.trace != 0 {
		res, tr, err := runLayers(w, in, cfg)
		if err != nil {
			return nil, nil, err
		}
		res.TraceFile = filepath.Join(cfg.outdir, "trace-"+w.name+".json")
		res.Spans = len(tr.spans)
		if err := tr.write(res.TraceFile); err != nil {
			return nil, nil, err
		}
		wd.PerLayer = res
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		fmt.Fprintf(stdout, "  traced %d ops, %d spans -> %s\n", res.TracedOps, res.Spans, res.TraceFile)
		emit(perLayer, res.Metrics)
		report(res.Errors)
	}
	wd.Correct = line.Failed == 0
	line.Correct = wd.Correct
	return wd, line, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// environment records where a run was made, so that a slow machine is
// not mistaken for a slow program.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

func readEnvironment() environment {
	return environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     commit(),
	}
}
