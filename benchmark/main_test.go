package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	decl := &benchmarkJSON{}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(decl); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return decl
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestDeclarationsAgree pins BENCHMARK.json to the declarations the
// program emits from: same workloads, same metrics, same units,
// directions and bounds.
func TestDeclarationsAgree(t *testing.T) {
	decl := readBenchmarkJSON(t)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := decl.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: name or why outside the contract's limits", w.name)
		}
	}
	same := func(kind string, got, want []metricDecl) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, w)
			}
			if !nameRE.MatchString(w.Name) {
				t.Errorf("%s metric name %q is outside the contract's alphabet", kind, w.Name)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, perLayer)
	if !slices.ContainsFunc(endToEnd, func(d metricDecl) bool { return d.Name == "setup_s" }) {
		t.Error("the contract requires a setup_s end-to-end metric")
	}
}

// TestSeed1PinsThePaper keeps the paper's own numbers in the pinned
// reference file.
func TestSeed1PinsThePaper(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for name, evals := range map[string]int64{"warm_long": 11972, "cold_plan": 11972, "warm_tiny": 21} {
		if got := pins[name].PredEvals; got != evals {
			t.Errorf("%s pins %d pred-evals, the paper's figure is %d", name, got, evals)
		}
	}
	if got := pins["warm_tiny"].NaiveEvals; got != 26 {
		t.Errorf("warm_tiny pins %d naive pred-evals, Figure 5 has 26", got)
	}
}

// TestQuickSmoke runs every workload through both passes at 1/20 scale
// and checks what a run must always satisfy: every declared metric is
// emitted under its declared name and unit and nothing else is, every
// op verified (which includes the seed-1 pins, the replay reproducing
// the library's counts, and each workload's cache-hit expectations),
// and a loadable trace was written in which every span but "op" has a
// parent.
func TestQuickSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // timings are not asserted; counts are per workload
			dir := t.TempDir()
			var stdout, stderr bytes.Buffer
			code := run([]string{"-quick", "-seconds", "2", "-workload", w.name, "-outdir", dir}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit code %d\n%s\n%s", code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var line resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("last line is not the result object: %v", err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("correct %v, attempted %d, failed %d", line.Correct, line.Attempted, line.Failed)
			}
			want := map[string]string{}
			for _, d := range append(endToEnd, perLayer...) {
				want[d.Name] = d.Unit
			}
			for name, v := range line.Metrics {
				if unit, ok := want[name]; !ok || unit != v.Unit {
					t.Errorf("emitted metric %q [%s] is not declared so", name, v.Unit)
				}
				delete(want, name)
			}
			for name := range want {
				t.Errorf("declared metric %q was not emitted", name)
			}
			for _, d := range endToEnd {
				if line.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; the contract wants it never 0", d.Name, line.Metrics[d.Name].Value)
				}
			}

			var doc document
			b, err := os.ReadFile(filepath.Join(dir, "result.json"))
			if err == nil {
				err = json.Unmarshal(b, &doc)
			}
			if err != nil || len(doc.Workloads) != 1 || !doc.Quick {
				t.Fatalf("result.json: %v (%d workloads, quick %v)", err, len(doc.Workloads), doc.Quick)
			}
			layers := doc.Workloads[0].PerLayer.Metrics
			plan, part := 0.0, 0.0
			if w.planHit {
				plan = 100
			}
			if w.partHit {
				part = 100
			}
			if layers["sqlts.plan_cache_hit_pct"] != plan || layers["sqlts.partition_cache_hit_pct"] != part {
				t.Errorf("cache hits plan %v%% partition %v%%, want %v%% and %v%%",
					layers["sqlts.plan_cache_hit_pct"], layers["sqlts.partition_cache_hit_pct"], plan, part)
			}

			var trace struct {
				TraceEvents []struct {
					Name string           `json:"name"`
					Args map[string]int64 `json:"args"`
				} `json:"traceEvents"`
			}
			b, err = os.ReadFile(filepath.Join(dir, "trace-"+w.name+".json"))
			if err == nil {
				err = json.Unmarshal(b, &trace)
			}
			if err != nil || len(trace.TraceEvents) == 0 {
				t.Fatalf("trace file: %v (%d events)", err, len(trace.TraceEvents))
			}
			for _, ev := range trace.TraceEvents {
				if (ev.Args["parent"] == 0) != (ev.Name == "op") {
					t.Fatalf("span %q (id %d) has parent %d", ev.Name, ev.Args["span_id"], ev.Args["parent"])
				}
			}
		})
	}
}

func TestCompare(t *testing.T) {
	doc := func(tput, evals float64) *document {
		return &document{Seed: 1, Workloads: []*workloadDoc{{Name: "warm_long", EndToEnd: &e2eResult{
			Metrics: map[string]float64{"throughput_ops_s": tput, "op_p95_us": 300,
				"pred_evals_per_op": evals, "allocs_per_op": 113, "alloc_bytes_per_op": 19000,
				"live_heap_mb": 1, "verified_ops_pct": 100, "setup_s": 0.005},
			Rounds: []roundResult{{ThroughputOps: tput, P50Us: 200}, {ThroughputOps: tput * 1.01, P50Us: 201}},
		}}}}
	}
	for _, tc := range []struct {
		name        string
		tput, evals float64
		code        int
		want        string
	}{
		{"same", 5000, 11972, 0, ""},
		{"slower within the bound", 4500, 11972, 0, ""},
		{"slower beyond the bound", 3000, 11972, 1, "regressed"},
		{"one more pred-eval", 5000, 11973, 1, "differs"},
	} {
		var out bytes.Buffer
		if code := compare(doc(5000, 11972), doc(tc.tput, tc.evals), &out); code != tc.code || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: exit %d, want %d with %q in\n%s", tc.name, code, tc.code, tc.want, out.String())
		}
	}
	noisy := doc(3000, 11972)
	noisy.Workloads[0].EndToEnd.Rounds[1].ThroughputOps = 6000
	var out bytes.Buffer
	if code := compare(doc(5000, 11972), noisy, &out); code != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("rounds that disagree by more than the bound must read unresolved, exit 0; got %d\n%s", code, out.String())
	}
}

// TestSpeedAt pins the calibration window: the speed in a gap is calibRef
// over the median of the samples within calibWindow of it, so one sample
// hit by a hiccup does not move it, and the window shrinks at the ends.
func TestSpeedAt(t *testing.T) {
	ms := func(v ...float64) []time.Duration {
		out := make([]time.Duration, len(v))
		for i, x := range v {
			out[i] = time.Duration(x * float64(time.Millisecond))
		}
		return out
	}
	steady := ms(7, 7, 7, 70, 7, 7, 7, 7)
	for gap := 0; gap < len(steady)-1; gap++ {
		if got := speedAt(steady, gap); got != 1 {
			t.Errorf("gap %d of a steady run with one hiccup: speed %v, want 1", gap, got)
		}
	}
	// A box that halves its speed after the fourth slice.
	step := ms(7, 7, 7, 7, 7, 14, 14, 14, 14, 14)
	if got := speedAt(step, 0); got != 1 {
		t.Errorf("before the step: speed %v, want 1", got)
	}
	if got := speedAt(step, 8); got != 0.5 {
		t.Errorf("after the step: speed %v, want 0.5", got)
	}
	if got := speedAt(ms(3.5, 3.5), 0); got != 2 {
		t.Errorf("two samples: speed %v, want 2", got)
	}
}
