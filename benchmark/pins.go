package main

// The correctness gate's pinned half. expected/seed1.json holds, per
// workload, the reference operation's outcome at seed 1 — including the
// paper's own numbers: 11,972 predicate evaluations on the double
// bottom, 21 on Figure 5. Any other seed is gated by the naive executor
// alone (see checkAgainstNaive). Regenerate with
//
//	go run ./benchmark -pin -seed 1 > benchmark/expected/seed1.json
//
// in a change that touches nothing but the benchmark.

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
)

//go:embed expected/seed1.json
var seed1JSON []byte

// pin is one workload's pinned reference.
type pin struct {
	InputsSHA256 string `json:"inputs_sha256"`
	reference
}

func loadPins() (map[string]pin, error) {
	pins := map[string]pin{}
	if err := json.Unmarshal(seed1JSON, &pins); err != nil {
		return nil, fmt.Errorf("expected/seed1.json: %w", err)
	}
	return pins, nil
}

// checkPins compares a seed-1 reference with its pin; other seeds have
// none.
func checkPins(workload string, seed int64, inputsSHA string, got *reference) error {
	if seed != 1 {
		return nil
	}
	pins, err := loadPins()
	if err != nil {
		return err
	}
	want, ok := pins[workload]
	if !ok {
		return fmt.Errorf("expected/seed1.json has no entry for %s", workload)
	}
	if inputsSHA != want.InputsSHA256 {
		return fmt.Errorf("seed 1 inputs changed: sha256 %s, pinned %s", inputsSHA, want.InputsSHA256)
	}
	if *got != want.reference {
		return fmt.Errorf("seed 1 reference result %+v, pinned %+v", *got, want.reference)
	}
	return nil
}

// printPins writes the selected workloads' references in the format of
// expected/seed1.json.
func printPins(selected []*workload, cfg config, stdout, stderr io.Writer) int {
	pins := map[string]pin{}
	for _, w := range selected {
		p, err := pinOf(w, cfg.seed)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		pins[w.name] = p
	}
	out, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

func pinOf(w *workload, seed int64) (pin, error) {
	in := w.gen(seed)
	inst, err := w.setup(in)
	if err != nil {
		return pin{}, err
	}
	defer inst.close()
	ref, err := inst.reference()
	if err != nil {
		return pin{}, err
	}
	return pin{InputsSHA256: in.sha256, reference: *ref}, nil
}
