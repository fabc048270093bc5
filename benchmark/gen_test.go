package main

import "testing"

// TestInputsAreAFunctionOfTheSeed: the same seed gives the same inputs,
// another seed gives other inputs, for every workload.
func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		w := w
		if w.name == "warm_many_sat" {
			continue // warm_many's generator
		}
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			a, b, c := w.gen(7), w.gen(7), w.gen(8)
			if a.sha256 == "" || a.sha256 != b.sha256 {
				t.Errorf("seed 7 hashed to %q then %q", a.sha256, b.sha256)
			}
			if a.sha256 == c.sha256 {
				t.Error("seeds 7 and 8 produce the same inputs")
			}
		})
	}
}

// TestInsertDealerRepeats: two dealers over the same inputs deal the same
// statements, so every instance of ingest_many sees the same writes.
func TestInsertDealerRepeats(t *testing.T) {
	in := genIngest(3)
	a, b := newInsertDealer(in), newInsertDealer(in)
	for k := 0; k < 5; k++ {
		sa, rows := a.next()
		sb, _ := b.next()
		if sa != sb || len(rows) != insertRows {
			t.Fatalf("statement %d differs between dealers, or has %d rows", k, len(rows))
		}
	}
}
