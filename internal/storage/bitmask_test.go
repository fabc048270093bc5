package storage

import (
	"fmt"
	"math/rand"
	"testing"
)

// maskOf builds a mask wide enough for n bits with the listed bits set.
func maskOf(n int, set ...int) []uint64 {
	m := make([]uint64, MaskWords(n))
	for _, i := range set {
		MaskSetBit(m, i)
	}
	return m
}

// maskRange builds a mask of n valid bits with [lo, hi) set.
func maskRange(n, lo, hi int) []uint64 {
	m := make([]uint64, MaskWords(n))
	for i := lo; i < hi; i++ {
		MaskSetBit(m, i)
	}
	return m
}

func TestMaskNextSet(t *testing.T) {
	cases := []struct {
		name string
		m    []uint64
		from int
		want int
	}{
		{"empty mask", nil, 0, -1},
		{"all zeros", maskOf(130), 0, -1},
		{"from on a set bit", maskOf(130, 5), 5, 5},
		{"from before a set bit", maskOf(130, 5), 0, 5},
		{"from past the only set bit", maskOf(130, 5), 6, -1},
		{"negative from", maskOf(130, 0), -3, 0},
		{"bit 63 from 62", maskOf(130, 63), 62, 63},
		{"bit 64 from 63", maskOf(130, 64), 63, 64},
		{"bit 64 from 64", maskOf(130, 64), 64, 64},
		{"bit 129 from 65", maskOf(130, 129), 65, 129},
		{"from beyond the mask", maskOf(130, 129), 200, -1},
	}
	for _, c := range cases {
		if got := MaskNextSet(c.m, c.from); got != c.want {
			t.Errorf("%s: MaskNextSet(from=%d) = %d, want %d", c.name, c.from, got, c.want)
		}
	}
}

func TestMaskNextClear(t *testing.T) {
	allOnes := func(words int) []uint64 {
		m := make([]uint64, words)
		for i := range m {
			m[i] = ^uint64(0)
		}
		return m
	}
	cases := []struct {
		name    string
		m       []uint64
		from, n int
		want    int
	}{
		// from at bits 0, 62, 63, 64, 65 of a run that ends mid-word.
		{"run 0..99 from 0", maskRange(200, 0, 100), 0, 200, 100},
		{"run 0..99 from 62", maskRange(200, 0, 100), 62, 200, 100},
		{"run 0..99 from 63", maskRange(200, 0, 100), 63, 200, 100},
		{"run 0..99 from 64", maskRange(200, 0, 100), 64, 200, 100},
		{"run 0..99 from 65", maskRange(200, 0, 100), 65, 200, 100},
		// from on a clear bit is its own answer.
		{"clear at from 0", maskRange(200, 1, 100), 0, 200, 0},
		{"clear at from 63", maskRange(200, 0, 63), 63, 200, 63},
		{"clear at from 64", maskRange(200, 0, 64), 64, 200, 64},
		// Runs that end exactly at a word boundary.
		{"run 0..63 from 0", maskRange(200, 0, 64), 0, 200, 64},
		{"run 0..63 from 62", maskRange(200, 0, 64), 62, 200, 64},
		{"run 0..63 from 63", maskRange(200, 0, 64), 63, 200, 64},
		{"run 10..127 from 10", maskRange(200, 10, 128), 10, 200, 128},
		{"run 64..127 from 64", maskRange(200, 64, 128), 64, 200, 128},
		{"run 64..127 from 65", maskRange(200, 64, 128), 65, 200, 128},
		// A run crossing whole all-ones words.
		{"run 3..194 from 3", maskRange(200, 3, 195), 3, 200, 195},
		// All ones: nothing is clear below n, whether or not n fills the
		// last word.
		{"all ones n=128", allOnes(2), 0, 128, 128},
		{"all ones n=128 from 65", allOnes(2), 65, 128, 128},
		{"all ones n=100", allOnes(2), 0, 100, 100},
		{"all ones n=64 from 63", allOnes(1), 63, 64, 64},
		{"all ones n=1", allOnes(1), 0, 1, 1},
		// from >= n.
		{"from == n", maskRange(200, 0, 200), 200, 200, 200},
		{"from > n", maskRange(200, 0, 200), 250, 200, 200},
		{"from > n past the mask", maskRange(64, 0, 64), 1000, 64, 64},
		{"n == 0", nil, 0, 0, 0},
		{"negative from", maskRange(200, 0, 10), -5, 200, 10},
		// Tail bits above n are zero, as every mask builder leaves them:
		// the first clear bit is n itself.
		{"zero tail n=100", maskRange(100, 0, 100), 0, 100, 100},
		{"zero tail n=65 from 64", maskRange(65, 0, 65), 64, 65, 65},
		{"zero tail n=127 from 62", maskRange(127, 0, 127), 62, 127, 127},
		// The cap also holds over set bits above n.
		{"set tail n=70", allOnes(2), 10, 70, 70},
	}
	for _, c := range cases {
		if got := MaskNextClear(c.m, c.from, c.n); got != c.want {
			t.Errorf("%s: MaskNextClear(from=%d, n=%d) = %d, want %d", c.name, c.from, c.n, got, c.want)
		}
	}
}

// TestMaskNextClearExhaustive checks every (from, n) against a bit-at-a-
// time scan over masks whose run boundaries straddle the word seams.
func TestMaskNextClearExhaustive(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 65, 127, 128, 129} {
		for lo := 0; lo <= n; lo++ {
			for _, hi := range []int{lo, lo + 1, 63, 64, 65, 127, 128, n} {
				if hi < lo || hi > n {
					continue
				}
				m := maskRange(n, lo, hi)
				for from := 0; from <= n+1; from++ {
					want := min(from, n)
					for want < n && MaskHas(m, want) {
						want++
					}
					if got := MaskNextClear(m, from, n); got != want {
						t.Fatalf("n=%d run=[%d,%d) from=%d: got %d, want %d", n, lo, hi, from, got, want)
					}
				}
			}
		}
	}
}

// TestMaskNextPairExhaustive checks every (from, n) up to three words
// against a bit-at-a-time scan, over random, all-ones and all-zeros masks,
// single pairs that straddle the word seams, and a nil y. The masks are
// cut to MaskWords(n) words, so a read past them panics, and the bits
// above n are random, so one that counts shows up. MaskPairWord must
// agree from row 0 wherever the masks are one word.
func TestMaskNextPairExhaustive(t *testing.T) {
	const words = 3
	r := rand.New(rand.NewSource(1))
	random := func(density int) []uint64 {
		m := make([]uint64, words)
		for i := 0; i < words*64; i++ {
			if r.Intn(density) == 0 {
				MaskSetBit(m, i)
			}
		}
		return m
	}
	ones := maskRange(words*64, 0, words*64)
	zeros := maskOf(words * 64)
	pair := func(at int) (x, y []uint64) { return maskOf(words*64, at), maskOf(words*64, at+1) }
	type masks struct {
		name string
		x, y []uint64
	}
	cases := []masks{
		{"ones/ones", ones, ones}, {"ones/zeros", ones, zeros}, {"zeros/ones", zeros, ones},
		{"zeros/zeros", zeros, zeros}, {"ones/nil", ones, nil}, {"zeros/nil", zeros, nil},
	}
	for _, at := range []int{0, 62, 63, 64, 126, 127, 128, 190} {
		x, y := pair(at)
		cases = append(cases, masks{fmt.Sprintf("pair at %d", at), x, y})
	}
	for k := 0; k < 6; k++ {
		d := []int{2, 4, 16}[k%3]
		cases = append(cases, masks{fmt.Sprintf("random 1/%d", d), random(d), random(d)}, masks{"random x/nil", random(d), nil})
	}
	ref := func(x, y []uint64, from, n int) (int, int) {
		xs := 0
		for row := max(from, 0); row+1 < n; row++ {
			if MaskHas(x, row) {
				if y == nil || MaskHas(y, row+1) {
					return row, xs
				}
				xs++
			}
		}
		return n - 1, xs
	}
	for _, c := range cases {
		for n := 0; n <= words*64; n++ {
			w := MaskWords(n)
			x, y := c.x[:w:w], c.y
			if y != nil {
				y = y[:w:w]
			}
			for from := -1; from <= n+1; from++ {
				wr, wxs := ref(x, y, from, n)
				if gr, gxs := MaskNextPair(x, y, from, n); gr != wr || gxs != wxs {
					t.Fatalf("%s n=%d from=%d: got (%d, %d), want (%d, %d)", c.name, n, from, gr, gxs, wr, wxs)
				}
			}
			if n >= 1 && n <= 64 {
				// The one-word scan reads the whole word: the bits at and
				// above n must not count.
				yw := ^uint64(0)
				if c.y != nil {
					yw = c.y[0]
				}
				wr, wxs := ref(x, y, 0, n)
				if gr, gxs := MaskPairWord(c.x[0], yw, n); gr != wr || gxs != wxs {
					t.Fatalf("%s n=%d: MaskPairWord got (%d, %d), want (%d, %d)", c.name, n, gr, gxs, wr, wxs)
				}
			}
		}
	}
}
