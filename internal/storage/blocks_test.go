package storage

import (
	"slices"
	"testing"
)

// blocksOf returns a Blocks of a copy of s's elements.
func blocksOf[T any](s []T) Blocks[T] {
	e := Blocks[T]{}.Edit(len(s))
	for i, v := range s {
		e.Set(i, v)
	}
	return e.Done()
}

// TestBlocksAtTheSeams holds a Blocks of n elements, for n on and beside
// the block seams, to the slice it was made of: Len, At, Slice and a walk
// of every range [lo, hi) span by span, each span within one block.
func TestBlocksAtTheSeams(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 129, 200} {
		s := make([]int, n)
		for i := range s {
			s[i] = 3*i + 1
		}
		b := blocksOf(s)
		if b.Len() != n || !slices.Equal(b.Slice(), s) {
			t.Fatalf("n=%d: Len %d, Slice %v", n, b.Len(), b.Slice())
		}
		for i := range s {
			if b.At(i) != s[i] {
				t.Fatalf("n=%d: At(%d) = %d, want %d", n, i, b.At(i), s[i])
			}
		}
		for _, lo := range []int{0, 1, 63, 64, 65, n / 2} {
			for _, hi := range []int{lo, lo + 1, 64, 65, 130, n} {
				if lo > hi || hi > n {
					continue
				}
				var walked []int
				for at := lo; at < hi; {
					span := b.Span(at, hi)
					if len(span) == 0 || at%BlockLen+len(span) > BlockLen {
						t.Fatalf("n=%d [%d, %d): span at %d is %d long", n, lo, hi, at, len(span))
					}
					walked = append(walked, span...)
					at += len(span)
				}
				if !slices.Equal(walked, s[lo:hi]) {
					t.Fatalf("n=%d [%d, %d): walked %v", n, lo, hi, walked)
				}
			}
		}
		if b.Span(n, n) != nil {
			t.Fatalf("n=%d: a span at the end is not nil", n)
		}
	}
}

// TestBlocksEdit: a successor shares exactly the blocks it does not
// write, its own blocks come from one slab, and the base reads as before.
// Setting an element that was not touched, or touching once the blocks
// are copied, panics.
func TestBlocksEdit(t *testing.T) {
	base := make([]int, 130)
	for i := range base {
		base[i] = i
	}
	b := blocksOf(base)
	// Element 70 is in block 1; block 2 holds 128 and 129 and takes the
	// appended ones.
	e := b.Edit(140)
	e.Touch(70)
	e.Touch(71)
	e.Set(70, -70)
	for i := 130; i < 140; i++ {
		e.Set(i, -i)
	}
	next := e.Done()
	want := append(slices.Clone(base), make([]int, 10)...)
	want[70] = -70
	for i := 130; i < 140; i++ {
		want[i] = -i
	}
	if !slices.Equal(next.Slice(), want) {
		t.Fatalf("successor %v", next.Slice())
	}
	if !slices.Equal(b.Slice(), base) {
		t.Fatal("the edit wrote into its base")
	}
	if next.Block(0) != b.Block(0) || next.Block(64) == b.Block(64) || next.Block(128) == b.Block(128) {
		t.Fatal("the successor shares a block it wrote, or copied one it did not")
	}
	if next.Block(64) == next.Block(128) {
		t.Fatal("two own blocks are one")
	}
	// The block index and one slab for every block the edit owns.
	if n := testing.AllocsPerRun(10, func() {
		e := b.Edit(140)
		e.Touch(70)
		e.Touch(5)
		e.Set(139, 1)
		_ = e.Done()
	}); n != 2 {
		t.Fatalf("an edit of three blocks allocates %.0f objects, want 2", n)
	}
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"a Set of an untouched element", func() { e := b.Edit(130); e.Set(5, 0) }},
		{"a Touch after a Set", func() { e := b.Edit(130); e.Touch(5); e.Set(5, 0); e.Touch(70) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", c.name)
				}
			}()
			c.f()
		})
	}
}
