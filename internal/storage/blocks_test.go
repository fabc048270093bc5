package storage

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

// blocksOf returns a Blocks of a copy of s's elements.
func blocksOf[T any](s []T) Blocks[T, struct{}] {
	e := Blocks[T, struct{}]{}.Edit(len(s))
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
// write, and no Set changes a block of the base or of a sibling successor
// of the same base. Repeated Sets into one block copy it once, and an
// appended element that was never written reads as the zero value, in
// the editor and after Done.
func TestBlocksEdit(t *testing.T) {
	base := make([]int, 130)
	for i := range base {
		base[i] = i
	}
	b := blocksOf(base)
	// Element 70 is in block 1; block 2 holds 128 and 129 and takes the
	// appended ones.
	e := b.Edit(140)
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
	if next.Block(0) != b.Block(0) || next.Block(64) == b.Block(64) || next.Block(128) == b.Block(128) {
		t.Fatal("the successor shares a block it wrote, or copied one it did not")
	}

	// A sibling of next writes every block next and the base hold, and one
	// of its own; after each Set both read as before.
	sib := b.Edit(200)
	for _, i := range []int{5, 70, 71, 129, 135, 199} {
		sib.Set(i, 1000+i)
		if !slices.Equal(b.Slice(), base) || !slices.Equal(next.Slice(), want) {
			t.Fatalf("a Set of element %d of a sibling wrote into the base or into next", i)
		}
	}
	for k := 0; k < 3; k++ {
		if blk := sib.next.Block(k * BlockLen); blk == b.Block(k*BlockLen) || blk == next.Block(k*BlockLen) {
			t.Fatalf("the sibling writes block %d of the base or of next", k)
		}
	}

	// Repeated Sets into one block copy it once.
	rep := b.Edit(130)
	rep.Set(64, 0)
	own := rep.next.Block(64)
	for i := 65; i < 128; i++ {
		rep.Set(i, 0)
	}
	if rep.next.Block(64) != own {
		t.Fatal("a second Set into a block copied it again")
	}

	// Block 2 is the base's partly filled one, block 3 is appended: no Set
	// reaches either.
	zero := b.Edit(260)
	for _, i := range []int{130, 150, 191, 192, 259} {
		if v := zero.At(i); v != 0 {
			t.Fatalf("At(%d) of an unwritten appended element = %d", i, v)
		}
	}
	if z := zero.Done(); z.At(150) != 0 || z.At(259) != 0 || z.Len() != 260 {
		t.Fatalf("Done over unwritten appended elements: %d elements, %d and %d", z.Len(), z.At(150), z.At(259))
	}

	// The block index and one allocation per block the edit writes.
	if n := testing.AllocsPerRun(10, func() {
		e := b.Edit(140)
		e.Set(70, 1)
		e.Set(71, 1)
		e.Set(5, 1)
		e.Set(139, 1)
		_ = e.Done()
	}); n != 4 {
		t.Fatalf("an edit of three blocks allocates %.0f objects, want 4", n)
	}
}

// TestBlocksSums: a block's summary lives in the block. A successor's
// unwritten blocks keep the base's summaries pointer for pointer; a block
// copied for a Set carries the base's summary until SetSum writes it; a
// SetSum copies the block on its first write as a Set does, and neither
// the base nor a sibling sees it; one SetSum and Sets in a block cost one
// allocation.
func TestBlocksSums(t *testing.T) {
	base := Blocks[int, int]{}.Edit(130)
	for i := 0; i < 130; i++ {
		base.Set(i, i)
	}
	for k := 0; k < 3; k++ {
		base.SetSum(k*BlockLen, 100+k)
	}
	b := base.Done()
	e := b.Edit(200)
	e.Set(70, -70)    // block 1: copied, its summary carried
	e.SetSum(129, -2) // block 2: copied by the summary's write alone
	e.Set(199, -199)  // block 3: appended
	e.SetSum(192, -3)
	next := e.Done()
	if next.Sum(0) != b.Sum(0) || next.Sum(64) == b.Sum(64) || next.Sum(128) == b.Sum(128) {
		t.Fatal("the successor shares a summary whose block it wrote, or copied one it did not")
	}
	if got := []int{*next.Sum(0), *next.Sum(70), *next.Sum(128), *next.Sum(199)}; !slices.Equal(got, []int{100, 101, -2, -3}) {
		t.Fatalf("successor's summaries %v", got)
	}
	if got := []int{*b.Sum(0), *b.Sum(64), *b.Sum(129)}; !slices.Equal(got, []int{100, 101, 102}) {
		t.Fatalf("the base's summaries changed: %v", got)
	}
	if next.At(129) != 129 || next.At(70) != -70 || next.Block(128) == b.Block(128) {
		t.Fatal("a summary's write lost the block's elements or wrote the base's block")
	}
	sib := b.Edit(130)
	sib.SetSum(0, 7)
	if *b.Sum(0) != 100 || *next.Sum(0) != 100 || *sib.next.Sum(0) != 7 {
		t.Fatal("a sibling's SetSum reached the base or next")
	}
	if n := testing.AllocsPerRun(10, func() {
		e := b.Edit(130)
		e.Set(70, 1)
		e.SetSum(70, 1)
		e.Set(71, 1)
		_ = e.Done()
	}); n != 2 {
		t.Fatalf("an edit of one block and its summary allocates %.0f objects, want 2", n)
	}
	// struct{} summaries take no room: a block of 64 words is 512 bytes.
	if sz := unsafe.Sizeof(block[uint64, struct{}]{}); sz != BlockLen*8 {
		t.Fatalf("a block of 64 words with no summary is %d bytes", sz)
	}
}

// TestBlocksRetainOnlyTheirBlocks: a chain of edits keeps alive the
// blocks its last successor holds, whichever edits copied them. From 64
// full blocks, edit r writes one element in each of blocks 0 … 63-r, so
// block k was last copied by edit 63-k. Were the blocks an edit copies
// one allocation, block k would keep that edit's 64-(63-k) blocks alive,
// 2,080 blocks in all.
func TestBlocksRetainOnlyTheirBlocks(t *testing.T) {
	type elem [4]int64
	const blocks, blockBytes = 64, BlockLen * 4 * 8
	heap := func() int64 {
		runtime.GC() // twice: the first may leave the previous cycle's pools
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	b := blocksOf(make([]elem, blocks*BlockLen))
	for r := 0; r < blocks; r++ {
		e := b.Edit(b.Len())
		for k := 0; k < blocks-r; k++ {
			e.Set(k*BlockLen, elem{int64(r)})
		}
		b = e.Done()
	}
	live := heap() - before
	runtime.KeepAlive(b)
	t.Logf("64 blocks of %d B hold %d B live after 64 edits", blockBytes, live)
	if live > 2*blocks*blockBytes {
		t.Errorf("64 blocks of %d B hold %d B live after 64 edits, more than twice their %d B", blockBytes, live, blocks*blockBytes)
	}
}
