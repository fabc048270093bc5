package storage

// BlockLen is the number of elements in one block of a Blocks.
const BlockLen = 64

// Blocks is an immutable list held in blocks of BlockLen elements: element
// i is in block i/BlockLen, at i%BlockLen, and the last block may be
// partly filled. Each block also carries a summary of type S (struct{}
// for none) in the block's own allocation. A successor is derived with
// Edit, which copies the block index, copies each block on its first
// write and shares every other block with its base, so a change of k
// elements costs n/BlockLen index entries and at most k blocks, not n
// elements. A block the successor did not write is its base's, pointer
// for pointer (Block), summary included, so what a successor changed can
// be read off the two lists. Nothing writes a Blocks once it is built, so
// it is safe to share read-only across goroutines. The zero value is
// empty.
type Blocks[T, S any] struct {
	index []*block[T, S]
	n     int
}

// block is one block's memory: its summary, then its elements. The summary
// comes first, so that an empty one adds no padding.
type block[T, S any] struct {
	sum S
	e   [BlockLen]T
}

// Len returns the number of elements.
func (b Blocks[T, S]) Len() int { return b.n }

// At returns element i.
func (b Blocks[T, S]) At(i int) T { return b.index[uint(i)/BlockLen].e[uint(i)%BlockLen] }

// Span returns the elements from lo up to hi or to the end of lo's block,
// whichever comes first, as a slice of the block, which the caller must
// not write: walking [lo, hi) span by span visits each block once. It is
// nil when lo is not below Len, so an empty Blocks spans nothing.
func (b Blocks[T, S]) Span(lo, hi int) []T {
	if lo >= b.n {
		return nil
	}
	off := int(uint(lo) % BlockLen)
	return b.index[uint(lo)/BlockLen].e[off:min(BlockLen, off+hi-lo)]
}

// Sum returns the summary of the block element i is in, which the caller
// must not write.
func (b Blocks[T, S]) Sum(i int) *S { return &b.index[uint(i)/BlockLen].sum }

// Slice returns the elements in one new slice.
func (b Blocks[T, S]) Slice() []T {
	out := make([]T, 0, b.n)
	for lo := 0; lo < b.n; lo += BlockLen {
		out = append(out, b.Span(lo, b.n)...)
	}
	return out
}

// Block returns the memory of the block element i is in: two Blocks
// share the element's block exactly when Block returns the same pointer
// for both.
func (b Blocks[T, S]) Block(i int) *[BlockLen]T { return &b.index[uint(i)/BlockLen].e }

// Same reports whether b and o are one list: one block index over the
// same length. Every Edit makes an index of its own.
func (b Blocks[T, S]) Same(o Blocks[T, S]) bool {
	return b.n == o.n && (b.n == 0 || &b.index[0] == &o.index[0])
}

// Editor derives the successor of a Blocks: Set writes and At reads it.
// The first Set into a block still the base's copies it, and the first
// into an appended block allocates it, each an allocation of its own that
// lives only while a generation holds it; every other block stays the
// base's. So no write reaches memory the base, or another successor of
// it, reads.
type Editor[T, S any] struct {
	base, next Blocks[T, S]
}

// Edit starts the successor of b with n elements, n ≥ b.Len(): b's
// elements followed by n-b.Len() zero ones.
func (b Blocks[T, S]) Edit(n int) Editor[T, S] {
	e := Editor[T, S]{base: b, next: Blocks[T, S]{index: make([]*block[T, S], (n+BlockLen-1)/BlockLen), n: n}}
	copy(e.next.index, b.index)
	return e
}

// At returns element i of the successor: the zero value in an appended
// block that was never written.
func (e *Editor[T, S]) At(i int) T {
	if blk := e.next.index[uint(i)/BlockLen]; blk != nil {
		return blk.e[uint(i)%BlockLen]
	}
	var zero T
	return zero
}

// Set writes element i of the successor.
func (e *Editor[T, S]) Set(i int, v T) { e.own(i).e[uint(i)%BlockLen] = v }

// SetSum writes the summary of the block element i is in, in the
// successor.
func (e *Editor[T, S]) SetSum(i int, s S) { e.own(i).sum = s }

// own returns the successor's block of element i for a write: its own
// copy of the base's block, or a new one for an appended block, made on
// the first write.
func (e *Editor[T, S]) own(i int) *block[T, S] {
	k := uint(i) / BlockLen
	blk := e.next.index[k]
	if blk == nil || int(k) < len(e.base.index) && blk == e.base.index[k] {
		own := new(block[T, S])
		if blk != nil {
			*own = *blk
		}
		e.next.index[k], blk = own, own
	}
	return blk
}

// Done returns the successor, an appended block that was never written
// holding zero values. The editor must not be used after.
func (e *Editor[T, S]) Done() Blocks[T, S] {
	for k := len(e.base.index); k < len(e.next.index); k++ {
		if e.next.index[k] == nil {
			e.next.index[k] = new(block[T, S])
		}
	}
	return e.next
}
