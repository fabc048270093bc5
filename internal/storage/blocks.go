package storage

// BlockLen is the number of elements in one block of a Blocks.
const BlockLen = 64

// Blocks is an immutable list held in blocks of BlockLen elements: element
// i is in block i/BlockLen, at i%BlockLen, and the last block may be
// partly filled. A successor is derived with Edit, which copies the block
// index, copies each block on its first write and shares every other
// block with its base, so a change of k elements costs n/BlockLen index
// entries and at most k blocks, not n elements. A block the successor did
// not write is its base's, pointer for pointer (Block), so what a
// successor changed can be read off the two lists. Nothing writes a Blocks
// once it is built, so it is safe to share read-only across goroutines.
// The zero value is empty.
type Blocks[T any] struct {
	index []*[BlockLen]T
	n     int
}

// Len returns the number of elements.
func (b Blocks[T]) Len() int { return b.n }

// At returns element i.
func (b Blocks[T]) At(i int) T { return b.index[uint(i)/BlockLen][uint(i)%BlockLen] }

// Span returns the elements from lo up to hi or to the end of lo's block,
// whichever comes first, as a slice of the block, which the caller must
// not write: walking [lo, hi) span by span visits each block once. It is
// nil when lo is not below Len, so an empty Blocks spans nothing.
func (b Blocks[T]) Span(lo, hi int) []T {
	if lo >= b.n {
		return nil
	}
	off := int(uint(lo) % BlockLen)
	return b.index[uint(lo)/BlockLen][off:min(BlockLen, off+hi-lo)]
}

// Slice returns the elements in one new slice.
func (b Blocks[T]) Slice() []T {
	out := make([]T, 0, b.n)
	for lo := 0; lo < b.n; lo += BlockLen {
		out = append(out, b.Span(lo, b.n)...)
	}
	return out
}

// Block returns the memory of the block element i is in: two Blocks
// share the element's block exactly when Block returns the same pointer
// for both.
func (b Blocks[T]) Block(i int) *[BlockLen]T { return b.index[uint(i)/BlockLen] }

// Same reports whether b and o are one list: one block index over the
// same length. Every Edit makes an index of its own.
func (b Blocks[T]) Same(o Blocks[T]) bool {
	return b.n == o.n && (b.n == 0 || &b.index[0] == &o.index[0])
}

// Editor derives the successor of a Blocks: Set writes and At reads it.
// The first Set into a block still the base's copies it, and the first
// into an appended block allocates it, each an allocation of its own that
// lives only while a generation holds it; every other block stays the
// base's. So no write reaches memory the base, or another successor of
// it, reads.
type Editor[T any] struct {
	base, next Blocks[T]
}

// Edit starts the successor of b with n elements, n ≥ b.Len(): b's
// elements followed by n-b.Len() zero ones.
func (b Blocks[T]) Edit(n int) Editor[T] {
	e := Editor[T]{base: b, next: Blocks[T]{index: make([]*[BlockLen]T, (n+BlockLen-1)/BlockLen), n: n}}
	copy(e.next.index, b.index)
	return e
}

// At returns element i of the successor: the zero value in an appended
// block that was never written.
func (e *Editor[T]) At(i int) T {
	if blk := e.next.index[uint(i)/BlockLen]; blk != nil {
		return blk[uint(i)%BlockLen]
	}
	var zero T
	return zero
}

// Set writes element i of the successor.
func (e *Editor[T]) Set(i int, v T) {
	k := uint(i) / BlockLen
	blk := e.next.index[k]
	if blk == nil || int(k) < len(e.base.index) && blk == e.base.index[k] {
		own := new([BlockLen]T)
		if blk != nil {
			*own = *blk
		}
		e.next.index[k], blk = own, own
	}
	blk[uint(i)%BlockLen] = v
}

// Done returns the successor, an appended block that was never written
// holding zero values. The editor must not be used after.
func (e *Editor[T]) Done() Blocks[T] {
	for k := len(e.base.index); k < len(e.next.index); k++ {
		if e.next.index[k] == nil {
			e.next.index[k] = new([BlockLen]T)
		}
	}
	return e.next
}
