package storage

// BlockLen is the number of elements in one block of a Blocks.
const BlockLen = 64

// Blocks is an immutable list held in blocks of BlockLen elements: element
// i is in block i/BlockLen, at i%BlockLen, and the last block may be
// partly filled. A successor is derived with Edit, which copies the block
// index and the blocks it writes and shares every other block with its
// base, so a change of k elements costs n/BlockLen index entries and at
// most k blocks, not n elements. Nothing writes a Blocks once it is built,
// so it is safe to share read-only across goroutines. The zero value is
// empty.
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

// Editor derives the successor of a Blocks. Touch names each element of
// the base the successor will rewrite; then Set writes and At reads the
// successor. The first Set or At copies the blocks of the touched elements
// and the blocks past the base's last full one, which hold the appended
// elements, all from one slab; every other block stays the base's. So no
// write reaches memory the base, or another successor of it, reads.
type Editor[T any] struct {
	base, next Blocks[T]
	// owned counts the blocks the successor gets of its own, which are nil
	// in next's index until the first Set or At copies them.
	owned  int
	copied bool
}

// Edit starts the successor of b with n elements, n ≥ b.Len(): b's
// elements followed by n-b.Len() zero ones.
func (b Blocks[T]) Edit(n int) Editor[T] {
	e := Editor[T]{base: b, next: Blocks[T]{index: make([]*[BlockLen]T, (n+BlockLen-1)/BlockLen), n: n}}
	copy(e.next.index, b.index)
	if n > b.n {
		for k := b.n / BlockLen; k < len(e.next.index); k++ {
			e.next.index[k] = nil
			e.owned++
		}
	}
	return e
}

// Touch names element i of the base as one the successor will write. It
// must come before the first Set or At.
func (e *Editor[T]) Touch(i int) {
	if e.copied {
		panic("storage: Editor.Touch after the blocks were copied")
	}
	if k := uint(i) / BlockLen; e.next.index[k] != nil {
		e.next.index[k] = nil
		e.owned++
	}
}

// own gives the successor its own blocks, once: one slab for all of
// them, each a copy of the base's block where the base has one.
func (e *Editor[T]) own() {
	e.copied = true
	if e.owned == 0 {
		return
	}
	slab := make([][BlockLen]T, e.owned)
	for k, blk := range e.next.index {
		if blk != nil {
			continue
		}
		if k < len(e.base.index) {
			slab[0] = *e.base.index[k]
		}
		e.next.index[k] = &slab[0]
		slab = slab[1:]
	}
}

// At returns element i of the successor.
func (e *Editor[T]) At(i int) T {
	if !e.copied {
		e.own()
	}
	return e.next.At(i)
}

// Set writes element i of the successor, which must be touched or appended.
func (e *Editor[T]) Set(i int, v T) {
	if !e.copied {
		e.own()
	}
	k := uint(i) / BlockLen
	blk := e.next.index[k]
	if int(k) < len(e.base.index) && blk == e.base.index[k] {
		panic("storage: Editor.Set of an element that was not touched")
	}
	blk[uint(i)%BlockLen] = v
}

// Done returns the successor. The editor must not be used after.
func (e *Editor[T]) Done() Blocks[T] {
	if !e.copied {
		e.own()
	}
	return e.next
}
