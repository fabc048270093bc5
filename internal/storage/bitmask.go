package storage

import "math/bits"

// Selection bitmasks: packed []uint64 bit vectors over projection rows,
// bit i = row i. The vectorized kernels (internal/pattern) fill one mask
// per condition with branch-free compare loops and combine them with
// word-wise AND/OR; the executors then consume candidate rows by
// trailing-zeros iteration instead of probing row at a time. The helpers
// here are deliberately free-standing functions over plain slices so the
// pattern and engine packages can share scratch buffers without an
// ownership protocol.

// MaskWords returns the number of 64-bit words needed for n rows.
func MaskWords(n int) int { return (n + 63) / 64 }

// MaskHas reports whether bit i is set.
func MaskHas(m []uint64, i int) bool {
	return m[i>>6]&(1<<uint(i&63)) != 0
}

// MaskSetBit sets bit i.
func MaskSetBit(m []uint64, i int) {
	m[i>>6] |= 1 << uint(i&63)
}

// MaskAnd intersects src into dst word-wise (dst &= src).
func MaskAnd(dst, src []uint64) {
	for i := range dst {
		dst[i] &= src[i]
	}
}

// MaskOr unions src into dst word-wise (dst |= src).
func MaskOr(dst, src []uint64) {
	for i := range dst {
		dst[i] |= src[i]
	}
}

// MaskZero clears every word of m.
func MaskZero(m []uint64) {
	for i := range m {
		m[i] = 0
	}
}

// MaskFill sets bits [0, n) and clears everything above.
func MaskFill(m []uint64, n int) {
	full := n >> 6
	for i := 0; i < full; i++ {
		m[i] = ^uint64(0)
	}
	for i := full; i < len(m); i++ {
		m[i] = 0
	}
	if rem := n & 63; rem != 0 {
		m[full] = 1<<uint(rem) - 1
	}
}

// MaskPopcount counts the set bits of m.
func MaskPopcount(m []uint64) int64 {
	var n int64
	for _, w := range m {
		n += int64(bits.OnesCount64(w))
	}
	return n
}

// MaskNextSet returns the lowest set bit index ≥ from, or -1 when no set
// bit remains. from may exceed the mask's bit length.
func MaskNextSet(m []uint64, from int) int {
	if from < 0 {
		from = 0
	}
	w := from >> 6
	if w >= len(m) {
		return -1
	}
	cur := m[w] >> uint(from&63)
	if cur != 0 {
		return from + bits.TrailingZeros64(cur)
	}
	for w++; w < len(m); w++ {
		if m[w] != 0 {
			return w<<6 + bits.TrailingZeros64(m[w])
		}
	}
	return -1
}

// MaskNextClear returns the lowest clear bit index ≥ from, capped at n:
// the end of the run of set bits starting at from, over a mask of n
// valid bits. It returns n when every bit in [from, n) is set and when
// from ≥ n, so bits at or above n never count, whatever they hold.
func MaskNextClear(m []uint64, from, n int) int {
	if from < 0 {
		from = 0
	}
	if from >= n {
		return n
	}
	w := from >> 6
	if cur := ^m[w] >> uint(from&63); cur != 0 {
		return min(from+bits.TrailingZeros64(cur), n)
	}
	for w++; w<<6 < n; w++ {
		if m[w] != ^uint64(0) {
			return min(w<<6+bits.TrailingZeros64(^m[w]), n)
		}
	}
	return n
}

// MaskNextPair returns the lowest row r ≥ from with r+1 < n whose x bit
// is set and whose successor's y bit is set, or n-1 when there is none,
// and xs, the number of x bits set in [from, r). A nil y is all ones, so
// r is then x's next set bit below n-1 and xs is 0. Both masks hold n
// valid bits; nothing at or above n counts, whatever it holds.
func MaskNextPair(x, y []uint64, from, n int) (r, xs int) {
	last := n - 1 // rows below last are the ones with a successor
	if from < 0 {
		from = 0
	}
	if from >= last {
		return last, 0
	}
	lo := ^uint64(0) << uint(from&63) // drops the first word's rows below from
	for w := from >> 6; w<<6 < last; w++ {
		xw := x[w] & lo
		if tail := last - w<<6; tail < 64 {
			xw &= 1<<uint(tail) - 1
		}
		c := xw
		if y != nil {
			succ := y[w] >> 1
			if (w+1)<<6 < n {
				succ |= y[w+1] << 63
			}
			c &= succ
		}
		if c != 0 {
			z := bits.TrailingZeros64(c)
			return w<<6 + z, xs + bits.OnesCount64(xw&(1<<uint(z)-1))
		}
		xs += bits.OnesCount64(xw)
		lo = ^uint64(0)
	}
	return last, xs
}

// MaskPairWord is MaskNextPair from row 0 over masks of one word: x and y
// are the words of masks of n rows, 1 ≤ n ≤ 64, and y is all ones for
// MaskNextPair's nil y. Small enough to inline into a loop over many short
// sequences, which would otherwise pay a call and a word loop per scan.
func MaskPairWord(x, y uint64, n int) (r, xs int) {
	x &= 1<<uint(n-1) - 1 // the rows with a successor
	if c := x & (y >> 1); c != 0 {
		r = bits.TrailingZeros64(c)
		return r, bits.OnesCount64(x & (1<<uint(r) - 1))
	}
	return n - 1, bits.OnesCount64(x)
}
