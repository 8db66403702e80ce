package history

import "math/bits"

// bitset is a fixed-capacity bit vector used for →co reachability. The
// capacity is fixed at creation; all sets over the same history share a
// word count, which keeps the union loops branch-free.
type bitset []uint64

func newBitset(n int) bitset {
	return make(bitset, (n+63)/64)
}

func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) clear(i int)    { b[i>>6] &^= 1 << (uint(i) & 63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// or folds o into b (b |= o).
func (b bitset) or(o bitset) {
	for i, w := range o {
		b[i] |= w
	}
}

// count returns the population count.
func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// members appends the set's elements in increasing order to dst.
func (b bitset) members(dst []int) []int {
	for wi, w := range b {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			dst = append(dst, wi*64+bit)
			w &= w - 1
		}
	}
	return dst
}
