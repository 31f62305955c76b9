package sim

import "math/bits"

// Bits is a fixed-size bit set: the occupancy word of an array of
// carriers (queues, links), one bit per carrier, set while it holds a
// message. A fabric loop walks the set bits instead of polling every
// index:
//
//	for i := b.Next(0); i >= 0; i = b.Next(i + 1) { ... }
//
// Next re-reads the words on every call, so the loop body may clear the
// bit it stands on (or any other) while iterating.
type Bits []uint64

// BitWords returns the number of words that hold n bits, for carving
// several sets out of one allocation.
func BitWords(n int) int { return (n + 63) / 64 }

// NewBits returns an empty set of n bits.
func NewBits(n int) Bits { return make(Bits, BitWords(n)) }

// Set sets bit i.
func (b Bits) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (b Bits) Clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// Has reports whether bit i is set.
func (b Bits) Has(i int) bool { return b[i>>6]>>(uint(i)&63)&1 != 0 }

// Any reports whether any bit is set.
func (b Bits) Any() bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of set bits.
func (b Bits) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Next returns the lowest set bit at or above i, or -1 when there is
// none.
func (b Bits) Next(i int) int {
	w := i >> 6
	if w >= len(b) {
		return -1
	}
	if rest := b[w] >> (uint(i) & 63); rest != 0 {
		return i + bits.TrailingZeros64(rest)
	}
	for w++; w < len(b); w++ {
		if b[w] != 0 {
			return w<<6 + bits.TrailingZeros64(b[w])
		}
	}
	return -1
}
