package flat

import "math/bits"

// IndexSet is a set of small non-negative integers, one bit per index
// over as many words as the largest index needs (Fig 13's 16x8 mesh puts
// 128 cores, and as many RCUs, on one engine). Components that step only
// the members of a group that hold work — cpu's cores, core's RCUs —
// keep their runnable members in one. The caller sizes the slice: 64
// indices a word.
type IndexSet []uint64

// Add puts i into the set.
func (s IndexSet) Add(i int) { s[i/64] |= 1 << (i % 64) }

// Remove takes i out of the set.
func (s IndexSet) Remove(i int) { s[i/64] &^= 1 << (i % 64) }

// Has reports whether i is in the set.
func (s IndexSet) Has(i int) bool { return s[i/64]&(1<<(i%64)) != 0 }

// Next returns the smallest member at or above i, or -1 when there is
// none. A walk in index order is
//
//	for i := s.Next(0); i >= 0; i = s.Next(i + 1)
//
// and, reading the set again at every step, it visits a member added
// above i during the walk and skips one removed before it is reached.
func (s IndexSet) Next(i int) int {
	w := i / 64
	if w >= len(s) {
		return -1
	}
	if m := s[w] >> (i % 64); m != 0 {
		return i + bits.TrailingZeros64(m)
	}
	for w++; w < len(s); w++ {
		if s[w] != 0 {
			return w*64 + bits.TrailingZeros64(s[w])
		}
	}
	return -1
}
