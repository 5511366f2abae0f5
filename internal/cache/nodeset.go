package cache

import (
	"math/bits"

	"snacknoc/internal/noc"
)

// nodeSet is a deterministic set of node IDs (up to 128, covering the
// paper's largest Fig 13 platform). Iteration is always in ascending
// order, which keeps protocol message ordering — and therefore whole-
// platform simulations — reproducible. (A Go map here would randomize
// invalidation order between runs.)
type nodeSet struct {
	w [2]uint64
}

// maxNodes is the largest mesh a nodeSet covers.
const maxNodes = len(nodeSet{}.w) * 64

func (s *nodeSet) add(n noc.NodeID)      { s.w[n>>6] |= 1 << (uint(n) & 63) }
func (s *nodeSet) del(n noc.NodeID)      { s.w[n>>6] &^= 1 << (uint(n) & 63) }
func (s *nodeSet) has(n noc.NodeID) bool { return s.w[n>>6]&(1<<(uint(n)&63)) != 0 }
func (s *nodeSet) clear()                { s.w[0], s.w[1] = 0, 0 }

func (s *nodeSet) count() int {
	return bits.OnesCount64(s.w[0]) + bits.OnesCount64(s.w[1])
}

// forEach visits members in ascending order.
func (s *nodeSet) forEach(fn func(noc.NodeID)) {
	for wi, w := range s.w {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(noc.NodeID(wi*64 + b))
			w &^= 1 << uint(b)
		}
	}
}
