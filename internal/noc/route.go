package noc

import "fmt"

// routeXY computes the output port for a flit at the router at (x, y)
// heading to dst, using XY dimension-order routing: correct the X
// dimension fully, then the Y dimension. XY routing on a mesh is
// deadlock-free within each virtual network.
func routeXY(cfg *Config, here NodeID, dst NodeID) Direction {
	hx, hy := cfg.XY(here)
	dx, dy := cfg.XY(dst)
	switch {
	case dx > hx:
		return East
	case dx < hx:
		return West
	case dy > hy:
		return South
	case dy < hy:
		return North
	default:
		return Local
	}
}

// LoopRoute is the static path that visits every node in a single cycle,
// used as the storage medium for transient data tokens (§III-E: "a static
// path route that visits every node in a single loop"). On a W×H mesh
// with an even dimension this is a Hamiltonian cycle: serpentine through
// columns 1..W-1, then return along column 0.
type LoopRoute struct {
	next []NodeID // next[node] = successor on the loop
	pos  []int    // position of each node along the loop
}

// newLoopRoute builds the loop for the given mesh. Its one caller is New,
// after Config.Validate has rejected a snack network without an even
// width or height, so the odd×odd panic guards that invariant only.
func newLoopRoute(cfg *Config) *LoopRoute {
	w, h := cfg.Width, cfg.Height
	order := make([]NodeID, 0, w*h)
	if h%2 == 0 {
		// Serpentine down columns 1..W-1, rows alternating direction,
		// then back up column 0.
		for y := 0; y < h; y++ {
			if y%2 == 0 {
				for x := 1; x < w; x++ {
					order = append(order, cfg.Node(x, y))
				}
			} else {
				for x := w - 1; x >= 1; x-- {
					order = append(order, cfg.Node(x, y))
				}
			}
		}
		for y := h - 1; y >= 0; y-- {
			order = append(order, cfg.Node(0, y))
		}
	} else if w%2 == 0 {
		// Transposed variant: serpentine across rows 1..H-1, return on row 0.
		for x := 0; x < w; x++ {
			if x%2 == 0 {
				for y := 1; y < h; y++ {
					order = append(order, cfg.Node(x, y))
				}
			} else {
				for y := h - 1; y >= 1; y-- {
					order = append(order, cfg.Node(x, y))
				}
			}
		}
		for x := w - 1; x >= 0; x-- {
			order = append(order, cfg.Node(x, 0))
		}
	} else {
		panic(fmt.Sprintf("noc: newLoopRoute on odd×odd mesh %dx%d, which Config.Validate rejects for a snack network", w, h))
	}

	lr := &LoopRoute{
		next: make([]NodeID, w*h),
		pos:  make([]int, w*h),
	}
	for i, n := range order {
		lr.next[n] = order[(i+1)%len(order)]
		lr.pos[n] = i
	}
	return lr
}

// Next returns the successor of node n on the loop; successors are always
// mesh neighbors, so one XY hop reaches them.
func (lr *LoopRoute) Next(n NodeID) NodeID { return lr.next[n] }
