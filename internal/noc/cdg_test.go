package noc

import (
	"fmt"
	"testing"
)

// A wormhole network is deadlock-free within a virtual network when its
// channel-dependency graph is acyclic (Dally and Seitz): a vertex per
// (link, vnet), and an edge from one to the next wherever the routing
// function sends a packet from the first channel into the second. XY
// routing makes every packet finish its X hops before its first Y hop,
// so no cycle of turns can close; this is the argument MultiNoC/Hermes
// rests on, checked here on the routing function itself.

// routeFunc is a per-hop routing function: the output at here toward
// dst.
type routeFunc func(cfg *Config, here, dst NodeID) Direction

// cdgCycle builds the channel-dependency graph of route over the
// communication vnets of cfg (every vnet but the snack vnet) and returns
// a description of a cycle, or "" when it is acyclic. A route that
// leaves the mesh or takes more hops than the mesh has nodes is
// reported too.
func cdgCycle(cfg *Config, route routeFunc) string {
	var vnets []int
	for v := range cfg.VNets {
		if v != cfg.SnackVNet {
			vnets = append(vnets, v)
		}
	}
	nodes, nv := cfg.Nodes(), len(vnets)
	channel := func(n NodeID, d Direction, k int) int { return (int(n)*int(Local)+int(d))*nv + k }
	edges := make([][]int, nodes*int(Local)*nv) // with repeats, which the search skips
	for src := range NodeID(nodes) {
		for dst := range NodeID(nodes) {
			prev, here := -1, src
			for hops := 0; ; hops++ {
				d := route(cfg, here, dst)
				if d == Local {
					break
				}
				next, ok := cfg.neighbor(here, d)
				if !ok || hops == nodes {
					return fmt.Sprintf("the route %d→%d leaves the mesh or loops at %d", src, dst, here)
				}
				for k := range vnets {
					if prev >= 0 {
						edges[prev+k] = append(edges[prev+k], channel(here, d, k))
					}
				}
				prev, here = channel(here, d, 0), next
			}
		}
	}
	// Depth-first search for a back edge: 1 marks a channel on the
	// current path, 2 one fully explored.
	state := make([]uint8, len(edges))
	var visit func(c int) string
	visit = func(c int) string {
		state[c] = 1
		for _, n := range edges[c] {
			switch state[n] {
			case 1:
				return fmt.Sprintf("a dependency cycle runs through channel %s", chanName(cfg, n, nv, vnets))
			case 0:
				if s := visit(n); s != "" {
					return s
				}
			}
		}
		state[c] = 2
		return ""
	}
	for c := range edges {
		if state[c] == 0 {
			if s := visit(c); s != "" {
				return s
			}
		}
	}
	return ""
}

// chanName names channel c: its link and vnet.
func chanName(cfg *Config, c, nv int, vnets []int) string {
	k, l := c%nv, c/nv
	x, y := cfg.XY(NodeID(l / int(Local)))
	return fmt.Sprintf("(%d,%d)→%v vnet %d", x, y, Direction(l%int(Local)), vnets[k])
}

// cdgMeshes returns every preset (both SnackPlatform arbiters) on every
// mesh from 2×2 to 8×8, square or not, that Validate accepts: a snack
// network needs an even side.
func cdgMeshes(t *testing.T) []*Config {
	var out []*Config
	for w := 2; w <= 8; w++ {
		for h := 2; h <= 8; h++ {
			for _, cfg := range []*Config{DAPPER(w, h), AxNoC(w, h), BiNoCHS(w, h), SnackPlatform(w, h, false), SnackPlatform(w, h, true)} {
				if cfg.Validate() == nil {
					out = append(out, cfg)
				} else if cfg.SnackVNet < 0 || (w%2 == 0 || h%2 == 0) {
					t.Fatalf("%s %dx%d: %v", cfg.Name, w, h, cfg.Validate())
				}
			}
		}
	}
	return out
}

// TestXYChannelDependenciesAreAcyclic: on every preset and mesh, XY
// routing's channel-dependency graph over the communication vnets has no
// cycle, so no wormhole deadlock can form within a CMP vnet. The snack
// vnet's loop route is not covered.
func TestXYChannelDependenciesAreAcyclic(t *testing.T) {
	for _, cfg := range cdgMeshes(t) {
		if s := cdgCycle(cfg, routeXY); s != "" {
			t.Errorf("%s %dx%d: %s", cfg.Name, cfg.Width, cfg.Height, s)
		}
	}
}

// TestCDGCheckFindsAPlantedCycle plants a fault the check must see: the
// routing function sends the packets between one node pair, the corners
// (0,0) and (1,1) of one mesh square, Y first. Each direction adds one
// Y-to-X turn, and the two close a counter-clockwise cycle of channels
// around the square with the X-to-Y turns XY routing makes there.
func TestCDGCheckFindsAPlantedCycle(t *testing.T) {
	for _, cfg := range cdgMeshes(t) {
		a, b := cfg.Node(0, 0), cfg.Node(1, 1)
		yx := func(cfg *Config, here, dst NodeID) Direction {
			switch {
			case here == a && dst == b:
				return South
			case here == b && dst == a:
				return North
			}
			return routeXY(cfg, here, dst)
		}
		if s := cdgCycle(cfg, yx); s == "" {
			t.Errorf("%s %dx%d: routing (0,0)↔(1,1) Y first left the channel-dependency graph acyclic", cfg.Name, cfg.Width, cfg.Height)
		}
	}
}
