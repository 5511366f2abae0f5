// Package noc implements a cycle-level 2D-mesh network-on-chip in the
// style of Garnet2.0 (the interconnect model the paper's evaluation is
// built on): wormhole switching, virtual channels with credit-based flow
// control, XY dimension-order routing, separable round-robin virtual-
// channel and switch allocation, configurable router pipeline depth and
// channel width, and multiple virtual networks.
//
// Two extensions host the SnackNoC platform (paper §III):
//
//   - a dedicated snack virtual network for instruction and data tokens,
//     with optional priority arbitration that serves communication flits
//     before snack flits at every allocator (§III-D3);
//   - a per-router compute attachment point (the Router Compute Unit) that
//     can consume arriving snack flits, rewrite transient data tokens in
//     flight, and inject results through a dedicated compute port into the
//     crossbar (§III-D, Fig 6);
//   - a static loop route visiting every node, used as the transient
//     storage medium for data tokens (§III-E).
package noc

import (
	"fmt"
	"math"
)

// NodeID identifies a mesh node (router + network interface).
// Config.Validate bounds a mesh to the int32 range.
type NodeID int32

// Direction enumerates router ports. Local is the network-interface port;
// Compute is the optional RCU injection port (input only).
type Direction int8

// Router port directions.
const (
	North Direction = iota
	East
	South
	West
	Local
	Compute // RCU injection port (present only when Config.ComputePort)

	numDirections = 6
)

// String returns a short port name for traces.
func (d Direction) String() string {
	switch d {
	case North:
		return "N"
	case East:
		return "E"
	case South:
		return "S"
	case West:
		return "W"
	case Local:
		return "L"
	case Compute:
		return "C"
	}
	return fmt.Sprintf("Direction(%d)", int(d))
}

// VNetConfig describes one virtual network (an independent VC pool, the
// mechanism Garnet uses to separate protocol message classes).
type VNetConfig struct {
	Name     string
	VCs      int // virtual channels per input port in this vnet
	BufDepth int // flit slots per VC
}

// Config describes a mesh NoC instance. The presets in presets.go encode
// the paper's Table I baselines and Table IV simulated platform.
type Config struct {
	Name   string
	Width  int // mesh columns
	Height int // mesh rows

	// ChannelWidthBytes is the flit/phit width; one flit traverses a link
	// per cycle (Table I: 16 B for DAPPER/AxNoC, 32 B for BiNoCHS).
	ChannelWidthBytes int

	// RouterLatency is the in-router pipeline depth in cycles. The paper
	// counts stages including link traversal, so an "N-stage pipeline"
	// NoC has RouterLatency N-1 with LinkLatency 1.
	RouterLatency int
	LinkLatency   int

	VNets []VNetConfig

	// SnackVNet is the index into VNets of the dedicated SnackNoC virtual
	// network, or -1 when the platform is not present (§III-B: "A
	// dedicated virtual network is used to distribute SnackNoC
	// instruction packets").
	SnackVNet int

	// PriorityArb arbitrates communication flits ahead of snack flits at
	// the VC and switch allocators (§III-D3).
	PriorityArb bool

	// ComputePort adds the RCU injection input port to every router.
	ComputePort bool

	// Shards is read by nothing: every network runs on the one engine
	// handed to New, whatever its value. It stays only because the
	// repository benchmark (benchmark/extras.go) still sets it.
	Shards int
}

// Nodes returns the node count.
func (c *Config) Nodes() int { return c.Width * c.Height }

// meshSlotBudget bounds the buffer slots Validate lets one mesh plan: a
// slot is a flit pointer, so 2^26 of them are 512 MB of buffer slab, and
// the wire queues New sizes beside them grow with the same depths. The
// largest mesh an experiment builds, the default DSE grid at 256 RCUs
// (16 VCs of 16 flits in three vnets on a 16x16 mesh), plans 2^20. The
// budget also keeps each router's slots inside the int32 base and depth
// its VC rings index them with.
const meshSlotBudget = 1 << 26

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.Width < 2 || c.Height < 2 {
		return fmt.Errorf("noc: mesh must be at least 2x2, got %dx%d", c.Width, c.Height)
	}
	if c.Height > math.MaxInt32/c.Width { // Width*Height > MaxInt32, without overflow
		return fmt.Errorf("noc: %dx%d mesh has more nodes than a NodeID can name", c.Width, c.Height)
	}
	if c.ChannelWidthBytes <= 0 {
		return fmt.Errorf("noc: channel width must be positive, got %d", c.ChannelWidthBytes)
	}
	if c.RouterLatency < 1 {
		return fmt.Errorf("noc: router latency must be >= 1, got %d", c.RouterLatency)
	}
	if c.LinkLatency < 1 {
		return fmt.Errorf("noc: link latency must be >= 1, got %d", c.LinkLatency)
	}
	if len(c.VNets) == 0 {
		return fmt.Errorf("noc: at least one virtual network required")
	}
	totVC := 0
	for i, v := range c.VNets {
		if v.VCs < 1 || v.BufDepth < 1 {
			return fmt.Errorf("noc: vnet %d (%s) needs >=1 VC and >=1 buffer, got %d/%d",
				i, v.Name, v.VCs, v.BufDepth)
		}
		totVC += v.VCs
	}
	if totVC > 64 {
		// Router output-VC state packs one busy bit per (vnet, vc) slot
		// into a single word.
		return fmt.Errorf("noc: at most 64 total VCs per port, got %d", totVC)
	}
	if c.SnackVNet >= len(c.VNets) {
		return fmt.Errorf("noc: snack vnet %d out of range", c.SnackVNet)
	}
	// New allocates every buffer slot of the mesh up front, so the slots
	// (at most five full ports and a compute port per router) must fit
	// meshSlotBudget. The sum is in float64, which no depth overflows.
	slots := 0.0
	for i, v := range c.VNets {
		ports := 5.0
		if c.ComputePort && i == c.SnackVNet {
			ports++
		}
		slots += ports * float64(v.VCs) * float64(v.BufDepth)
	}
	if slots *= float64(c.Nodes()); slots > meshSlotBudget {
		return fmt.Errorf("noc: a %dx%d mesh would hold %.0f buffer slots, more than the %d a mesh may allocate",
			c.Width, c.Height, slots, meshSlotBudget)
	}
	if c.ComputePort && c.SnackVNet < 0 {
		return fmt.Errorf("noc: compute port requires a snack vnet")
	}
	if c.SnackVNet >= 0 && c.Width%2 != 0 && c.Height%2 != 0 {
		return fmt.Errorf("noc: transient-data loop route needs an even mesh dimension, got %dx%d",
			c.Width, c.Height)
	}
	return nil
}

// XY returns the mesh coordinates of node n.
func (c *Config) XY(n NodeID) (x, y int) {
	return int(n) % c.Width, int(n) / c.Width
}

// neighbor returns the node one hop from n in mesh direction d, if the
// mesh has one.
func (c *Config) neighbor(n NodeID, d Direction) (NodeID, bool) {
	x, y := c.XY(n)
	switch d {
	case North:
		y--
	case East:
		x++
	case South:
		y++
	case West:
		x--
	default:
		return 0, false
	}
	if x < 0 || x >= c.Width || y < 0 || y >= c.Height {
		return 0, false
	}
	return c.Node(x, y), true
}

// opposite returns the mesh direction facing d.
func (d Direction) opposite() Direction { return (d + 2) % 4 }

// Node returns the NodeID at mesh coordinates (x, y).
func (c *Config) Node(x, y int) NodeID {
	return NodeID(y*c.Width + x)
}

// FlitsFor returns the number of flits needed to carry a message of the
// given size in bytes on this network's channel width.
func (c *Config) FlitsFor(bytes int) int {
	if bytes <= 0 {
		return 1
	}
	return (bytes + c.ChannelWidthBytes - 1) / c.ChannelWidthBytes
}
