package cache

import (
	"fmt"

	"snacknoc/internal/attrib"
	"snacknoc/internal/flat"
	"snacknoc/internal/mem"
	"snacknoc/internal/noc"
	"snacknoc/internal/sim"
)

// SystemConfig sizes the memory hierarchy. Defaults follow Table IV:
// private 4-way 32 KB L1s, a shared distributed 4-way L2 with 256 KB per
// bank, 64 B blocks, and memory controllers at the mesh corners.
type SystemConfig struct {
	L1Bytes     int
	L1Ways      int
	L1HitLat    int64
	L2BankBytes int
	L2Ways      int
	L2Lat       int64
	MemCfg      mem.Config
	// MemNodes lists the nodes hosting memory controllers; empty selects
	// the mesh corners.
	MemNodes []noc.NodeID
}

// DefaultSystemConfig returns the Table IV hierarchy.
func DefaultSystemConfig() SystemConfig {
	return SystemConfig{
		L1Bytes:     32 * 1024,
		L1Ways:      4,
		L1HitLat:    1,
		L2BankBytes: 256 * 1024,
		L2Ways:      4,
		L2Lat:       6,
		MemCfg:      mem.DefaultConfig(),
	}
}

// System wires L1s, L2 banks and memory nodes onto a NoC: one L1 and one
// L2 bank per node, memory controllers at the configured nodes, and one
// Hub per node registered as the NoC client.
//
// Eng drives the whole simulation: every controller schedules its events
// on it, so the network must be unsharded.
type System struct {
	Eng *sim.Engine
	Net *noc.Network
	cfg SystemConfig

	L1s  []*L1
	L2s  []*L2Bank
	Mems map[noc.NodeID]*MemNode
	Hubs []*Hub

	memNodes []noc.NodeID

	// pool recycles the protocol messages of every controller. A message
	// has one holder at a time: the receiving handler puts it when it
	// returns, and whatever keeps one longer keeps a copy, so between
	// deliveries the packet carrying it is its only holder.
	pool flat.Pool[Msg]

	homeState
}

// Each L1's MSHR and waiter slabs start as windows of one system-wide
// slab each: an L1 that keeps this many misses and queued accesses
// outstanding never grows its own.
const seedMSHRs, seedWaits = 8, 8

// NewSystem builds the hierarchy on an existing unsharded network.
func NewSystem(eng *sim.Engine, net *noc.Network, cfg SystemConfig) (*System, error) {
	if err := net.CheckUnsharded("cache"); err != nil {
		return nil, err
	}
	nodes := net.Cfg().Nodes()
	if nodes > maxNodes {
		return nil, fmt.Errorf("cache: a %d-node mesh exceeds the directory's %d-node sharer sets", nodes, maxNodes)
	}
	s := &System{
		Eng:  eng,
		Net:  net,
		cfg:  cfg,
		Mems: make(map[noc.NodeID]*MemNode),
	}
	s.memNodes = cfg.MemNodes
	if len(s.memNodes) == 0 {
		w, h := net.Cfg().Width, net.Cfg().Height
		s.memNodes = []noc.NodeID{
			net.Cfg().Node(0, 0),
			net.Cfg().Node(w-1, 0),
			net.Cfg().Node(0, h-1),
			net.Cfg().Node(w-1, h-1),
		}
	}
	for _, mn := range s.memNodes {
		if int(mn) < 0 || int(mn) >= nodes {
			return nil, fmt.Errorf("cache: memory node %d outside mesh", mn)
		}
	}

	s.L1s = make([]*L1, nodes)
	s.L2s = make([]*L2Bank, nodes)
	s.Hubs = make([]*Hub, nodes)
	mshrs, waits := make([]mshrEntry, nodes*seedMSHRs), make([]link[parkedAccess], nodes*seedWaits)
	for i := 0; i < nodes; i++ {
		s.L1s[i] = newL1(s, i)
		s.L1s[i].mshrSlab, s.L1s[i].waits.recs = flat.Carve(&mshrs, seedMSHRs)[:0], flat.Carve(&waits, seedWaits)[:0]
		s.L2s[i] = newL2Bank(s, noc.NodeID(i))
		s.Hubs[i] = &Hub{L1: s.L1s[i], L2: s.L2s[i]}
	}
	for _, mn := range s.memNodes {
		ctrl, err := mem.New(eng, cfg.MemCfg)
		if err != nil {
			return nil, err
		}
		s.Mems[mn] = newMemNode(s, mn, ctrl)
		s.Hubs[mn].Mem = s.Mems[mn]
	}
	for i := 0; i < nodes; i++ {
		net.AttachClient(noc.NodeID(i), s.Hubs[i])
	}
	return s, nil
}

// Cfg returns the hierarchy configuration.
func (s *System) Cfg() SystemConfig { return s.cfg }

// MemNodes returns the memory-controller node list.
func (s *System) MemNodes() []noc.NodeID { return s.memNodes }

// SetAttrib attaches every L1's event-driven attribution counts to rec
// (nil returns at once). Each L1 first advances its miss integral to
// the current cycle, which changes no total; the integral then restarts
// at that cycle, so an attached recorder reads only the cycles after it.
func (s *System) SetAttrib(rec *attrib.Recorder) {
	if rec == nil {
		return
	}
	s.SettleAttrib()
	for i, l := range s.L1s {
		rec.Attach(attrib.KindCache, fmt.Sprintf("l1.%d", i), &l.attrib)
	}
}

// SettleAttrib advances every L1's miss-cycle integral to the current
// cycle, which changes no total. An attribution window read after it
// counts every outstanding miss up to the boundary, whether the L1s'
// cores evaluate before or after the reader in that cycle.
func (s *System) SettleAttrib() {
	for _, l := range s.L1s {
		l.attribTick()
	}
}

// Home returns the L2 bank a block is homed at (block-interleaved).
func (s *System) Home(block uint64) noc.NodeID {
	return noc.NodeID(block % uint64(len(s.L2s)))
}

// MemFor returns the memory node serving a block. Blocks interleave
// across controllers at row-buffer granularity so sequential streams
// spread over channels.
func (s *System) MemFor(block uint64) noc.NodeID {
	rows := block * BlockBytes / uint64(s.cfg.MemCfg.RowBytes)
	return s.memNodes[rows%uint64(len(s.memNodes))]
}

// L1HitRate aggregates hit rate across all L1s.
func (s *System) L1HitRate() float64 {
	var hits, total int64
	for _, l := range s.L1s {
		hits += l.Hits()
		total += l.Hits() + l.Misses()
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// L2HitRate aggregates hit rate across all banks.
func (s *System) L2HitRate() float64 {
	var hits, total int64
	for _, b := range s.L2s {
		hits += b.Hits()
		total += b.Hits() + b.Misses()
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}
