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
// Eng drives the whole simulation, the network included: every
// controller schedules its events on it.
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

// Every per-node table starts as a window of one system-wide slab, so a
// build costs a fixed number of allocations whatever the mesh size. Each
// window is the high-water mark of a reproduction-size run (the Table III
// benchmarks and the Fig 12 co-run at scale 0.1 on a 4×4 mesh): an L1's
// MSHRs, queued and parked accesses (at most 8, 8 and 7), a memory
// node's DRAM reads in flight (at most 40), an L2 bank's filled sets (at
// most 53; a 4×4 bank can reach only 64, those of its home's blocks), and
// per node of the mesh the home directory's entries (at most 6 084 over
// 16 nodes) and live home transactions (at most 52). An L1 fills every
// set, so its window holds them all. A table that outgrows its window
// reallocates on its own.
const (
	seedMSHRs, seedWaits, seedParked = 8, 8, 8
	seedReads                        = 48
	seedL2Sets                       = 64
	seedDir, seedTxns                = 384, 4
)

// NewSystem builds the hierarchy on an existing network, registered on
// the engine the network was built on. The controllers are values in
// one slab per kind, and every tag store's set directory and lines are
// windows of one directory slab and one line slab.
func NewSystem(eng *sim.Engine, net *noc.Network, cfg SystemConfig) (*System, error) {
	nodes := net.Cfg().Nodes()
	if nodes > maxNodes {
		return nil, fmt.Errorf("cache: a %d-node mesh exceeds the directory's %d-node sharer sets", nodes, maxNodes)
	}
	l1Sets, err := geometry(cfg.L1Bytes, cfg.L1Ways)
	if err != nil {
		return nil, fmt.Errorf("cache: L1: %w", err)
	}
	l2Sets, err := geometry(cfg.L2BankBytes, cfg.L2Ways)
	if err != nil {
		return nil, fmt.Errorf("cache: L2 bank: %w", err)
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

	l1Lines, l2Lines := l1Sets*cfg.L1Ways, min(l2Sets, seedL2Sets)*cfg.L2Ways
	dirs, lines := make([]uint16, nodes*(l1Sets+l2Sets)), make([]line, nodes*(l1Lines+l2Lines))
	mshrs, waits := make([]mshrEntry, nodes*seedMSHRs), make([]flat.Link[parkedAccess], nodes*seedWaits)
	parked, reads := make([]parkedAccess, nodes*seedParked), make([]Msg, len(s.memNodes)*seedReads)
	free := make([]int32, nodes*(seedMSHRs+seedParked+seedTxns)+len(s.memNodes)*seedReads)
	mshrTab, dirTab, txnTab := tableCap(seedMSHRs), tableCap(nodes*seedDir), tableCap(nodes*seedTxns)
	ents := make([]flat.Entry[uint64], nodes*mshrTab+dirTab+txnTab)
	l1s, l2s, hubs := make([]L1, nodes), make([]L2Bank, nodes), make([]Hub, nodes)
	s.L1s, s.L2s, s.Hubs = make([]*L1, nodes), make([]*L2Bank, nodes), make([]*Hub, nodes)
	for i := range nodes {
		l := &l1s[i]
		*l = L1{sys: s, node: i, l1State: l1State{
			cache:   newCache(l1Sets, cfg.L1Ways, flat.Carve(&dirs, l1Sets), flat.Carve(&lines, l1Lines)),
			mshrTab: flat.TableOver(flat.Carve(&ents, mshrTab)),
			mshrs:   flat.SlotsOver(flat.Carve(&mshrs, seedMSHRs), flat.Carve(&free, seedMSHRs)),
			waits:   flat.LinksOver(flat.Carve(&waits, seedWaits)),
			parked:  flat.SlotsOver(flat.Carve(&parked, seedParked), flat.Carve(&free, seedParked)),
		}}
		l2s[i] = L2Bank{sys: s, node: noc.NodeID(i),
			l2State: l2State{cache: newCache(l2Sets, cfg.L2Ways, flat.Carve(&dirs, l2Sets), flat.Carve(&lines, l2Lines))}}
		hubs[i] = Hub{L1: l, L2: &l2s[i]}
		s.L1s[i], s.L2s[i], s.Hubs[i] = l, &l2s[i], &hubs[i]
	}
	s.homeState = homeState{
		dirTab: flat.TableOver(flat.Carve(&ents, dirTab)),
		dir:    make([]dirEntry, 0, nodes*seedDir),
		txnTab: flat.TableOver(ents),
		txns:   flat.SlotsOver(make([]l2txn, nodes*seedTxns), flat.Carve(&free, nodes*seedTxns)),
	}
	mems := make([]MemNode, len(s.memNodes))
	ctrls, err := mem.NewSlab(eng, cfg.MemCfg, len(s.memNodes))
	if err != nil {
		return nil, err
	}
	for k, mn := range s.memNodes {
		m := &mems[k]
		*m = MemNode{sys: s, node: mn, ctrl: &ctrls[k],
			reads: flat.SlotsOver(flat.Carve(&reads, seedReads), flat.Carve(&free, seedReads))}
		s.Mems[mn] = m
		s.Hubs[mn].Mem = m
	}
	for i := 0; i < nodes; i++ {
		net.AttachClient(noc.NodeID(i), s.Hubs[i])
	}
	return s, nil
}

// tableCap returns the smallest power-of-two table capacity that holds n
// keys without growing.
func tableCap(n int) int {
	c := 16
	for c*3 < n*4 {
		c *= 2
	}
	return c
}

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
