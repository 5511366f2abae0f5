package noc

import (
	"fmt"
	"sync/atomic"

	"snacknoc/internal/attrib"
	"snacknoc/internal/flat"
	"snacknoc/internal/sim"
	"snacknoc/internal/stats"
	"snacknoc/internal/trace"
)

// Network is a complete mesh NoC instance: routers, links, and network
// interfaces, registered with a simulation engine.
//
// The Network owns all router, NI and wire state as a few slabs sized
// exactly from the Config by New; routers and NIs hold windows of them.
// Every window is carved s[a:b:b] (capacity == length), so no append
// through one component's window can reach its neighbour's. A checkpoint
// is a copy of the mutable slabs (see snapshot.go). DESIGN.md §9 has the
// layout.
type Network struct {
	cfg *Config

	routers []Router
	nis     []NI
	ports   []InjectPort // compute injection ports, one per node (nil without compute ports)
	rptrs   []*Router    // &routers[i], for Routers

	inPorts  []inputPort  // per router, in direction order
	outPorts []outputPort // likewise
	// flitWires holds every wire — wire k belongs to inPorts[k], then one
	// per ejection link — in checkpoint order.
	flitWires []wire
	flitQ     []wireEntry // queue storage, wireCap entries per wire

	vcs     []inputVC // per router: port-major, then vnet, then vc
	bufSlab []*Flit   // the VCs' ring buffers, in vcs order
	reasm   []*Flit   // the NIs' reassembly slots
	waiting []chain   // the NIs' per-vnet waiting chains
	staged  []credit  // routers' staged-credit lists at their bound
	// The NIs' incoming and active lists start as windows of these
	// (seedIncoming requests per NI, one transmission per NI per vnet), so
	// a lightly loaded NI never grows one.
	reqSeed []injectReq
	txnSeed []txn

	// tables is read-only after New: the per-vnet geometry every router
	// and NI shares, one occupancy->bucket table per router port count,
	// and the input ports' refBase rows. credits is every credit and
	// round-robin counter (output ports, then NIs, then the inject ports'
	// credits and landed windows), counts every statistics array (buffer
	// histograms, NI latency sums), work the routers' allocator work lists.
	tables  []int32
	credits []int32
	counts  []int64
	work    []int32

	samples stats.SampleSlab // a column per router, then one per output port

	// pool recycles the network's flits and packet envelopes; see flitPool.
	pool flitPool
}

// built counts the networks New has built in this process.
var built atomic.Int64

// Built returns how many networks New has built in this process, so a
// caller can pin how many builds a sweep costs.
func Built() int64 { return built.Load() }

// seedIncoming is the carved capacity of an NI's incoming list; its
// active list gets one transmission per vnet, and never fewer than
// seedActive.
const seedIncoming, seedActive = 2, 2

// bufHistBuckets is the resolution of the Fig 3 occupancy histogram.
const bufHistBuckets = 20

// slabPlan is what New counts from a Config before it allocates: the
// size of one port and of the whole mesh.
type slabPlan struct {
	nv                   int // virtual networks
	portVCs, portSlots   int // VCs and buffer slots on a full port (every vnet)
	snackClass           int // VCs per port in the snack priority class
	compute              int // compute ports per router (0 or 1)
	snackVCs, snackSlots int // VCs and slots on a compute port (snack vnet only)
	links                int // directed mesh links
	nIn, nOut, nVCs      int // input ports, output ports, input VCs
	nWires, wireCap      int // wires, queue entries per wire
	nBuckets             int // entries of all occupancy->bucket tables
}

func planSlabs(cfg *Config) slabPlan {
	p := slabPlan{nv: len(cfg.VNets)}
	maxDepth := 0
	for _, vn := range cfg.VNets {
		p.portVCs += vn.VCs
		p.portSlots += vn.VCs * vn.BufDepth
		maxDepth = max(maxDepth, vn.BufDepth)
	}
	if cfg.SnackVNet >= 0 {
		p.snackClass = cfg.VNets[cfg.SnackVNet].VCs
	}
	if cfg.ComputePort {
		p.compute, p.snackVCs = 1, p.snackClass
		p.snackSlots = p.snackVCs * cfg.VNets[cfg.SnackVNet].BufDepth
	}
	// Routers with the same mesh degree have the same buffer-slot count
	// and share an occupancy->bucket table.
	var degSeen [5]bool
	nodes := cfg.Nodes()
	for i := 0; i < nodes; i++ {
		deg := 0
		for d := North; d <= West; d++ {
			if _, ok := cfg.neighbor(NodeID(i), d); ok {
				deg++
			}
		}
		p.links += deg
		if !degSeen[deg] {
			degSeen[deg] = true
			p.nBuckets += p.slots(deg) + 1
		}
	}
	p.nIn, p.nOut = p.links+nodes*(1+p.compute), p.links+nodes
	p.nVCs = p.nOut*p.portVCs + nodes*p.snackVCs
	// One wire per input port and one per ejection link. A wire holds what
	// its reader has not yet drained: bounded by the reader's buffer
	// (credits) plus what the link carries.
	p.nWires = p.nIn + nodes
	p.wireCap = maxDepth + cfg.LinkLatency
	return p
}

// slots returns the buffer slots of a router with deg mesh neighbours.
func (p *slabPlan) slots(deg int) int { return (deg+1)*p.portSlots + p.snackSlots }

// New constructs the mesh described by cfg and registers every router and
// network interface with the engine. It counts ports, VCs, buffer slots
// and wires from cfg, allocates each slab once, and carves the routers'
// and NIs' windows out of them — the allocation count does not depend on
// the mesh size.
func New(eng *sim.Engine, cfg *Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	built.Add(1)
	n := &Network{cfg: cfg}
	nodes := cfg.Nodes()
	eng.Reserve(2 * nodes)

	p := planSlabs(cfg)
	n.routers = make([]Router, nodes)
	n.nis = make([]NI, nodes)
	n.rptrs = make([]*Router, nodes)
	n.inPorts = make([]inputPort, p.nIn)
	n.outPorts = make([]outputPort, p.nOut)
	n.flitWires = make([]wire, p.nWires)
	n.flitQ = make([]wireEntry, p.nWires*p.wireCap)
	n.vcs = make([]inputVC, p.nVCs)
	n.bufSlab = make([]*Flit, p.nOut*p.portSlots+nodes*p.snackSlots)
	n.reasm = make([]*Flit, nodes*p.portVCs)
	n.waiting = make([]chain, nodes*p.nv)
	n.staged = make([]credit, 2*p.nIn)
	n.reqSeed = make([]injectReq, nodes*seedIncoming)
	n.txnSeed = make([]txn, nodes*max(p.nv, seedActive))
	n.tables = make([]int32, 3*p.nv+p.nBuckets+p.nIn*p.nv)
	n.credits = make([]int32, (p.nOut+nodes)*(p.portVCs+p.nv)+2*nodes*p.snackVCs)
	n.counts = make([]int64, nodes*(bufHistBuckets+2*p.nv))
	n.work = make([]int32, 3*p.nVCs+p.nOut*p.portVCs)
	if cfg.ComputePort {
		n.ports = make([]InjectPort, nodes)
	}
	for k := range n.flitWires {
		n.flitWires[k].q = n.flitQ[k*p.wireCap : k*p.wireCap : (k+1)*p.wireCap]
	}
	n.layOut(&p)

	n.init()

	for i := range n.routers {
		n.routers[i].setHandle(eng.Register(&n.routers[i]))
		n.nis[i].setHandle(eng.Register(&n.nis[i]))
	}
	return n, nil
}

// init writes the built value into every mutable slab and block: empty
// buffers, wires, work lists and queues, zeroed counts and scalars, and
// every credit counter at its VC's buffer depth (1<<30 toward an NI,
// whose ejection buffers are unbounded). New runs it once over the fresh
// slabs and Reset again over used ones, so a built network and a reset
// one come from the same code. Every flit and envelope the network held
// must be back in the pool first.
func (n *Network) init() {
	clear(n.bufSlab)
	clear(n.reasm)
	clear(n.credits)
	clear(n.counts)
	for k := range n.flitWires {
		n.flitWires[k].q = n.flitWires[k].q[:0]
	}
	for i := range n.vcs {
		v := &n.vcs[i]
		v.state, v.outPort, v.outVC, v.head, v.count, v.arrived = vcIdle, 0, 0, 0, 0, 0
	}
	for i := range n.routers {
		r := &n.routers[i]
		r.routerScalars = routerScalars{bufHist: r.bufHist}
		r.bufHist.Reset()
		r.rd.pending = 0
		r.stagedCount, r.stagedCredits = 0, r.stagedCredits[:0]
		for _, l := range r.workLists() {
			*l = (*l)[:0]
		}
		for j := range r.outList {
			op := &r.outList[j]
			op.outScalars, op.staged = outScalars{}, nil
			for v, off := range r.vnetOff {
				room := r.depthOf[v]
				if op.ejection {
					room = 1 << 30
				}
				for c := range r.nvcOf[v] {
					op.credits[off+c] = room
				}
			}
		}
	}
	for i := range n.nis {
		ni := &n.nis[i]
		ni.niScalars = niScalars{}
		ni.rd.pending = 0
		ni.staged = nil
		ni.incoming, ni.active = ni.incoming[:0], ni.active[:0]
		for v, off := range ni.vnetOff {
			for c := range ni.nvcOf[v] {
				ni.credits[off+c] = n.routers[i].depthOf[v]
			}
		}
	}
	for i := range n.ports {
		p := &n.ports[i]
		p.injScalars = injScalars{}
		for c := range p.credits {
			p.credits[c] = n.routers[i].depthOf[p.vnet]
		}
	}
	n.samples.Reset()
}

// Reset rewinds the network to its built state in place: it returns
// every flit and envelope it holds to the pool (release) and runs init
// again. The wiring stays: handles, attached clients and compute units,
// the loop successors and every carved window, and so do the tracer and the
// sampling interval. Attached attribution counts and sampled series
// restart at zero, as on a fresh build. Payloads in flight are dropped,
// not returned to their owners' pools. The engine is reset separately
// (sim.Engine.Reset); Reset allocates nothing once the pool's free
// lists have held what was in flight.
func (n *Network) Reset() {
	n.release()
	n.init()
}

// release returns every flit and envelope the network holds to the
// pool: buffered, awaiting reassembly, on a wire, or queued, waiting or
// mid-injection at an NI. It empties the waiting chains and leaves the
// other slots and queues for the caller to rewrite.
func (n *Network) release() {
	pool := &n.pool
	for i := range n.routers {
		if r := &n.routers[i]; r.occupancy > 0 {
			for _, f := range r.bufSlab {
				if f != nil {
					pool.flits.Put(f)
				}
			}
		}
	}
	for _, f := range n.reasm {
		if f != nil {
			pool.flits.Put(f)
		}
	}
	for k := range n.flitWires {
		for _, e := range n.flitWires[k].q {
			pool.flits.Put(e.f)
		}
	}
	for i := range n.nis {
		ni := &n.nis[i]
		for _, req := range ni.incoming {
			pool.pkts.Put(req.pkt)
		}
		for v := range ni.waiting {
			for w := &ni.waiting[v]; w.head != nil; {
				pool.pkts.Put(w.pop())
			}
		}
		for _, t := range ni.active {
			pool.pkts.Put(t.pkt)
		}
	}
}

// layOut hands every router, NI and inject port its windows of the slabs
// and wires the ports together. The slabs are consumed front to back;
// each carve takes exactly what planSlabs counted (checked at the end).
func (n *Network) layOut(p *slabPlan) {
	cfg := n.cfg
	inPorts, outPorts, vcs, bufSlab := n.inPorts, n.outPorts, n.vcs, n.bufSlab
	reasm, waiting, staged := n.reasm, n.waiting, n.staged
	reqSeed, txnSeed := n.reqSeed, n.txnSeed
	tables, credits, counts, work := n.tables, n.credits, n.counts, n.work

	vnetOff, depthOf, nvcOf := flat.Carve(&tables, p.nv), flat.Carve(&tables, p.nv), flat.Carve(&tables, p.nv)
	off := int32(0)
	for v, vn := range cfg.VNets {
		vnetOff[v], depthOf[v], nvcOf[v] = off, int32(vn.BufDepth), int32(vn.VCs)
		off += int32(vn.VCs)
	}

	var bucketOf [5][]int32 // by mesh degree
	for i := range n.routers {
		r := &n.routers[i]
		n.rptrs[i] = r
		*r = Router{
			id: NodeID(i), cfg: cfg, pool: &n.pool,
			vnetOff: vnetOff, depthOf: depthOf, nvcOf: nvcOf,
			snackVNet:   int8(cfg.SnackVNet),
			routerLatM1: int64(cfg.RouterLatency - 1),
			linkLat:     int64(cfg.LinkLatency),
		}
		deg := 0
		for d := North; d <= West; d++ {
			if _, ok := cfg.neighbor(r.id, d); ok {
				deg++
			}
		}
		inBase := len(n.inPorts) - len(inPorts) // r.inList[0]'s index in n.inPorts
		r.inList = flat.Carve(&inPorts, deg+1+p.compute)
		r.outList = flat.Carve(&outPorts, deg+1)
		r.vcs = flat.Carve(&vcs, (deg+1)*p.portVCs+p.snackVCs)
		r.bufSlab = flat.Carve(&bufSlab, p.slots(deg))
		r.stagedCredits = flat.Carve(&staged, 2*len(r.inList))[:0]
		r.needRoute = flat.Carve(&work, len(r.vcs))[:0]
		r.waitVA = flat.Carve(&work, len(r.vcs))[:0]
		r.vaScratch = flat.Carve(&work, len(r.vcs))[:0]
		r.bufHist = stats.MakeHistogram(1.0, flat.Carve(&counts, bufHistBuckets))
		if bucketOf[deg] == nil {
			t := flat.Carve(&tables, len(r.bufSlab)+1)
			for occ := range t {
				t[occ] = int32(r.bufHist.BucketIndex(float64(occ) / float64(len(r.bufSlab))))
			}
			bucketOf[deg] = t
		}
		r.bufBucket = bucketOf[deg]

		// Ports in direction order; input port k reads wire k, and the VC
		// table follows the input ports.
		in, out, vc, slot := 0, 0, int32(0), int32(0)
		for d := Direction(0); d < numDirections; d++ {
			_, mesh := cfg.neighbor(r.id, d)
			if !mesh && d != Local && !(d == Compute && cfg.ComputePort) {
				continue
			}
			ip := &r.inList[in]
			*ip = inputPort{
				dir: d, in: &n.flitWires[inBase+in],
				snackOnly: d == Compute, refBase: flat.Carve(&tables, p.nv),
			}
			in++
			r.inputs[d] = ip
			for v := range cfg.VNets {
				if ip.snackOnly && v != cfg.SnackVNet {
					ip.refBase[v] = -1
					continue
				}
				ip.refBase[v] = vc
				cl := int8(classComm)
				if v == cfg.SnackVNet {
					cl = classSnack
				}
				for c := int32(0); c < nvcOf[v]; c++ {
					r.vcs[vc] = inputVC{
						port: d, vnet: int8(v), vc: int8(c), class: cl,
						base: slot, depth: depthOf[v],
					}
					vc++
					slot += depthOf[v]
				}
			}
			if d == Compute {
				continue // input only
			}
			op := &r.outList[out]
			out++
			*op = outputPort{
				dir: d, ejection: d == Local,
				credits: flat.Carve(&credits, p.portVCs), vcRR: flat.Carve(&credits, p.nv),
			}
			r.outputs[d] = op
			r.saCand[d][classComm] = flat.Carve(&work, p.portVCs-p.snackClass)[:0]
			r.saCand[d][classSnack] = flat.Carve(&work, p.snackClass)[:0]
		}
	}

	if cfg.SnackVNet >= 0 {
		wireLoop(cfg, n.routers)
	}

	// Second pass, now that every input port has its wire: point each
	// output at the downstream input's wire and make its credits that
	// input's credit sink (init fills them).
	sink := func(to []int32, node NodeID, dir Direction) creditSink {
		return creditSink{to: to, vnetOff: vnetOff, depthOf: depthOf, node: node, dir: dir}
	}
	eject := p.nIn
	for i := range n.routers {
		r := &n.routers[i]
		ni := &n.nis[i]
		*ni = NI{
			node: r.id, cfg: cfg, pool: &n.pool,
			toRouter: r.inputs[Local].in, fromRouter: &n.flitWires[eject+i],
			vnetOff: vnetOff, nvcOf: nvcOf,
			credits: flat.Carve(&credits, p.portVCs), vcRR: flat.Carve(&credits, p.nv),
			waiting: flat.Carve(&waiting, p.nv), reasm: flat.Carve(&reasm, p.portVCs),
			latSum: flat.Carve(&counts, p.nv), latCount: flat.Carve(&counts, p.nv),
			incoming: flat.Carve(&reqSeed, seedIncoming)[:0], active: flat.Carve(&txnSeed, max(p.nv, seedActive))[:0],
		}
		for j := range r.outList {
			op := &r.outList[j]
			if op.ejection {
				op.out = ni.fromRouter
			} else {
				nb, _ := cfg.neighbor(r.id, op.dir)
				down := n.routers[nb].inputs[op.dir.opposite()]
				op.out, down.credit = down.in, sink(op.credits, r.id, op.dir)
			}
		}
		r.inputs[Local].credit = sink(ni.credits, r.id, Local)
		r.inputs[Local].credit.credited = &ni.credited
	}
	for i := range n.ports {
		in := n.routers[i].inputs[Compute]
		n.ports[i] = InjectPort{
			node: NodeID(i), loopNext: n.routers[i].loopNext, vnet: int8(cfg.SnackVNet), pool: &n.pool, out: in.in,
			credits: flat.Carve(&credits, p.snackVCs), landed: flat.Carve(&credits, p.snackVCs),
		}
		in.credit = sink(n.ports[i].landed, NodeID(i), Compute)
		in.credit.base = -vnetOff[cfg.SnackVNet]
	}
	if len(inPorts)+len(outPorts)+len(vcs)+len(bufSlab)+len(reasm)+len(waiting)+len(staged)+
		len(reqSeed)+len(txnSeed)+
		len(tables)+len(credits)+len(counts)+len(work) != 0 {
		panic("noc: slab layout does not match its carve")
	}
}

// Cfg returns the network configuration.
func (n *Network) Cfg() *Config { return n.cfg }

// Router returns the router at the given node.
func (n *Network) Router(id NodeID) *Router { return &n.routers[id] }

// Routers returns all routers in node order.
func (n *Network) Routers() []*Router { return n.rptrs }

// AttachClient registers the packet receiver for a node.
func (n *Network) AttachClient(id NodeID, c Client) { n.nis[id].AttachClient(c) }

// AttachCompute installs a compute unit on a router and returns the
// injection port it uses to push result flits into the crossbar.
func (n *Network) AttachCompute(id NodeID, cu ComputeUnit) *InjectPort {
	if !n.cfg.ComputePort {
		panic("noc: AttachCompute on a network without compute ports")
	}
	n.routers[id].attachCompute(cu)
	return &n.ports[id]
}

// Inject stamps p and queues a copy of it, in a pooled envelope, at its
// source NI; p stays the caller's. The caller must be in its Evaluate
// phase; the packet enters the network on a later cycle.
//
// Packet IDs are allocated per source node (node tag in the high half, a
// local sequence number in the low), so a packet's ID names where it came
// from; trace dumps name packets by it.
func (n *Network) Inject(p *Packet, cycle int64) {
	if p.Src < 0 || int(p.Src) >= len(n.nis) {
		panic(fmt.Sprintf("noc: inject from invalid node %d", p.Src))
	}
	ni := &n.nis[p.Src]
	p.ID = ni.nextPktID()
	p.InjectCycle = cycle
	ni.inject(ni.pool.wrap(p, nil), cycle)
}

// InjectMsg is Inject for callers that have no use for the stamped
// packet: the message goes straight into a pooled envelope.
func (n *Network) InjectMsg(src, dst NodeID, vnet, sizeBytes int, payload any, cycle int64) {
	p := Packet{Src: src, Dst: dst, VNet: vnet, SizeBytes: sizeBytes, Payload: payload}
	n.Inject(&p, cycle)
}

// Samples returns the sampled series once EnableSampling ran: router
// r's crossbar is column r.ID(), its links' columns are LinkColumn's.
func (n *Network) Samples() *stats.SampleSlab { return &n.samples }

// EnableSampling turns on time-series sampling (crossbar and links) on
// every router with the given interval in cycles, into one slab.
func (n *Network) EnableSampling(interval int64) {
	if interval <= 0 {
		panic("noc: EnableSampling interval must be positive")
	}
	n.samples = stats.MakeSampleSlab(len(n.routers) + len(n.outPorts))
	for i := range n.routers {
		r := &n.routers[i]
		r.sampleEvery, r.samples = interval, &n.samples
	}
	for i := range n.outPorts {
		n.outPorts[i].col = len(n.routers) + i
	}
}

// SetTracer installs the lifecycle-event tracer on every router and
// network interface (nil removes it). Tracing must be configured before
// the run whose events are wanted; it does not alter simulated behavior.
func (n *Network) SetTracer(t *trace.Tracer) {
	for i := range n.routers {
		n.routers[i].tr = t
		n.nis[i].tr = t
	}
}

// SetAttrib attaches every router's and then every NI's attribution
// counts to rec (nil returns at once, naming no component).
func (n *Network) SetAttrib(rec *attrib.Recorder) {
	if rec == nil {
		return
	}
	for i := range n.routers {
		r := &n.routers[i]
		rec.Attach(attrib.KindRouter, r.Name(), &r.attrib)
	}
	for i := range n.nis {
		ni := &n.nis[i]
		rec.Attach(attrib.KindNI, ni.Name(), &ni.attrib)
	}
}

// RegisterMetrics names every router and NI statistic in reg, plus the
// network-wide aggregates (total packets, per-vnet mean latency).
func (n *Network) RegisterMetrics(reg *stats.Registry) {
	for i := range n.routers {
		n.routers[i].registerMetrics(reg)
	}
	for i := range n.nis {
		n.nis[i].registerMetrics(reg)
	}
	reg.AddGauge("net.packets.injected", func() float64 { return float64(n.TotalInjected()) })
	reg.AddGauge("net.packets.ejected", func() float64 { return float64(n.TotalEjected()) })
	for v := range n.cfg.VNets {
		v := v
		reg.AddGauge(fmt.Sprintf("net.vnet%d.avglat", v),
			func() float64 { return n.AvgPacketLatency(v) })
	}
}

// TotalInjected returns packets injected across all nodes.
func (n *Network) TotalInjected() int64 {
	var t int64
	for i := range n.nis {
		t += n.nis[i].InjectedPackets()
	}
	return t
}

// TotalEjected returns packets delivered across all nodes.
func (n *Network) TotalEjected() int64 {
	var t int64
	for i := range n.nis {
		t += n.nis[i].EjectedPackets()
	}
	return t
}

// AvgPacketLatency returns the mean packet latency in cycles over all
// nodes for the given vnet (0 when no packets were delivered).
func (n *Network) AvgPacketLatency(vnet int) float64 {
	var sum, count int64
	for i := range n.nis {
		sum += n.nis[i].latSum[vnet]
		count += n.nis[i].latCount[vnet]
	}
	if count == 0 {
		return 0
	}
	return float64(sum) / float64(count)
}

// InjectPort lets a compute unit push single-flit snack packets directly
// into its router's compute input port, subject to credit flow control.
// Update must be called from the unit's Evaluate on every cycle it
// evaluates; Send must be called from the unit's Advance phase.
type InjectPort struct {
	node     NodeID
	loopNext NodeID // the node's successor on the loop, where SendLoop sends
	vnet     int8
	pool     *flitPool
	out      *wire
	// Windows of the Network's credits slab: the free slots Send may use,
	// and those returned since the last Update (see creditSink).
	credits []int32
	landed  []int32

	injScalars
}

// injScalars is an inject port's mutable state outside the slabs; a
// checkpoint copies it whole.
type injScalars struct {
	rr  int
	seq uint64
}

// injectPortTag distinguishes compute-port packet IDs from NI packet IDs,
// which share the node-tag-plus-sequence layout (see Network.Inject).
const injectPortTag = uint64(1) << 63

// Update makes the credits returned in earlier cycles usable (k cycles'
// worth at once for a unit that sat k out); call it before CanSend.
func (p *InjectPort) Update(cycle int64) {
	for c, n := range p.landed {
		p.credits[c] += n
		p.landed[c] = 0
	}
}

// FreeSlots returns the number of free downstream buffer slots.
func (p *InjectPort) FreeSlots() int {
	n := 0
	for _, c := range p.credits {
		n += int(c)
	}
	return n
}

// CanSend reports whether at least one flit can be sent this cycle.
func (p *InjectPort) CanSend() bool { return p.FreeSlots() > 0 }

// Send injects a single-flit snack packet carrying the given payload to
// dst. It returns false when no credit is available. Call during Advance.
func (p *InjectPort) Send(dst NodeID, payload any, cycle int64) bool {
	return p.send(dst, payload, false, cycle)
}

// SendLoop is Send for a transient token: it rides the loop, starting at
// the node's successor.
func (p *InjectPort) SendLoop(payload any, cycle int64) bool {
	return p.send(p.loopNext, payload, true, cycle)
}

func (p *InjectPort) send(dst NodeID, payload any, loop bool, cycle int64) bool {
	nvc := len(p.credits)
	for i := 0; i < nvc; i++ {
		c := (p.rr + i) % nvc
		if p.credits[c] <= 0 {
			continue
		}
		p.credits[c]--
		p.rr = c + 1
		p.seq++
		f := p.pool.flits.Get()
		f.PacketID = injectPortTag | uint64(p.node+1)<<32 | p.seq
		f.Type = HeadTailFlit
		f.Src = p.node
		f.Dst = dst
		f.VNet = p.vnet
		f.VC = int8(c)
		f.PktFlits = 1
		f.Payload = payload
		f.Loop = loop
		f.InjectCycle = cycle
		p.out.push(f, cycle+1)
		return true
	}
	return false
}
