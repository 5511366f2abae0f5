package noc

import (
	"fmt"
	"math"
	"math/bits"

	"snacknoc/internal/attrib"
	"snacknoc/internal/sim"
	"snacknoc/internal/stats"
	"snacknoc/internal/trace"
)

// ComputeUnit is the router-side attachment point for a SnackNoC Router
// Compute Unit (or the Central Packet Manager's network-edge logic). The
// router calls OnArrival for every snack-vnet flit that reaches the router
// it is addressed to, before the flit is buffered.
//
// Returning true consumes the flit: it leaves the network and its buffer
// credit is returned upstream. Returning false lets the flit continue; for
// transient-data loop tokens the unit may first mutate the carried token
// (for example decrement its dependent count after reading the value), and
// the router then forwards the token to the next node on the loop route.
type ComputeUnit interface {
	OnArrival(f *Flit, cycle int64) bool
}

// LoopDrainer is optionally implemented by the compute attachment at the
// Central Packet Manager's router. When the snack virtual network wedges
// solid with circulating tokens, no flit is in flight to trigger
// OnArrival; the router then offers *buffered* loop tokens awaiting VC
// allocation to the drainer, which absorbs them into the overflow path
// (§III-C2) and lets the ring unwind.
type LoopDrainer interface {
	DrainLoopFlit(f *Flit, cycle int64) bool
}

// vcState tracks the wormhole state machine of one input virtual channel.
type vcState int8

const (
	vcIdle   vcState = iota // no packet, or waiting for a head flit
	vcRoute                 // head queued for route computation
	vcWaitVA                // head routed, waiting for an output VC
	vcActive                // output VC held; flits may traverse the switch
)

// vcClass separates communication VCs from snack VCs for the §III-D3
// priority arbitration.
const (
	classComm  = 0
	classSnack = 1
)

// inputVC is one virtual-channel buffer on an input port. All VCs of a
// router live contiguously in Router.vcs (indexed port-major, then vnet,
// then vc) and their flit queues are fixed rings over Router.bufSlab —
// both windows of the Network's slabs — so the per-cycle allocator loops
// walk flat arrays instead of chasing a per-port pointer forest.
type inputVC struct {
	state   vcState
	class   int8
	port    Direction // owning input port
	outPort Direction // routed output (valid from vcWaitVA on)
	vnet    int8
	vc      int8
	outVC   int8 // granted output VC (valid in vcActive)

	// ring queue over Router.bufSlab[base : base+depth]
	head  int32 // offset of the front flit, in [0, depth)
	count int32
	base  int32
	depth int32

	// arrived counts flits ever buffered here, the per-VC occupancy
	// attribution exported through the metrics registry.
	arrived int64
}

// inputPort groups the VCs fed by one incoming link.
type inputPort struct {
	dir       Direction
	in        *wire      // flits from the upstream sender
	credit    creditSink // buffer slots back to the upstream sender
	snackOnly bool
	// refBase[v] is the Router.vcs index of this port's (v, 0) VC, or -1
	// when the port does not carry vnet v.
	refBase []int32
}

// outputPort tracks downstream buffer state for one outgoing link. Credit
// and busy state is flat: slot vnetOff[v]+c within the per-port arrays,
// with busy bits packed into one word (Config.Validate bounds the total
// VC count per port to 64).
type outputPort struct {
	dir      Direction
	out      *wire // flits to the downstream receiver
	ejection bool
	credits  []int32 // [vnetOff[v]+c] free downstream slots
	vcRR     []int32 // per-vnet round-robin pointer for output-VC allocation
	staged   *Flit   // flit leaving on this port, committed in Advance
	col      int     // the link's column of the sample slab

	outScalars
}

// outScalars is an output port's mutable state outside the slabs; a
// checkpoint copies it whole.
type outScalars struct {
	busy     uint64        // bit vnetOff[v]+c: held by an in-flight packet
	linkBusy stats.Counter // cycles a flit left on the link, read against the router's clock
}

// Router is one mesh router: input VC buffers, XY route computation,
// separable VC and switch allocation, a crossbar, and credit bookkeeping,
// with the optional SnackNoC compute attachment of Fig 6.
//
// The allocator stages are event-list driven: only VCs that actually hold
// flits appear in the route/VA/SA work lists, so an idle router costs a
// few comparisons per cycle — the property that makes simulating the
// paper's mostly-idle NoCs fast.
type Router struct {
	id  NodeID
	cfg *Config

	inputs  [numDirections]*inputPort  // nil where no link exists
	outputs [numDirections]*outputPort // nil where no link exists

	// inList/outList are the router's ports in direction order — its
	// windows of the Network's port slabs, which inputs/outputs point
	// into — so the per-cycle loops touch only ports that exist.
	inList  []inputPort
	outList []outputPort

	// rd is the reading end of the wires the router reads: bit i of
	// rd.pending is set iff inList[i].in holds entries. The ingest walk
	// visits set bits only, and a router with none set has no wire to read.
	rd wireReader

	compute ComputeUnit
	drainer LoopDrainer // compute's drain hook, cached off the hot path
	loop    *LoopRoute
	pool    *flitPool // shard-local flit free-list

	// vcs is the flat input-VC table (see inputVC); bufSlab backs every
	// VC's ring queue. Both are windows of the Network's slabs.
	vcs     []inputVC
	bufSlab []*Flit

	// vnetOff[v] is the first flat VC slot of vnet v on any port carrying
	// the full vnet set; depthOf/nvcOf hoist the per-vnet geometry out of
	// cfg for the per-cycle loops. One table per network, shared.
	vnetOff []int32
	depthOf []int32
	nvcOf   []int32

	// allocator work lists (indices into vcs), carved from the Network's
	// work arena at their bounds: a VC is on needRoute or waitVA at most
	// once, and every switch candidate for an output holds one of that
	// output's VCs.
	needRoute []int32
	waitVA    []int32
	vaScratch []int32
	saCand    [numDirections][2][]int32

	// staged results of the current Evaluate, committed in Advance; each
	// output port holds its own staged flit, stagedCount the total.
	stagedCount   int
	stagedCredits []credit

	// configuration hoisted out of cfg for the per-cycle loops
	snackVNet   int8
	routerLatM1 int64
	linkLat     int64

	// statistics (the counters and the clock are in routerScalars).
	// sampleEvery is the series' window in cycles, 0 until EnableSampling;
	// samples is the network's slab, the crossbar's column the router ID.
	sampleEvery int64
	samples     *stats.SampleSlab
	// bufBucket maps occupancy (0..buffer slots) straight to its
	// histogram bucket, replacing a float divide per cycle with a table
	// lookup; routers with the same port count share one table.
	bufBucket []int32

	// tr records flit-lifecycle events; nil (the default) disables
	// tracing and must cost nothing beyond the nil checks.
	tr *trace.Tracer

	routerScalars
}

// routerScalars is a router's mutable state outside the slabs; a
// checkpoint copies it whole.
type routerScalars struct {
	// saMask has bit d set iff saCand[d][class] is non-empty, so switch
	// allocation visits only outputs with candidates.
	saMask  [2]uint32
	saPtr   [numDirections]int
	saRound int // shared RR start under priority arbitration
	vaPtr   int

	// occupancy counts buffered flits across all input VCs; when zero the
	// allocator stages are skipped entirely.
	occupancy int

	// clock counts the cycles the router has observed, evaluated or slept
	// through: the one denominator of its crossbar's and links'
	// utilization and the one sampling window of their series. The
	// crossbar and the links count busy cycles only.
	clock     stats.Clock
	xbarBusy  stats.Counter
	xbarMoves stats.Counter
	consumed  stats.Counter // snack flits consumed by the compute unit
	// classMoves splits crossbar traversals by priority class, the
	// attribution behind the §III-D3 "snacking never displaces CMP
	// traffic" claim.
	classMoves [2]stats.Counter
	// attrib classifies every cycle into the attribution taxonomy.
	attrib attrib.Counts
	// bufHist's buckets are a window of the Network's counts slab, which
	// a checkpoint copies whole; the block carries its total.
	bufHist stats.Histogram
}

// ID returns the router's node id.
func (r *Router) ID() NodeID { return r.id }

// Name implements sim.Component.
func (r *Router) Name() string { return fmt.Sprintf("router%d", r.id) }

// front returns the flit at the head of a VC's ring queue.
func (r *Router) front(v *inputVC) *Flit {
	return r.bufSlab[v.base+v.head]
}

// popFront dequeues the head flit of a VC's ring queue.
func (r *Router) popFront(v *inputVC) *Flit {
	i := v.base + v.head
	f := r.bufSlab[i]
	r.bufSlab[i] = nil
	v.head++
	if v.head == v.depth {
		v.head = 0
	}
	v.count--
	return f
}

// pushBack enqueues a flit at the tail of a VC's ring queue.
func (r *Router) pushBack(v *inputVC, f *Flit) {
	i := v.head + v.count
	if i >= v.depth {
		i -= v.depth
	}
	r.bufSlab[v.base+i] = f
	v.count++
}

// XbarUtil returns cumulative crossbar utilization.
func (r *Router) XbarUtil() *stats.Utilization {
	return stats.NewUtilization(&r.xbarBusy, &r.clock)
}

// BufferHistogram returns the per-cycle buffer-occupancy histogram
// (fraction of total input slots in use), the Fig 3 measurement.
func (r *Router) BufferHistogram() *stats.Histogram { return &r.bufHist }

// LinkUtil returns cumulative utilization of the output link in the given
// direction, or nil when the router has no such link.
func (r *Router) LinkUtil(d Direction) *stats.Utilization {
	if r.outputs[d] == nil {
		return nil
	}
	return stats.NewUtilization(&r.outputs[d].linkBusy, &r.clock)
}

// LinkColumn returns the Samples column of the output link in
// direction d, or -1 when the router has no such link.
func (r *Router) LinkColumn(d Direction) int {
	if r.outputs[d] == nil {
		return -1
	}
	return r.outputs[d].col
}

// attachCompute installs the RCU/CPM hook, caching its optional drain
// capability so the allocator does not repeat the type assertion per cycle.
func (r *Router) attachCompute(cu ComputeUnit) {
	r.compute = cu
	r.drainer, _ = cu.(LoopDrainer)
}

// setHandle makes the router the reader of its flit input wires: writers
// set the wire's pending bit and rouse the router from quiescence at
// exactly the entry's arrival cycle.
func (r *Router) setHandle(h *sim.Handle) {
	r.rd.handle = h
	for i := range r.inList {
		r.inList[i].in.rd, r.inList[i].in.bit = &r.rd, 1<<uint(i)
	}
}

// Quiescent implements sim.Quiescer: the router may sleep when it buffers
// no flits, no wire it reads holds entries (ready or in flight), and it
// has nothing staged. Input-wire pushes wake it via the wires' handles, so
// no work can arrive unnoticed; a returned credit needs no wake-up.
func (r *Router) Quiescent() bool {
	return r.occupancy == 0 && r.rd.pending == 0 &&
		len(r.stagedCredits) == 0 && r.stagedCount == 0
}

// closeWindows completes n sampling windows of the crossbar's and every
// link's series together; n-1 of them passed while the router slept.
func (r *Router) closeWindows(n int64) {
	r.samples.Close(int(r.id), n, r.sampleEvery)
	for i := range r.outList {
		r.samples.Close(r.outList[i].col, n, r.sampleEvery)
	}
}

// CatchUp implements sim.Quiescer: replay the per-cycle statistics an
// always-evaluated idle router would have recorded over idle cycles —
// that many cycles on the clock, with no resource busy in them, and the
// zero-occupancy bucket of the buffer histogram. This keeps every Fig 2/3
// measurement bit-identical with quiescence on or off.
func (r *Router) CatchUp(idle int64) {
	if closed := r.clock.Skip(idle, r.sampleEvery); closed > 0 {
		r.closeWindows(closed)
	}
	r.bufHist.ObserveBucketN(int(r.bufBucket[0]), idle)
	// A quiescent router holds no flits, so every skipped cycle would have
	// classified as empty.
	r.attrib.Add(attrib.RouterEmpty, idle)
}

// FreeOutputVCs counts free useful virtual output channels across the
// router's mesh output ports, the quantity tracked by the ALO congestion
// estimator of Baydal et al. used by the CPM (§III-C2). When commOnly is
// true the snack vnet is excluded.
func (r *Router) FreeOutputVCs(commOnly bool) int { return r.freeOutputVCs(commOnly, math.MaxInt) }

// freeOutputVCsAtLeast reports FreeOutputVCs(true) >= n. The ALO detector
// asks this of the CPM's router every cycle and needs only the
// comparison, so the count stops at n.
func (r *Router) freeOutputVCsAtLeast(n int) bool { return r.freeOutputVCs(true, n) >= n }

// freeOutputVCs is FreeOutputVCs, except that it returns as soon as the
// count reaches limit.
func (r *Router) freeOutputVCs(commOnly bool, limit int) int {
	free := 0
	for d := North; d <= West; d++ {
		out := r.outputs[d]
		if out == nil {
			continue
		}
		for v := range r.cfg.VNets {
			if commOnly && v == r.cfg.SnackVNet {
				continue
			}
			off := r.vnetOff[v]
			for c := int32(0); c < r.nvcOf[v]; c++ {
				if out.busy&(1<<uint(off+c)) == 0 && out.credits[off+c] > 0 {
					if free++; free >= limit {
						return free
					}
				}
			}
		}
	}
	return free
}

// FreeSnackVCsToward counts free snack-vnet VCs on the output port that
// XY-routes toward dst (the overflow detector's measurement).
func (r *Router) FreeSnackVCsToward(dst NodeID) int {
	if r.cfg.SnackVNet < 0 {
		return 0
	}
	d := routeXY(r.cfg, r.id, dst)
	if d == Local || r.outputs[d] == nil {
		return 0
	}
	return r.freeSnackOn(r.outputs[d])
}

func (r *Router) freeSnackOn(out *outputPort) int {
	off := r.vnetOff[r.cfg.SnackVNet]
	free := 0
	for c := int32(0); c < r.nvcOf[r.cfg.SnackVNet]; c++ {
		if out.busy&(1<<uint(off+c)) == 0 && out.credits[off+c] > 0 {
			free++
		}
	}
	return free
}

// Evaluate implements one router cycle: link arrival (with the compute
// hook), route computation, VC allocation, and switch allocation with
// crossbar traversal.
func (r *Router) Evaluate(cycle int64) {
	r.ingestArrivals(cycle)
	moves := 0
	if r.occupancy == 1 && r.oneStep(cycle) {
		moves = 1
	} else if r.occupancy > 0 {
		if len(r.needRoute) > 0 {
			r.routeCompute(cycle)
		}
		if len(r.waitVA) > 0 {
			r.allocateVCs(cycle)
		}
		moves = r.allocateSwitch(cycle)
	}
	r.observe(cycle, moves)
}

// oneStep is the zero-load fast path. When the router holds one
// buffered flit, no VC waits for an output VC, and the flit is eligible
// this cycle, oneStep moves it in one straight-line step in two states:
//
//   - the flit heads a packet on a VC awaiting route computation, is not
//     a loop token the drainer would be offered, and its route has a
//     free output VC with a downstream credit: oneStep routes, allocates
//     and traverses it;
//   - the flit is a body or tail on a VC that holds an output VC with a
//     downstream credit: oneStep traverses it.
//
// Other VCs may hold output VCs with no flit buffered; they are switch
// candidates that cannot win, but under the plain arbiter their outputs
// still advance their pointers, and oneStep does the same. It leaves
// exactly the state and trace records that routeCompute, allocateVCs
// and allocateSwitch leave for the flit; in any other state it changes
// nothing and reports false.
func (r *Router) oneStep(cycle int64) bool {
	if len(r.waitVA) != 0 {
		return false
	}
	if len(r.needRoute) != 1 {
		return r.oneStepActive(cycle)
	}
	idx := r.needRoute[0]
	ivc := &r.vcs[idx]
	f := r.front(ivc)
	if !f.IsHead() || f.eligibleAt > cycle ||
		(r.drainer != nil && ivc.vnet == r.snackVNet && f.Loop) {
		return false
	}
	d := routeXY(r.cfg, r.id, f.Dst)
	out := r.outputs[d]
	if out == nil {
		return false
	}
	vn := ivc.vnet
	off := r.vnetOff[vn]
	c := r.freeVC(out, vn)
	if c < 0 || out.credits[off+c] <= 0 {
		return false
	}
	// Route and VC grant. A single-flit packet's traversal releases the
	// output VC in the same cycle, so its busy bit and switch candidacy
	// net to nothing; a longer packet keeps both.
	r.needRoute = r.needRoute[:0]
	r.vaPtr++
	out.vcRR[vn] = c + 1
	ivc.outPort, ivc.outVC, ivc.state = d, int8(c), vcActive
	if r.tr != nil {
		rec := r.flitRecord(trace.KindVCAlloc, cycle, cycle, f, d)
		rec.VC = int8(c)
		r.tr.Emit(rec)
	}
	tail := f.IsTail()
	if !tail {
		out.busy |= 1 << uint(off+c)
		r.addSACand(d, int(ivc.class), idx)
	}
	r.soleGrant(d)
	r.cross(d, ivc, cycle)
	if tail {
		ivc.state = vcIdle
	}
	return true
}

// oneStepActive is oneStep for a router with nothing on needRoute: its
// one flit, if a body or tail on a VC that holds an output VC, crosses
// when it is eligible and its output VC has a downstream credit.
func (r *Router) oneStepActive(cycle int64) bool {
	idx := r.loneActiveVC()
	if idx < 0 {
		return false
	}
	ivc := &r.vcs[idx]
	d := ivc.outPort
	bit := uint(r.vnetOff[ivc.vnet] + int32(ivc.outVC))
	if r.front(ivc).eligibleAt > cycle || r.outputs[d].credits[bit] <= 0 {
		return false
	}
	r.soleGrant(d)
	if r.cross(d, ivc, cycle).IsTail() {
		ivc.state = vcIdle
		r.outputs[d].busy &^= 1 << bit
		r.removeSACand(d, int(ivc.class), idx)
	}
	return true
}

// soleGrant advances the switch arbiter as allocateSwitch does when the
// one flit it can move wins output d: the shared round under priority
// arbitration, or else the pointer of every output with candidates, d
// among them.
func (r *Router) soleGrant(d Direction) {
	if r.cfg.PriorityArb {
		r.saRound++
		return
	}
	for m := r.saMask[classComm] | r.saMask[classSnack] | 1<<uint(d); m != 0; m &= m - 1 {
		r.saPtr[bits.TrailingZeros32(m)]++
	}
}

// loneActiveVC returns the vcs index of the switch candidate holding a
// flit, or -1. On a router that buffers one flit and has no VC awaiting
// route computation or an output VC, that is the lone flit's VC.
func (r *Router) loneActiveVC() int32 {
	for cl := range r.saMask {
		for m := r.saMask[cl]; m != 0; m &= m - 1 {
			for _, idx := range r.saCand[bits.TrailingZeros32(m)][cl] {
				if r.vcs[idx].count > 0 {
					return idx
				}
			}
		}
	}
	return -1
}

// Advance commits staged flits to their wires and credits to their sinks.
func (r *Router) Advance(cycle int64) {
	if r.stagedCount > 0 {
		for i := range r.outList {
			out := &r.outList[i]
			if f := out.staged; f != nil {
				out.out.push(f, cycle+r.linkLat)
				out.staged = nil
			}
		}
		r.stagedCount = 0
	}
	for _, c := range r.stagedCredits {
		r.inputs[c.port].credit.put(c)
	}
	r.stagedCredits = r.stagedCredits[:0]
}

// ingestArrivals drains the ready flits of every input port whose wire
// holds entries into their VC rings, running the compute OnArrival hook
// first.
func (r *Router) ingestArrivals(cycle int64) {
	for m := r.rd.pending; m != 0; m &= m - 1 {
		in := &r.inList[bits.TrailingZeros32(m)]
		ready := in.in.ready(cycle)
		for _, e := range ready {
			f := e.f
			if f.VNet == r.snackVNet && f.Dst == r.id && r.compute != nil {
				if r.compute.OnArrival(f, cycle) {
					// Consumed before buffering: the reserved slot is
					// returned upstream immediately.
					r.consumed.Inc()
					if r.tr != nil {
						r.tr.Emit(r.flitRecord(trace.KindConsume, cycle, cycle, f, in.dir))
					}
					r.stagedCredits = append(r.stagedCredits, credit{port: in.dir, vnet: f.VNet, vc: f.VC})
					r.pool.flits.Put(f)
					continue
				}
				if f.Loop {
					// Transient token continues to the next loop node.
					f.Dst = r.loop.Next(r.id)
				}
			}
			f.eligibleAt = cycle + r.routerLatM1
			idx := in.refBase[f.VNet] + int32(f.VC)
			ivc := &r.vcs[idx]
			if ivc.count >= ivc.depth {
				panic(fmt.Sprintf("%s: input VC overflow %s vnet %d vc %d (%s)",
					r.Name(), in.dir, f.VNet, f.VC, f))
			}
			r.pushBack(ivc, f)
			ivc.arrived++
			r.occupancy++
			if r.tr != nil {
				r.tr.Emit(r.flitRecord(trace.KindFlitArrive, cycle, cycle, f, in.dir))
			}
			if ivc.state == vcIdle {
				ivc.state = vcRoute
				r.needRoute = append(r.needRoute, idx)
			}
		}
		in.in.consume(len(ready))
	}
}

func (r *Router) routeCompute(cycle int64) {
	for _, idx := range r.needRoute {
		ivc := &r.vcs[idx]
		if ivc.state != vcRoute || ivc.count == 0 {
			panic(fmt.Sprintf("%s: route work-list entry in state %d", r.Name(), ivc.state))
		}
		head := r.front(ivc)
		if !head.IsHead() {
			panic(fmt.Sprintf("%s: non-head flit %s at head of routing VC", r.Name(), head))
		}
		ivc.outPort = routeXY(r.cfg, r.id, head.Dst)
		if r.outputs[ivc.outPort] == nil {
			panic(fmt.Sprintf("%s: route to missing port %s for %s", r.Name(), ivc.outPort, head))
		}
		ivc.state = vcWaitVA
		r.waitVA = append(r.waitVA, idx)
	}
	r.needRoute = r.needRoute[:0]
}

func (r *Router) allocateVCs(cycle int64) {
	n := len(r.waitVA)
	r.vaPtr++
	if n == 1 {
		// Single-flit bypass: with one waiter the RR rotation is a no-op,
		// so skip the snapshot copy and keep-list rebuild entirely.
		if r.tryAllocVC(r.waitVA[0], cycle) {
			r.waitVA = r.waitVA[:0]
		}
		return
	}
	// Scan a snapshot: the keep-list rebuild below writes into waitVA
	// while the rotated scan still reads from it.
	r.vaScratch = append(r.vaScratch[:0], r.waitVA...)
	keep := r.waitVA[:0]
	for i := 0; i < n; i++ {
		idx := r.vaScratch[(r.vaPtr+i)%n]
		if !r.tryAllocVC(idx, cycle) {
			keep = append(keep, idx)
		}
	}
	// Preserve un-granted requests; order changes only by the RR offset.
	r.waitVA = keep
}

// tryAllocVC handles one VA work-list entry: drain it into the CPM, grant
// it an output VC, or leave it waiting. It reports whether the entry left
// the wait list (drained or granted).
func (r *Router) tryAllocVC(idx int32, cycle int64) bool {
	ivc := &r.vcs[idx]
	if r.drainer != nil && ivc.vnet == r.snackVNet && r.front(ivc).Loop &&
		r.drainer.DrainLoopFlit(r.front(ivc), cycle) {
		// Absorbed into the CPM's overflow buffer: free the slot.
		f := r.popFront(ivc)
		r.occupancy--
		r.consumed.Inc()
		if r.tr != nil {
			r.tr.Emit(r.flitRecord(trace.KindDrain, cycle, cycle, f, ivc.port))
		}
		r.stagedCredits = append(r.stagedCredits, credit{port: ivc.port, vnet: ivc.vnet, vc: ivc.vc})
		if !f.IsTail() {
			panic(fmt.Sprintf("%s: drained a multi-flit loop packet", r.Name()))
		}
		r.pool.flits.Put(f)
		if ivc.count > 0 {
			ivc.state = vcRoute
			r.needRoute = append(r.needRoute, idx)
		} else {
			ivc.state = vcIdle
		}
		return true
	}
	if r.front(ivc).eligibleAt > cycle {
		return false
	}
	out := r.outputs[ivc.outPort]
	c := r.freeVC(out, ivc.vnet)
	if c < 0 {
		return false
	}
	out.busy |= 1 << uint(r.vnetOff[ivc.vnet]+c)
	out.vcRR[ivc.vnet] = c + 1
	ivc.outVC = int8(c)
	ivc.state = vcActive
	r.addSACand(ivc.outPort, int(ivc.class), idx)
	if r.tr != nil {
		rec := r.flitRecord(trace.KindVCAlloc, cycle, cycle, r.front(ivc), ivc.outPort)
		rec.VC = int8(c)
		r.tr.Emit(rec)
	}
	return true
}

// freeVC returns the first output VC of vnet on out that no packet
// holds, scanning round-robin from the vnet's pointer, or -1.
func (r *Router) freeVC(out *outputPort, vnet int8) int32 {
	off, nvc, rr := r.vnetOff[vnet], r.nvcOf[vnet], out.vcRR[vnet]
	for j := int32(0); j < nvc; j++ {
		if c := (rr + j) % nvc; out.busy&(1<<uint(off+c)) == 0 {
			return c
		}
	}
	return -1
}

// allocateSwitch performs switch allocation and crossbar traversal,
// returning the number of flits moved this cycle. Under priority
// arbitration the allocation runs in two full passes — every output
// considers communication flits before any snack flit is granted — so
// instruction flits can never take a crossbar input port a communication
// flit could have used (§III-D3).
func (r *Router) allocateSwitch(cycle int64) int {
	moves := 0
	var grantedInputs [numDirections]bool
	if r.cfg.PriorityArb {
		// Under priority arbitration every existing output advances its RR
		// pointer in lockstep each allocation round, so one shared counter
		// replaces the per-port pointers and ports without candidates cost
		// nothing: the mask walk visits only outputs with work. Bit order
		// is ascending, matching the old direction loop.
		r.saRound++
		for m := r.saMask[classComm]; m != 0; m &= m - 1 {
			d := Direction(bits.TrailingZeros32(m))
			if win := r.scanCand(r.saCand[d][classComm], r.saRound, d, cycle, &grantedInputs); win >= 0 {
				r.traverse(d, win, cycle, &grantedInputs)
				moves++
			}
		}
		for m := r.saMask[classSnack]; m != 0; m &= m - 1 {
			d := Direction(bits.TrailingZeros32(m))
			if r.outputs[d].staged != nil {
				continue
			}
			if win := r.scanCand(r.saCand[d][classSnack], r.saRound, d, cycle, &grantedInputs); win >= 0 {
				r.traverse(d, win, cycle, &grantedInputs)
				moves++
			}
		}
		return moves
	}
	for m := r.saMask[classComm] | r.saMask[classSnack]; m != 0; m &= m - 1 {
		d := Direction(bits.TrailingZeros32(m))
		win := r.pickSwitchWinner(d, cycle, &grantedInputs)
		if win < 0 {
			continue
		}
		r.traverse(d, win, cycle, &grantedInputs)
		moves++
	}
	return moves
}

// traverse moves the winning VC's head flit through the crossbar toward
// output d, handling credits, VC release, and statistics.
func (r *Router) traverse(d Direction, win int32, cycle int64, granted *[numDirections]bool) {
	ivc := &r.vcs[win]
	f := r.cross(d, ivc, cycle)
	granted[ivc.port] = true
	if f.IsTail() {
		r.outputs[d].busy &^= 1 << uint(r.vnetOff[ivc.vnet]+int32(ivc.outVC))
		r.removeSACand(d, int(ivc.class), win)
		if ivc.count > 0 {
			// The next packet's head is already queued.
			ivc.state = vcRoute
			r.needRoute = append(r.needRoute, win)
		} else {
			ivc.state = vcIdle
		}
	}
}

// cross moves ivc's front flit through the crossbar onto its output VC
// on output d: the credit it spends, the credit it returns upstream, the
// staged flit, and the class, link and trace records of the move. It
// returns the flit.
func (r *Router) cross(d Direction, ivc *inputVC, cycle int64) *Flit {
	out := r.outputs[d]
	f := r.popFront(ivc)
	r.occupancy--
	r.classMoves[ivc.class].Inc()
	if r.tr != nil {
		// The span starts at the flit's arrival, which ingest dated
		// routerLatM1 cycles before eligibleAt.
		rec := r.flitRecord(trace.KindSwitch, cycle, f.eligibleAt-r.routerLatM1, f, d)
		rec.VC = ivc.outVC
		r.tr.Emit(rec)
	}
	f.VC = ivc.outVC
	out.credits[r.vnetOff[ivc.vnet]+int32(ivc.outVC)]--
	out.staged = f
	r.stagedCount++
	r.stagedCredits = append(r.stagedCredits, credit{port: ivc.port, vnet: ivc.vnet, vc: ivc.vc})
	out.linkBusy.Inc()
	if r.samples != nil {
		r.samples.MarkBusy(out.col)
	}
	return f
}

// pickSwitchWinner selects the input VC (by vcs index) that wins output
// port d this cycle under plain (non-priority) arbitration, honouring
// round-robin fairness, credit availability, and the one-flit-per-input-
// port crossbar constraint. It returns -1 when no candidate is ready.
func (r *Router) pickSwitchWinner(d Direction, cycle int64, granted *[numDirections]bool) int32 {
	comm, snack := r.saCand[d][classComm], r.saCand[d][classSnack]
	if len(comm) == 0 && len(snack) == 0 {
		return -1
	}
	r.saPtr[d]++
	// Both classes share one RR scan.
	n := len(comm) + len(snack)
	start := r.saPtr[d]
	for i := 0; i < n; i++ {
		k := (start + i) % n
		var idx int32
		if k < len(comm) {
			idx = comm[k]
		} else {
			idx = snack[k-len(comm)]
		}
		if r.saOK(idx, d, cycle, granted) {
			return idx
		}
	}
	return -1
}

func (r *Router) scanCand(cand []int32, start int, d Direction, cycle int64, granted *[numDirections]bool) int32 {
	n := len(cand)
	if n == 0 {
		return -1
	}
	for i := 0; i < n; i++ {
		idx := cand[(start+i)%n]
		if r.saOK(idx, d, cycle, granted) {
			return idx
		}
	}
	return -1
}

// saOK checks whether the VC at vcs index idx can traverse toward output
// d this cycle.
func (r *Router) saOK(idx int32, d Direction, cycle int64, granted *[numDirections]bool) bool {
	ivc := &r.vcs[idx]
	if ivc.state != vcActive || ivc.outPort != d || ivc.count == 0 {
		return false
	}
	if granted[ivc.port] {
		return false
	}
	if r.front(ivc).eligibleAt > cycle {
		return false
	}
	return r.outputs[d].credits[r.vnetOff[ivc.vnet]+int32(ivc.outVC)] > 0
}

// addSACand registers a VC-allocated input VC as a switch candidate for
// output d, keeping the non-empty mask in sync.
func (r *Router) addSACand(d Direction, class int, idx int32) {
	r.saCand[d][class] = append(r.saCand[d][class], idx)
	r.saMask[class] |= 1 << uint(d)
}

func (r *Router) removeSACand(d Direction, class int, idx int32) {
	cand := r.saCand[d][class]
	for i, v := range cand {
		if v == idx {
			cand = append(cand[:i], cand[i+1:]...)
			r.saCand[d][class] = cand
			if len(cand) == 0 {
				r.saMask[class] &^= 1 << uint(d)
			}
			return
		}
	}
	panic(fmt.Sprintf("%s: ref %d missing from SA candidates", r.Name(), idx))
}

// observe records one evaluated cycle: a busy crossbar cycle if flits
// moved (a busy link cycle was recorded by each traverse), one tick of
// the clock all of them share, and the buffer occupancy.
func (r *Router) observe(cycle int64, moves int) {
	if moves > 0 {
		r.xbarBusy.Inc()
		if r.samples != nil {
			r.samples.MarkBusy(int(r.id))
		}
		r.xbarMoves.Add(int64(moves))
	}
	if r.clock.Tick(r.sampleEvery) {
		r.closeWindows(1)
	}
	r.bufHist.ObserveBucket(int(r.bufBucket[r.occupancy]))
	// Exactly one reason per evaluated cycle. occupancy is post-move: a
	// router that drained its last flit this cycle counts active, not
	// empty. The credit-stall bucket is the catch-all for buffered flits
	// that cleared VC allocation but could not traverse — out of credits,
	// or ineligible this cycle from pipeline/link latency.
	switch {
	case moves > 0:
		r.attrib.Inc(attrib.RouterActive)
	case r.occupancy == 0:
		r.attrib.Inc(attrib.RouterEmpty)
	case len(r.waitVA) > 0:
		r.attrib.Inc(attrib.RouterVCStall)
	default:
		r.attrib.Inc(attrib.RouterCreditStall)
	}
}

// flitRecord builds a trace record carrying f's coordinates. port is the
// input direction for arrival-side kinds and the output direction for
// KindVCAlloc/KindSwitch; start is the span start (== cycle for instants).
func (r *Router) flitRecord(k trace.Kind, cycle, start int64, f *Flit, port Direction) trace.Record {
	cl := int8(trace.ClassComm)
	if f.VNet == r.snackVNet {
		cl = trace.ClassSnack
	}
	return trace.Record{
		Kind:   k,
		Cycle:  cycle,
		Start:  start,
		Packet: f.PacketID,
		Node:   int32(r.id),
		Seq:    int16(f.SeqInPkt),
		Class:  cl,
		Port:   int8(port),
		VNet:   f.VNet,
		VC:     f.VC,
	}
}

// registerMetrics names the router's statistics in reg under the prefix
// "routerN.": crossbar utilization and traversal counts (split by priority
// class), the buffer-occupancy histogram, per-output-link utilization,
// compute-consumed flits, and per-input-VC arrival counts.
func (r *Router) registerMetrics(reg *stats.Registry) {
	p := fmt.Sprintf("router%d.", r.id)
	reg.AddUtilization(p+"xbar", r.XbarUtil())
	reg.AddCounter(p+"xbar.moves", &r.xbarMoves)
	reg.AddCounter(p+"xbar.moves.comm", &r.classMoves[classComm])
	reg.AddCounter(p+"xbar.moves.snack", &r.classMoves[classSnack])
	reg.AddHistogram(p+"buf.occupancy", &r.bufHist)
	reg.AddCounter(p+"compute.consumed", &r.consumed)
	if r.samples != nil {
		reg.AddSeries(p+"xbar.series", r.samples, int(r.id))
	}
	for i := range r.outList {
		out := &r.outList[i]
		lp := fmt.Sprintf("%slink.%s", p, out.dir)
		reg.AddUtilization(lp, r.LinkUtil(out.dir))
		if r.samples != nil {
			reg.AddSeries(lp+".series", r.samples, out.col)
		}
	}
	// vcs is laid out port-major, then vnet, then vc.
	for i := range r.vcs {
		i := i
		v := &r.vcs[i]
		reg.AddGauge(fmt.Sprintf("%svc.%s.v%d.c%d.arrived", p, v.port, v.vnet, v.vc),
			func() float64 { return float64(r.vcs[i].arrived) })
	}
}
