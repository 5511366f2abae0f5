package core

import (
	"fmt"

	"snacknoc/internal/attrib"
	"snacknoc/internal/fixed"
	"snacknoc/internal/flat"
	"snacknoc/internal/noc"
	"snacknoc/internal/stats"
	"snacknoc/internal/trace"
)

// enqueueLat is the extra pipeline stage between a flit arriving at the
// router and the instruction becoming schedulable (§III-D2: "this action
// adds an additional router pipeline stage").
const enqueueLat = 1

// inboxEntry is an instruction awaiting its enqueue stage.
type inboxEntry struct {
	slot  int32 // in the RCU's instrSlab
	stamp int64
}

// instrNode is one linked-list cell of the RCU's shared node slab. Both
// the per-sub-block instruction queues and the per-dependency waiting
// lists are singly linked chains of these, so an instruction buffered
// in a sub-block and indexed under two unresolved operands occupies
// three cells, all naming its one slot. Free cells are chained through
// next.
type instrNode struct {
	slot, next int32
}

// sbState is one active sub-block: an intra-dependent chain executed
// strictly in SBIdx order (§III-D1). Queued instructions live as
// index-linked slab cells kept sorted on SBIdx; the head fires only
// when it is the next unexecuted index, so chains survive NoC
// reordering.
type sbState struct {
	id       uint32
	executed int   // instructions of this sub-block already dispatched
	head     int32 // first queued slab cell, -1 when empty
	tail     int32 // last queued slab cell, -1 when empty
	count    int32
}

// waitList heads one dependency's waiting-instruction chain.
type waitList struct {
	head, tail int32
}

// outToken is a result awaiting injection through the compute port. It
// is minted into a pooled token only once the port has a credit for it.
type outToken struct {
	dst  noc.NodeID
	tok  DataToken
	loop bool
}

// instrSlot is one slot of an instrSlab.
type instrSlot struct {
	it   InstrToken
	next int32 // the next free slot, while this one is free
	// retired marks an instruction that completed while a reference
	// operand was still unfilled; the fill frees the slot (see deliver).
	retired bool
}

// instrChunk is how many slots an instrSlab adds at a time.
const instrChunk = 64

// instrSlab holds by value every instruction the RCUs of a platform
// hold, from the cycle its flit arrives until it retires; an RCU names
// its instructions by slot. It grows a chunk at a time, so growth never
// moves a slot, and free slots are chained through next, so recycling
// one allocates nothing. The zero value needs free set to -1.
type instrSlab struct {
	chunks [][]instrSlot
	n      int32 // slots handed out at least once
	free   int32 // free-list head, -1 when empty
}

func (s *instrSlab) at(i int32) *instrSlot { return &s.chunks[i/instrChunk][i%instrChunk] }

// add copies it into a free slot and returns the slot.
func (s *instrSlab) add(it *InstrToken) int32 {
	i := s.free
	if i >= 0 {
		s.free = s.at(i).next
	} else {
		if int(s.n) == len(s.chunks)*instrChunk {
			s.chunks = append(s.chunks, make([]instrSlot, instrChunk))
		}
		i = s.n
		s.n++
	}
	*s.at(i) = instrSlot{it: *it}
	return i
}

// release returns slot i to the free list.
func (s *instrSlab) release(i int32) {
	*s.at(i) = instrSlot{next: s.free}
	s.free = i
}

// RCU is the Router Compute Unit of §III-D: flit decode, an ordered
// instruction buffer with sub-block partial ordering, a dependency-
// capture path fed by transient loop tokens, a fixed-point ALU with an
// accumulator register, and result re-encoding back onto the NoC.
//
// The state is flat: sub-block queues and the dependency-capture index
// are open-addressed tables over index-linked slab cells, sized once and
// reused across kernels, and the result queue is a ring. No map grows or
// shrinks on the dispatch path. The RCU holds every instruction by
// value, in a slot of its platform's instrSlab, from the cycle its flit
// arrives until it retires; the inbox, the cells and exec name slots. A
// checkpoint is therefore a copy of the slab and of rcuState.
//
// On a Platform the engine does not see RCUs one by one: an rcuGroup
// steps those that hold work (see group.go).
type RCU struct {
	node    noc.NodeID
	port    *noc.InjectPort
	loop    *noc.LoopRoute
	cpmNode noc.NodeID
	pool    *TokenPool // its platform's, wired by the Platform

	// g steps this RCU; nil for one built by NewRCU and driven directly,
	// which never parks. While the RCU is out of g's runnable set,
	// parkedFrom is the first cycle whose stall and attribution counts it
	// has not been paid yet.
	g          *rcuGroup
	parkedFrom int64

	instrs *instrSlab // shared with the platform's other RCUs

	// tr records operand/compute events; nil disables tracing.
	tr *trace.Tracer

	rcuState
}

// rcuState is an RCU's mutable state: the flat structures it indexes its
// instructions with, its result ring and its scalars. A checkpoint takes
// and restores it with copyFrom.
type rcuState struct {
	inbox []inboxEntry
	nodes []instrNode // shared slab for sub-block queues and waiting lists

	sbs      flat.Slots[sbState]
	sbActive []int32            // live sub-block slots, in arrival order
	sbTab    flat.Table[uint32] // SubBlock id -> sbs slot
	waits    flat.Slots[waitList]
	waitTab  flat.Table[uint32] // DepID -> waits slot
	outQ     flat.Ring[outToken]

	rcuScalars
}

// rcuScalars is an RCU's mutable state outside its slabs and ring; a
// checkpoint copies it whole.
type rcuScalars struct {
	// buffered counts the instructions in the inbox and the sub-block
	// queues, whose high-water mark is maxBuffer.
	buffered  int
	maxBuffer int
	nodeFree  int32 // slab free-list head, -1 when empty

	acc     fixed.Q
	accSB   uint32
	accOpen bool

	exec      int32 // slot of the executing instruction, -1 when none
	execVal   fixed.Q
	busyUntil int64
	execStart int64 // dispatch cycle of exec, for the trace span

	executed   stats.Counter
	captured   stats.Counter // dependency values captured from loop tokens
	emitted    stats.Counter
	stallCount stats.Counter // cycles with buffered work but nothing ready
	attrib     attrib.Counts // one reason per cycle
}

// Initial per-RCU capacities: the high-water marks of the Table III
// kernels at DSE smoke size on a 4×4 mesh — one live sub-block, two
// inbox entries, eight queued results and 63 chain cells (MAC) — except
// the awaited dependencies, sized for the Fig 12 co-run's SPMV at
// reproduction size, where every RCU awaits 26 to 39 at once.
// Reproduction-size MAC and SPMV chains, and the reduction root of a
// larger mesh, outgrow them.
const (
	rcuCellCap    = 64
	rcuSBCap      = 4
	rcuSBTabCap   = 16
	rcuWaitCap    = 40
	rcuWaitTabCap = 64
	rcuInboxCap   = 4
	rcuOutQCap    = 8
)

// newRCUs builds every RCU of a mesh in a handful of allocations: the
// RCUs themselves and each flat structure as one slab, carved into
// full-capacity windows. The windows are initial capacities, not limits
// — an RCU that outgrows one reallocates it privately, as a directly
// constructed NewRCU grows from empty. The caller hands each RCU the
// platform's instrSlab and writes its initial state (reset).
func newRCUs(nodes int, loop *noc.LoopRoute, cpmNode noc.NodeID) []RCU {
	const tabCap = rcuSBTabCap + rcuWaitTabCap
	rcus := make([]RCU, nodes)
	cells := make([]instrNode, nodes*rcuCellCap)
	sbSlots := make([]sbState, nodes*rcuSBCap)
	waitSlots := make([]waitList, nodes*rcuWaitCap)
	idx := make([]int32, nodes*(2*rcuSBCap+rcuWaitCap))
	ents := make([]flat.Entry[uint32], nodes*tabCap)
	inbox := make([]inboxEntry, nodes*rcuInboxCap)
	outQ := make([]outToken, nodes*rcuOutQCap)
	tab := func(n int) flat.Table[uint32] { return flat.TableOver(flat.Carve(&ents, n)) }
	for i := range rcus {
		rcus[i] = RCU{
			node: noc.NodeID(i), loop: loop, cpmNode: cpmNode,
			rcuState: rcuState{
				inbox:    flat.Carve(&inbox, rcuInboxCap)[:0],
				nodes:    flat.Carve(&cells, rcuCellCap)[:0],
				sbs:      flat.SlotsOver(flat.Carve(&sbSlots, rcuSBCap), flat.Carve(&idx, rcuSBCap)),
				sbActive: flat.Carve(&idx, rcuSBCap)[:0],
				sbTab:    tab(rcuSBTabCap),
				waits:    flat.SlotsOver(flat.Carve(&waitSlots, rcuWaitCap), flat.Carve(&idx, rcuWaitCap)),
				waitTab:  tab(rcuWaitTabCap),
				outQ:     flat.RingOver(flat.Carve(&outQ, rcuOutQCap)),
			},
		}
	}
	return rcus
}

// reset empties every structure and writes the built scalars; storage,
// grown or not, is kept. A Platform runs it on every RCU as it builds
// and again when it resets.
func (r *RCU) reset() {
	s := &r.rcuState
	s.inbox, s.nodes, s.sbActive = s.inbox[:0], s.nodes[:0], s.sbActive[:0]
	s.sbs.Reset()
	s.sbTab.Reset()
	s.waits.Reset()
	s.waitTab.Reset()
	s.outQ.Clear()
	s.rcuScalars = rcuScalars{nodeFree: -1, exec: -1}
}

// SetPort installs the compute-port handle returned by AttachCompute.
func (r *RCU) SetPort(p *noc.InjectPort) { r.port = p }

// Name implements sim.Component.
func (r *RCU) Name() string { return fmt.Sprintf("rcu%d", r.node) }

// Captured returns the number of dependency values taken from the loop.
func (r *RCU) Captured() int64 { return r.captured.Value() }

// MaxBuffered returns the high-water mark of the instruction buffer.
func (r *RCU) MaxBuffered() int { return r.maxBuffer }

// Idle reports whether the RCU holds no work at all.
func (r *RCU) Idle() bool {
	return r.exec < 0 && len(r.inbox) == 0 && len(r.sbActive) == 0 && r.outQ.Len() == 0
}

// newNode takes a slab cell off the free list.
func (r *RCU) newNode(slot int32) int32 {
	if r.nodeFree >= 0 {
		n := r.nodeFree
		r.nodeFree = r.nodes[n].next
		r.nodes[n] = instrNode{slot: slot, next: -1}
		return n
	}
	r.nodes = append(r.nodes, instrNode{slot: slot, next: -1})
	return int32(len(r.nodes) - 1)
}

// freeNode returns a slab cell to the free list.
func (r *RCU) freeNode(n int32) {
	r.nodes[n] = instrNode{next: r.nodeFree}
	r.nodeFree = n
}

// instrAt returns the instruction cell n names.
func (r *RCU) instrAt(n int32) *InstrToken { return &r.instrs.at(r.nodes[n].slot).it }

// retire frees a completed instruction's slot. An instruction with an
// unfilled reference operand is still named by a waiting-list cell (only
// OpAccAdd dispatches with R unresolved), so it is only marked, and the
// fill that resolves it frees the slot (see deliver).
func (r *RCU) retire(s int32) {
	sl := r.instrs.at(s)
	if it := &sl.it; (it.L.IsRef && !it.L.filled) || (it.R.IsRef && !it.R.filled) {
		sl.retired = true
		return
	}
	r.instrs.release(s)
}

// OnArrival implements noc.ComputeUnit: instruction flits are copied
// into an instruction slot and the inbox; passing data tokens fill any
// waiting operands and are consumed once their dependent count reaches
// zero. A consumed token goes back to the pool at once; the flit is
// recycled by the router.
func (r *RCU) OnArrival(f *noc.Flit, cycle int64) bool {
	switch pl := f.Payload.(type) {
	case *InstrToken:
		r.resume()
		r.inbox = append(r.inbox, inboxEntry{slot: r.instrs.add(pl), stamp: cycle})
		r.pool.instr.Put(pl)
		r.buffered++
		return true
	case *DataToken:
		if !f.Loop {
			// A directly addressed token (e.g. an output heading to the
			// CPM): not ours to consume.
			return false
		}
		fills := r.deliver(pl.Dep, pl.V)
		if fills == 0 {
			return false
		}
		r.resume()
		r.captured.Add(int64(fills))
		r.emitCompute(trace.KindRCUCapture, cycle, cycle, int32(fills))
		if int(pl.Dependents) < fills {
			panic(fmt.Sprintf("%s: token %s over-consumed by %d fills", r.Name(), pl, fills))
		}
		pl.Dependents -= uint16(fills)
		if pl.Dependents == 0 {
			r.pool.data.Put(pl)
			return true
		}
		return false
	default:
		return false
	}
}

// deliver fills every waiting operand that references dep, returning the
// number of operand fills performed. A retired instruction whose last
// unfilled operand this was gives up its slot.
func (r *RCU) deliver(dep DepID, v fixed.Q) int {
	wi, ok := r.waitTab.Get(uint32(dep))
	if !ok {
		return 0
	}
	fills := 0
	for n := r.waits.At(wi).head; n >= 0; {
		s := r.nodes[n].slot
		sl := r.instrs.at(s)
		it := &sl.it
		if it.L.IsRef && !it.L.filled && it.L.Dep == dep {
			it.L.fill(v)
			fills++
		}
		if it.R.IsRef && !it.R.filled && it.R.Dep == dep {
			it.R.fill(v)
			fills++
		}
		if sl.retired {
			r.retire(s)
		}
		next := r.nodes[n].next
		r.freeNode(n)
		n = next
	}
	r.waits.Free(wi)
	r.waitTab.Del(uint32(dep))
	return fills
}

// waitAdd indexes an unresolved operand: the instruction joins dep's
// chain at the tail, preserving arrival order.
func (r *RCU) waitAdd(dep DepID, slot int32) {
	n := r.newNode(slot)
	if wi, ok := r.waitTab.Get(uint32(dep)); ok {
		w := r.waits.At(wi)
		r.nodes[w.tail].next = n
		w.tail = n
		return
	}
	r.waitTab.Put(uint32(dep), r.waits.Park(waitList{head: n, tail: n}))
}

// Evaluate implements sim.Component: enqueue arrived instructions,
// complete the executing operation, and start the next ready one.
func (r *RCU) Evaluate(cycle int64) {
	if r.port != nil {
		r.port.Update(cycle)
	}
	r.drainInbox(cycle)
	if r.exec >= 0 && cycle >= r.busyUntil {
		r.complete(cycle)
	}
	if r.exec < 0 {
		r.dispatch(cycle)
	}
	// Attribution, exactly once per cycle: executing beats everything;
	// a backed-up output ring means results can't drain into the NoC;
	// queued instructions or live scoreboards are operand wait; else idle.
	switch {
	case r.exec >= 0:
		r.attrib.Inc(attrib.RCUExec)
	case r.outQ.Len() > 0:
		r.attrib.Inc(attrib.RCUOutputBackpressure)
	case len(r.inbox) > 0 || len(r.sbActive) > 0:
		r.attrib.Inc(attrib.RCUOperandWait)
	default:
		r.attrib.Inc(attrib.RCUIdle)
	}
}

// Advance injects at most one queued result token per cycle, minting it
// into a pooled token as the port takes it.
func (r *RCU) Advance(cycle int64) {
	if r.outQ.Len() == 0 || r.port == nil || !r.port.CanSend() {
		return
	}
	o := r.outQ.Pop()
	tok := r.pool.data.Get()
	*tok = o.tok
	r.port.Send(o.dst, tok, o.loop, cycle)
}

// sbFor returns the sub-block slot for id, creating it on first use.
// The returned pointer is invalidated by the next sbFor call.
func (r *RCU) sbFor(id uint32) *sbState {
	if si, ok := r.sbTab.Get(id); ok {
		return r.sbs.At(si)
	}
	si := r.sbs.Park(sbState{id: id, head: -1, tail: -1})
	r.sbTab.Put(id, si)
	r.sbActive = append(r.sbActive, si)
	return r.sbs.At(si)
}

// sbInsert places the instruction in slot into the sub-block's chain,
// sorted on SBIdx (flits may arrive out of order); equal indices keep
// arrival order.
func (r *RCU) sbInsert(sb *sbState, slot int32) {
	n := r.newNode(slot)
	idx := r.instrs.at(slot).it.SBIdx
	// Flits usually arrive in sub-block order, so appending at the tail
	// is the hot case; the head-walk below only runs for the stragglers.
	if sb.tail >= 0 && r.instrAt(sb.tail).SBIdx <= idx {
		r.nodes[n].next = -1
		r.nodes[sb.tail].next = n
		sb.tail = n
		sb.count++
		return
	}
	prev, cur := int32(-1), sb.head
	for cur >= 0 && r.instrAt(cur).SBIdx <= idx {
		prev, cur = cur, r.nodes[cur].next
	}
	r.nodes[n].next = cur
	if prev < 0 {
		sb.head = n
	} else {
		r.nodes[prev].next = n
	}
	if cur < 0 {
		sb.tail = n
	}
	sb.count++
}

// drainInbox moves instructions that have passed the enqueue stage into
// their sub-block queues and indexes their unresolved operands.
func (r *RCU) drainInbox(cycle int64) {
	n := 0
	for n < len(r.inbox) && cycle-r.inbox[n].stamp >= enqueueLat {
		s := r.inbox[n].slot
		it := &r.instrs.at(s).it
		r.sbInsert(r.sbFor(it.SubBlock), s)
		if it.L.IsRef && !it.L.filled {
			r.waitAdd(it.L.Dep, s)
		}
		if it.R.IsRef && !it.R.filled {
			r.waitAdd(it.R.Dep, s)
		}
		n++
	}
	if n > 0 {
		r.inbox = append(r.inbox[:0], r.inbox[n:]...)
	}
	if r.buffered > r.maxBuffer {
		r.maxBuffer = r.buffered
	}
}

// sbHeadReady reports whether the slot's head instruction is the next
// in sub-block order with every operand available.
func (r *RCU) sbHeadReady(si int32) bool {
	sb := r.sbs.At(si)
	if sb.head < 0 {
		return false
	}
	it := r.instrAt(sb.head)
	return int(it.SBIdx) == sb.executed && operandsReady(it)
}

// dispatch picks the next instruction under the §III-D1 partial order:
// while an accumulator chain is open only its own sub-block may issue
// (unless it waits on a producer stuck behind it; see unblock);
// otherwise the lowest-sequence ready head across sub-blocks wins (ties
// broken by arrival order).
func (r *RCU) dispatch(cycle int64) {
	pick := int32(-1)
	if r.accOpen {
		si, ok := r.sbTab.Get(r.accSB)
		switch {
		case ok && r.sbHeadReady(si):
			pick = si
		case ok:
			pick = r.unblock(si)
		}
		if pick < 0 {
			if len(r.sbActive) > 0 {
				r.stallCount.Inc()
			}
			return
		}
	} else {
		var pickSeq uint32
		for _, si := range r.sbActive {
			if !r.sbHeadReady(si) {
				continue
			}
			seq := r.instrAt(r.sbs.At(si).head).Seq
			if pick < 0 || seq < pickSeq {
				pick, pickSeq = si, seq
			}
		}
		if pick < 0 {
			if len(r.sbActive) > 0 {
				r.stallCount.Inc()
			}
			return
		}
	}
	sb := r.sbs.At(pick)
	n := sb.head
	r.exec = r.nodes[n].slot
	it := r.instrAt(n)
	sb.head = r.nodes[n].next
	if sb.head < 0 {
		sb.tail = -1
	}
	r.freeNode(n)
	sb.count--
	r.buffered--
	sb.executed++
	if it.EndSB {
		if sb.head >= 0 {
			panic(fmt.Sprintf("%s: sub-block %d has instructions beyond EndSB", r.Name(), sb.id))
		}
		r.removeSB(pick)
	}
	r.busyUntil = cycle + it.Op.Latency()
	r.execStart = cycle
	r.execVal = r.compute(it)
}

// unblock breaks the one deadlock the partial order builds on a single
// RCU: the open chain in slot si waits on a value whose producer is
// buffered here, behind the chain, so neither could ever run. Only then
// may an instruction that leaves the accumulator alone run ahead of the
// chain — the lowest-sequence ready one, which is the producer or a
// local instruction it waits on. A run that never reaches that state is
// unchanged. It returns the slot to dispatch, or -1.
func (r *RCU) unblock(si int32) int32 {
	sb := r.sbs.At(si)
	if sb.head < 0 {
		return -1
	}
	it := r.instrAt(sb.head)
	if int(it.SBIdx) != sb.executed || (!r.producedHere(&it.L) && !r.producedHere(&it.R)) {
		return -1
	}
	pick := int32(-1)
	var pickSeq uint32
	for _, sj := range r.sbActive {
		if !r.sbHeadReady(sj) {
			continue
		}
		if h := r.instrAt(r.sbs.At(sj).head); !h.Op.usesAcc() && (pick < 0 || h.Seq < pickSeq) {
			pick, pickSeq = sj, h.Seq
		}
	}
	return pick
}

// producedHere reports whether o waits on a value that an instruction at
// the head of one of this RCU's sub-blocks emits.
func (r *RCU) producedHere(o *Operand) bool {
	if o.ready() {
		return false
	}
	for _, sj := range r.sbActive {
		if h := r.sbs.At(sj).head; h >= 0 {
			if p := r.instrAt(h); p.Emit && p.EmitDep == o.Dep {
				return true
			}
		}
	}
	return false
}

func operandsReady(it *InstrToken) bool {
	if !it.L.ready() {
		return false
	}
	if it.Op == OpAccAdd {
		return true // unary: R unused
	}
	return it.R.ready()
}

// compute applies the ALU operation, updating the accumulator for
// chained operations.
func (r *RCU) compute(it *InstrToken) fixed.Q {
	l := it.L.value()
	var v fixed.Q
	switch it.Op {
	case OpAdd:
		v = l.Add(it.R.value())
	case OpSub:
		v = l.Sub(it.R.value())
	case OpMul:
		v = l.Mul(it.R.value())
	case OpMAC:
		m := l.Mul(it.R.value())
		if it.AccInit {
			r.acc = m
		} else {
			r.checkAccChain(it)
			r.acc = r.acc.Add(m)
		}
		v = r.acc
	case OpAccAdd:
		if it.AccInit {
			r.acc = l
		} else {
			r.checkAccChain(it)
			r.acc = r.acc.Add(l)
		}
		v = r.acc
	default:
		panic(fmt.Sprintf("%s: unknown op %s", r.Name(), it.Op))
	}
	if it.Op.usesAcc() {
		r.accOpen = !it.EndSB
		r.accSB = it.SubBlock
	}
	return v
}

// complete finishes the executing instruction: local consumers are
// satisfied immediately (§III-A: same-PE results are preserved locally),
// and any remaining dependents receive a data token — to the CPM for
// final outputs, onto the loop route for transient intermediates. The
// retired instruction's slot is freed.
func (r *RCU) complete(cycle int64) {
	s := r.exec
	it := &r.instrs.at(s).it
	r.exec = -1
	r.executed.Inc()
	// ALU-occupancy span: dispatch to completion.
	r.emitCompute(trace.KindRCUExec, cycle, r.execStart, 0)
	if !it.Emit {
		r.retire(s)
		return
	}
	r.emitted.Inc()
	r.emitCompute(trace.KindRCUEmit, cycle, cycle, 0)
	o := outToken{dst: it.Home, tok: DataToken{Dep: it.EmitDep, Dependents: it.Dependents, V: r.execVal}}
	toCPM := it.ToCPM
	r.retire(s)
	if toCPM {
		r.outQ.Push(o)
		return
	}
	if fills := r.deliver(o.tok.Dep, o.tok.V); fills > 0 {
		r.captured.Add(int64(fills))
		r.emitCompute(trace.KindRCUCapture, cycle, cycle, int32(fills))
		if tok := o.tok; int(tok.Dependents) < fills {
			panic(fmt.Sprintf("%s: local delivery over-consumed %s", r.Name(), &tok))
		}
		o.tok.Dependents -= uint16(fills)
	}
	if o.tok.Dependents > 0 {
		o.dst, o.loop = r.loop.Next(r.node), true
		r.outQ.Push(o)
	}
}

// checkAccChain guards the §III-D1 invariant: a non-initial accumulator
// instruction must continue the currently open chain.
func (r *RCU) checkAccChain(it *InstrToken) {
	if !r.accOpen || r.accSB != it.SubBlock {
		panic(fmt.Sprintf("%s: accumulator chain broken at %s (open=%v sb=%d)",
			r.Name(), it, r.accOpen, r.accSB))
	}
}

// removeSB retires an emptied sub-block slot, preserving the arrival
// order of the remaining active sub-blocks.
func (r *RCU) removeSB(si int32) {
	r.sbTab.Del(r.sbs.At(si).id)
	for i, s := range r.sbActive {
		if s == si {
			r.sbActive = append(r.sbActive[:i], r.sbActive[i+1:]...)
			break
		}
	}
	r.sbs.Free(si)
}

// emitCompute records one compute-track event when tracing is on.
func (r *RCU) emitCompute(k trace.Kind, cycle, start int64, aux int32) {
	if r.tr == nil {
		return
	}
	rec := trace.Instant(k, cycle, int32(r.node))
	rec.Start = start
	rec.Class = trace.ClassSnack
	rec.Aux = aux
	r.tr.Emit(rec)
}

// registerMetrics names the RCU's statistics in reg under the prefix
// "rcuN.".
func (r *RCU) registerMetrics(reg *stats.Registry) {
	p := fmt.Sprintf("rcu%d.", r.node)
	reg.AddCounter(p+"executed", &r.executed)
	reg.AddCounter(p+"captured", &r.captured)
	reg.AddCounter(p+"emitted", &r.emitted)
	reg.AddCounter(p+"stalls", &r.stallCount)
	reg.AddGauge(p+"buffer.max", func() float64 { return float64(r.maxBuffer) })
}
