package core

import (
	"snacknoc/internal/attrib"
	"snacknoc/internal/cache"
	"snacknoc/internal/fixed"
	"snacknoc/internal/mem"
	"snacknoc/internal/noc"
	"snacknoc/internal/stats"
)

// Checkpoint support. Kernel tokens are mutable (operand capture fills
// instruction references in place; dependent counts on data tokens are
// decremented), and one token can be referenced from several places at
// once — an RCU's sub-block queue and its waiting index, or a flit
// payload in flight. A TokenCloner deep-copies tokens under a single
// identity map so every alias in one snapshot (or restore) pass
// resolves to the same copy. Only live tokens are walked: the program a
// CPM is streaming is immutable, so a snapshot shares it by pointer and
// its size does not depend on the program's length.
//
// The state saved here follows the double-clone rule: SnapshotState
// clones live tokens into the snapshot, and every RestoreState clones
// the snapshot's tokens again into the platform, so one snapshot can be
// forked any number of times.
//
// The CPM's onDone callback is shared, not cloned: it closes over the
// submitter's state, which lives outside the platform. Pending memory
// completions are typed engine events naming the CPM itself (see
// cpmFetchDone), carried by the engine snapshot.

// TokenCloner deep-copies instruction and data tokens — and cache
// protocol messages, which are pool-recycled and so no longer safe to
// share between a snapshot and the live simulation — preserving
// aliasing within one pass. Values of any other type pass through
// unchanged.
type TokenCloner struct {
	seen map[any]any
}

// NewTokenCloner starts a fresh identity map. Use one cloner per
// snapshot pass and one per restore pass.
func NewTokenCloner() *TokenCloner {
	return &TokenCloner{seen: make(map[any]any)}
}

// Reset empties the identity map while keeping its buckets, so a cloner
// can serve as a reusable fork arena: repeated restore passes over the
// same snapshot pay for the map's working set once instead of
// re-growing it on every fork. The clones themselves are always fresh
// allocations — only the bookkeeping is recycled.
func (tc *TokenCloner) Reset() {
	clear(tc.seen)
}

// Clone copies a token, reusing the copy for repeated aliases. It is
// the payload-clone hook the noc snapshot takes.
func (tc *TokenCloner) Clone(v any) any {
	switch t := v.(type) {
	case *InstrToken:
		return tc.instr(t)
	case *DataToken:
		return tc.data(t)
	case *cache.Msg:
		return tc.Msg(t)
	default:
		return v
	}
}

// Msg deep-copies a cache protocol message under the identity map; the
// cache snapshot uses it for queued and in-flight envelopes.
func (tc *TokenCloner) Msg(m *cache.Msg) *cache.Msg {
	if m == nil {
		return nil
	}
	if c, ok := tc.seen[m]; ok {
		return c.(*cache.Msg)
	}
	cp := *m
	tc.seen[m] = &cp
	return &cp
}

func (tc *TokenCloner) instr(it *InstrToken) *InstrToken {
	if it == nil {
		return nil
	}
	if c, ok := tc.seen[it]; ok {
		return c.(*InstrToken)
	}
	cp := *it
	tc.seen[it] = &cp
	return &cp
}

func (tc *TokenCloner) data(d *DataToken) *DataToken {
	if d == nil {
		return nil
	}
	if c, ok := tc.seen[d]; ok {
		return c.(*DataToken)
	}
	cp := *d
	tc.seen[d] = &cp
	return &cp
}

func (tc *TokenCloner) datas(list []*DataToken) []*DataToken {
	if list == nil {
		return nil
	}
	out := make([]*DataToken, len(list))
	for i, d := range list {
		out[i] = tc.data(d)
	}
	return out
}

func (tc *TokenCloner) entry(e ProgEntry) ProgEntry {
	return ProgEntry{Instr: tc.instr(e.Instr), Data: tc.data(e.Data)}
}

func cloneResult(r *Result) *Result {
	if r == nil {
		return nil
	}
	return &Result{
		Values:     append([]fixed.Q(nil), r.Values...),
		StartCycle: r.StartCycle,
		DoneCycle:  r.DoneCycle,
	}
}

// sbSnap is one sub-block queue, saved in arrival order.
type sbSnap struct {
	id       uint32
	executed int
	instrs   []*InstrToken
}

// waitSnap is one dependency's waiting-instruction list.
type waitSnap struct {
	dep  DepID
	list []*InstrToken
}

// rcuState is one RCU's saved state. Its compute port belongs to the
// network and rides the network snapshot.
type rcuState struct {
	inbox   []inboxEntry
	sbs     []sbSnap
	waiting []waitSnap

	acc     fixed.Q
	accSB   uint32
	accOpen bool

	exec      *InstrToken
	execVal   fixed.Q
	busyUntil int64
	execStart int64

	outQ []outToken

	executed  stats.CounterState
	captured  stats.CounterState
	emitted   stats.CounterState
	stalls    stats.CounterState
	maxBuffer int
	attrib    attrib.CountersState
}

func (r *RCU) snapshot(tc *TokenCloner) rcuState {
	s := rcuState{
		acc:       r.acc,
		accSB:     r.accSB,
		accOpen:   r.accOpen,
		exec:      tc.instr(r.exec),
		execVal:   r.execVal,
		busyUntil: r.busyUntil,
		execStart: r.execStart,
		executed:  r.executed.State(),
		captured:  r.captured.State(),
		emitted:   r.emitted.State(),
		stalls:    r.stallCount.State(),
		maxBuffer: r.maxBuffer,
		attrib:    r.at.State(),
	}
	for _, e := range r.inbox {
		s.inbox = append(s.inbox, inboxEntry{it: tc.instr(e.it), stamp: e.stamp})
	}
	for _, si := range r.sbActive {
		sb := &r.sbSlots[si]
		qs := sbSnap{id: sb.id, executed: sb.executed}
		for n := sb.head; n >= 0; n = r.nodes[n].next {
			qs.instrs = append(qs.instrs, tc.instr(r.nodes[n].it))
		}
		s.sbs = append(s.sbs, qs)
	}
	for i, ok := range r.waitTab.live {
		if !ok {
			continue
		}
		ws := waitSnap{dep: DepID(r.waitTab.keys[i])}
		for n := r.waitSlots[r.waitTab.vals[i]].head; n >= 0; n = r.nodes[n].next {
			ws.list = append(ws.list, tc.instr(r.nodes[n].it))
		}
		s.waiting = append(s.waiting, ws)
	}
	for i := 0; i < r.outLen; i++ {
		o := r.outQ[(r.outHead+i)%len(r.outQ)]
		s.outQ = append(s.outQ, outToken{dst: o.dst, tok: tc.data(o.tok), loop: o.loop})
	}
	return s
}

func (r *RCU) restore(s rcuState, tc *TokenCloner) {
	r.inbox = r.inbox[:0]
	for _, e := range s.inbox {
		r.inbox = append(r.inbox, inboxEntry{it: tc.instr(e.it), stamp: e.stamp})
	}
	r.buffered = len(s.inbox)
	// Reset every flat structure, keeping its capacity, and rebuild
	// through the same insertion paths the live simulation uses so the
	// chain layout (and hence dispatch order) is reproduced exactly.
	r.nodes = r.nodes[:0]
	r.nodeFree = -1
	r.sbSlots = r.sbSlots[:0]
	r.sbFree = r.sbFree[:0]
	r.sbActive = r.sbActive[:0]
	r.sbTab.reset()
	r.waitSlots = r.waitSlots[:0]
	r.waitFree = r.waitFree[:0]
	r.waitTab.reset()
	for _, qs := range s.sbs {
		sb := r.sbFor(qs.id)
		sb.executed = qs.executed
		for _, it := range qs.instrs {
			r.sbInsert(sb, tc.instr(it))
		}
		r.buffered += len(qs.instrs)
	}
	for _, ws := range s.waiting {
		for _, it := range ws.list {
			r.waitAdd(ws.dep, tc.instr(it))
		}
	}
	r.acc, r.accSB, r.accOpen = s.acc, s.accSB, s.accOpen
	r.exec = tc.instr(s.exec)
	r.execVal = s.execVal
	r.busyUntil = s.busyUntil
	r.execStart = s.execStart
	for i := range r.outQ {
		r.outQ[i] = outToken{}
	}
	r.outHead, r.outLen = 0, 0
	for _, o := range s.outQ {
		r.outPush(outToken{dst: o.dst, tok: tc.data(o.tok), loop: o.loop})
	}
	r.executed.Restore(s.executed)
	r.captured.Restore(s.captured)
	r.emitted.Restore(s.emitted)
	r.stallCount.Restore(s.stalls)
	r.maxBuffer = s.maxBuffer
	r.at.Restore(s.attrib)
}

// cpmState is one manager's saved state, including its private memory
// channel. prog is the shared immutable program; the entries already
// fetched live on as tokens in instrBuf, the network and the RCUs.
// onDone is shared with the live CPM: it belongs to whoever submitted
// the kernel, and a fork re-fires it when the fork finishes.
type cpmState struct {
	staged *ProgEntry

	state      KernelState
	prog       *Program
	onDone     func(*Result)
	result     *Result
	fetched    int
	inflight   int
	instrBuf   []ProgEntry
	issuedIdx  int
	resultsGot int
	writesOut  int
	pendingWB  int

	offload        []*DataToken
	offloadPending [][]*DataToken
	offloadMem     []*DataToken
	reinjecting    bool

	issued      stats.CounterState
	offloaded   stats.CounterState
	reinjected  stats.CounterState
	busyReplies stats.CounterState
	congestedCy stats.CounterState

	alo      noc.ALODetectorState
	snackALO noc.SnackALOState
	mem      mem.ControllerState
	attrib   attrib.CountersState
}

func (c *CPM) snapshot(tc *TokenCloner) cpmState {
	s := cpmState{
		state:       c.state,
		prog:        c.prog,
		onDone:      c.onDone,
		result:      cloneResult(c.result),
		fetched:     c.fetched,
		inflight:    c.inflight,
		issuedIdx:   c.issuedIdx,
		resultsGot:  c.resultsGot,
		writesOut:   c.writesOut,
		pendingWB:   c.pendingWB,
		offload:     tc.datas(c.offload),
		offloadMem:  tc.datas(c.offloadMem),
		reinjecting: c.reinjecting,
		issued:      c.issued.State(),
		offloaded:   c.offloaded.State(),
		reinjected:  c.reinjected.State(),
		busyReplies: c.busyReplies.State(),
		congestedCy: c.congestedCy.State(),
		alo:         c.alo.State(),
		snackALO:    c.snackALO.State(),
		mem:         c.mem.State(),
		attrib:      c.at.State(),
	}
	if c.staged != nil {
		e := tc.entry(*c.staged)
		s.staged = &e
	}
	for i := 0; i < c.instrLen; i++ {
		s.instrBuf = append(s.instrBuf, tc.entry(c.instrBuf[(c.instrHead+i)%len(c.instrBuf)]))
	}
	for _, b := range c.offloadPending {
		s.offloadPending = append(s.offloadPending, tc.datas(b))
	}
	return s
}

func (c *CPM) restore(s cpmState, tc *TokenCloner) {
	c.staged = nil
	if s.staged != nil {
		c.stagedBuf = tc.entry(*s.staged)
		c.staged = &c.stagedBuf
	}
	c.state = s.state
	c.prog = s.prog
	c.onDone = s.onDone
	c.result = cloneResult(s.result)
	c.fetched = s.fetched
	c.inflight = s.inflight
	for i := range c.instrBuf {
		c.instrBuf[i] = ProgEntry{}
	}
	c.instrHead, c.instrLen = 0, 0
	for _, e := range s.instrBuf {
		c.bufPush(tc.entry(e))
	}
	c.issuedIdx = s.issuedIdx
	c.resultsGot = s.resultsGot
	c.writesOut = s.writesOut
	c.pendingWB = s.pendingWB
	c.offload = append(c.offload[:0], tc.datas(s.offload)...)
	c.offloadPending = c.offloadPending[:0]
	for _, b := range s.offloadPending {
		c.offloadPending = append(c.offloadPending, tc.datas(b))
	}
	c.offloadMem = append(c.offloadMem[:0], tc.datas(s.offloadMem)...)
	c.reinjecting = s.reinjecting
	c.issued.Restore(s.issued)
	c.offloaded.Restore(s.offloaded)
	c.reinjected.Restore(s.reinjected)
	c.busyReplies.Restore(s.busyReplies)
	c.congestedCy.Restore(s.congestedCy)
	c.alo.Restore(s.alo)
	c.snackALO.Restore(s.snackALO)
	c.mem.Restore(s.mem)
	c.at.Restore(s.attrib)
}

// PlatformState is the whole SnackNoC's saved state: every RCU and
// every CPM (with its memory channel), and the cycle it was taken at.
// The network and engine are saved separately by internal/checkpoint.
// The RCU groups' runnable sets are not saved: a snapshot is settled, so
// which RCUs are parked, and since when, follows from the RCUs and the
// cycle.
type PlatformState struct {
	cycle int64
	rcus  []rcuState
	cpms  []cpmState
}

// SnapshotState captures the platform's compute layer. The cloner must
// be the same one passed to the network snapshot of the same pass, so
// tokens in flight stay aliased with tokens buffered in RCUs and CPMs.
func (p *Platform) SnapshotState(tc *TokenCloner) *PlatformState {
	// A restore re-derives who is parked from the snapshot cycle on, so
	// what parked RCUs are owed before it is paid now (a no-op right after
	// Run or RunUntil, which settle).
	for _, r := range p.RCUs {
		if r.Parked() {
			r.payParked()
		}
	}
	s := &PlatformState{
		cycle: p.RCUs[0].g.turn,
		rcus:  make([]rcuState, len(p.RCUs)),
		cpms:  make([]cpmState, len(p.CPMs)),
	}
	for i, r := range p.RCUs {
		s.rcus[i] = r.snapshot(tc)
	}
	for i, c := range p.CPMs {
		s.cpms[i] = c.snapshot(tc)
	}
	return s
}

// RestoreState writes a saved state back onto the same platform, again
// sharing the cloner with the network restore of the same pass.
func (p *Platform) RestoreState(s *PlatformState, tc *TokenCloner) {
	for i, r := range p.RCUs {
		r.restore(s.rcus[i], tc)
		r.g.turn = s.cycle
		if r.parkable() {
			r.g.runnable.Remove(i)
			r.parkedFrom = s.cycle
		} else {
			r.g.runnable.Add(i)
		}
	}
	for i, c := range p.CPMs {
		c.restore(s.cpms[i], tc)
	}
}
