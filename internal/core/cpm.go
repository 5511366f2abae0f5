package core

import (
	"fmt"

	"snacknoc/internal/attrib"
	"snacknoc/internal/fixed"
	"snacknoc/internal/flat"
	"snacknoc/internal/mem"
	"snacknoc/internal/noc"
	"snacknoc/internal/stats"
	"snacknoc/internal/trace"
)

// KernelState is the CPM's kernel execution state (§III-C).
type KernelState int

// Kernel states.
const (
	StateIdle KernelState = iota
	StateLoading
	StateRunning
	StateDone
)

// String names the state.
func (s KernelState) String() string {
	return [...]string{"idle", "loading", "running", "done"}[s]
}

// CPMConfig places and tunes the Central Packet Manager.
type CPMConfig struct {
	Node noc.NodeID
	// FetchAhead is the number of outstanding 64 B command-stream reads.
	FetchAhead int
	// ALOThreshold is the free-VC floor below which the CPM treats the
	// NoC as congested (§III-C2).
	ALOThreshold int
	// SnackALOThreshold is the free snack-VC floor below which the CPM
	// vacuums transient tokens off the loop into the offload buffer.
	SnackALOThreshold int
}

// The CPM's fixed sizing.
const (
	// instrBufCap bounds the instruction buffer; the paper sizes it
	// against the peak rate values stream from a two-rank DDR3 (§III-C1).
	instrBufCap = 512
	// entriesPerTxn is how many command-stream entries one DDR3
	// transaction carries (64 B / 16 B instruction).
	entriesPerTxn = 4
	// aloHysteresis holds both congestion detectors' state.
	aloHysteresis = 32
	// offloadBufFlits is the Offload Data Memory Buffer capacity: four
	// flits, one DDR3 64 B transaction (§III-C2).
	offloadBufFlits = 4
	// resultBatch is how many results share one write-back transaction.
	resultBatch = 4
	// progBase is the command buffer's physical base address, far from
	// any cache-substrate address.
	progBase uint64 = 1 << 40
)

// DefaultCPMConfig returns the paper's sizing at the given node.
func DefaultCPMConfig(node noc.NodeID) CPMConfig {
	return CPMConfig{
		Node:              node,
		FetchAhead:        48,
		ALOThreshold:      6,
		SnackALOThreshold: 1,
	}
}

// CPM is the Central Packet Manager (§III-C): it streams the compiled
// kernel from main memory, assembles and issues instruction flits at one
// per cycle, throttles against NoC congestion, spills transient tokens to
// memory under overflow, collects final results, and writes them back.
//
// The CPM holds no pooled token: its instruction buffer names program
// entries by index, an entry is assembled into a token only as it is
// staged or sent, and spilled tokens are kept by value. A checkpoint
// copies cpmState and the memory channel's ControllerState.
type CPM struct {
	cfg  CPMConfig
	net  *noc.Network
	mem  *mem.Controller
	loop *noc.LoopRoute
	// port is the CPM's own connection into its router (Fig 5 shows the
	// CPM attached beside the router, not behind the node's network
	// interface). It shares the compute input port with the co-located
	// RCU so instruction issue never serializes against the memory
	// controller's response traffic at the node's NI.
	port *noc.InjectPort
	pool *TokenPool // its platform's; the Platform wires it

	// nsBase is this CPM's namespace, OR-ed into every dependency and
	// sub-block ID it issues (see assemble).
	nsBase DepID
	// validated is the program that last passed Admit (the fig9/fig12
	// pattern resubmits one immutable program many times).
	validated *Program

	// tr records scheduling decisions; nil disables tracing.
	tr *trace.Tracer

	cpmState
}

// cpmState is a CPM's mutable state: the instruction buffer, the kernel's
// result so far, the overflow path of §III-C2 (every token by value) and
// the scalars. A checkpoint takes and restores it with copyFrom.
type cpmState struct {
	instrBuf flat.Ring[int32] // fetched, unstaged entries of prog, by index
	result   *Result

	offload []DataToken // captured into the Offload Data Memory Buffer
	// offloadPending holds flushed batches whose memory write is still in
	// flight, oldest first; the write completion (cpmOffloadDone) moves
	// the front batch on.
	offloadPending []DataToken
	offloadMem     []DataToken // parked in main memory, next to re-inject first

	cpmScalars
}

// staged values other than an instruction's index in prog.Ops.
const (
	stageNone = -1 // nothing awaits injection
	stageData = -2 // the data token in stagedTok does
)

// cpmScalars is a CPM's mutable state outside its buffers; a checkpoint
// copies it whole.
type cpmScalars struct {
	// prog is the submitted program itself — immutable and shared, never
	// a copy; entries become private tokens as they are sent. onDone is
	// the submitter's callback.
	prog   *Program
	onDone func(*Result)

	// The congestion detectors hold their router and thresholds beside
	// their state; a copy over the same CPM leaves those as they were.
	alo      noc.ALODetector
	snackALO noc.SnackALODetector

	state KernelState
	// staged is what Advance injects next: an instruction of prog, by its
	// Ops index, assembled as it is sent, or stageData for stagedTok — an
	// input token assembled when it was staged, or a spilled token on its
	// way back.
	staged      int32
	stagedTok   DataToken
	fetched     int // entries whose memory read has been issued
	inflight    int // outstanding command-stream transactions
	resultsGot  int
	writesOut   int  // outstanding result write-backs
	pendingWB   int  // results not yet grouped into a write-back
	reinjecting bool // alternate offload/instruction issue

	issued      stats.Counter
	offloaded   stats.Counter
	reinjected  stats.Counter
	busyReplies stats.Counter
	congestedCy stats.Counter
	attrib      attrib.Counts // one reason per cycle
}

// NewCPM builds the manager. Attach it at its node (as the NI client and,
// together with the node's RCU, as the router compute hook) before
// running; the Platform does this wiring.
func NewCPM(cfg CPMConfig, net *noc.Network, ctrl *mem.Controller) *CPM {
	c := &CPM{
		cfg:    cfg,
		net:    net,
		mem:    ctrl,
		nsBase: (DepID(cfg.Node) + 1) * nsLimit,
		loop:   net.Loop(),
		cpmState: cpmState{
			// refill keeps the buffer under instrBufCap entries counting the
			// reads in flight, so one transaction past it never overflows.
			instrBuf: flat.RingOver(make([]int32, instrBufCap+entriesPerTxn)),
		},
	}
	c.reset()
	return c
}

// reset writes the CPM's built state: no kernel, nothing buffered,
// staged or spilled, detectors that have seen no congestion and zeroed
// counts. NewCPM runs it once and a platform Reset again; the memory
// channel is reset beside it.
func (c *CPM) reset() {
	r := c.net.Router(c.cfg.Node)
	c.instrBuf.Clear()
	c.result = nil
	c.offload, c.offloadPending, c.offloadMem = c.offload[:0], c.offloadPending[:0], c.offloadMem[:0]
	c.cpmScalars = cpmScalars{
		alo:      *noc.NewALODetector(r, c.cfg.ALOThreshold, aloHysteresis),
		snackALO: *noc.NewSnackALODetector(r, c.loop.Next(c.cfg.Node), c.cfg.SnackALOThreshold, aloHysteresis),
		staged:   stageNone,
	}
}

// SetPort installs the router injection port; the Platform wires it.
func (c *CPM) SetPort(p *noc.InjectPort) { c.port = p }

// Name implements sim.Component.
func (c *CPM) Name() string { return fmt.Sprintf("cpm%d", c.cfg.Node) }

// Node returns the CPM's mesh node.
func (c *CPM) Node() noc.NodeID { return c.cfg.Node }

// State returns the kernel execution state.
func (c *CPM) State() KernelState { return c.state }

// Busy reports whether a kernel occupies the platform; the runtime's
// lock acquisition spins on this (§IV-C).
func (c *CPM) Busy() bool { return c.state == StateLoading || c.state == StateRunning }

// Issued returns the number of command-stream entries issued to the NoC.
func (c *CPM) Issued() int64 { return c.issued.Value() }

// Offloaded returns tokens spilled to memory under congestion.
func (c *CPM) Offloaded() int64 { return c.offloaded.Value() }

// CongestedCycles counts cycles the ALO detector reported congestion.
func (c *CPM) CongestedCycles() int64 { return c.congestedCy.Value() }

// Admit validates p, and checks that every sub-block maps into this
// CPM's mesh, unless it is the program this CPM admitted last; programs
// are immutable, so once is enough.
func (c *CPM) Admit(p *Program) error {
	if c.validated == p {
		return nil
	}
	if err := p.Validate(); err != nil {
		return err
	}
	if err := p.checkMesh(c.net.Cfg().Nodes()); err != nil {
		return err
	}
	c.validated = p
	return nil
}

// Submit starts a kernel. It returns false (a "busy response") if one is
// already loading or running. onDone fires when all results are in main
// memory. An invalid program panics; Admit it first to get the error
// instead, as Platform.Run does.
func (c *CPM) Submit(p *Program, cycle int64, onDone func(*Result)) bool {
	if c.Busy() {
		c.busyReplies.Inc()
		return false
	}
	if err := c.Admit(p); err != nil {
		panic(fmt.Sprintf("cpm: invalid program: %v", err))
	}
	// The program is streamed, not copied: the instruction buffer holds
	// entry indices, and each entry becomes a private pooled token only
	// as the CPM sends it, so live tokens are bounded by what is in the
	// network.
	c.prog = p
	c.onDone = onDone
	c.state = StateLoading
	c.fetched = 0
	c.inflight = 0
	c.instrBuf.Clear()
	c.resultsGot = 0
	c.writesOut = 0
	c.pendingWB = 0
	c.offload = c.offload[:0]
	c.offloadMem = c.offloadMem[:0]
	c.staged = stageNone
	c.result = &Result{
		Values:     make([]fixed.Q, p.NumOutputs),
		StartCycle: cycle,
	}
	if c.tr != nil {
		rec := trace.Instant(trace.KindCPMSubmit, cycle, int32(c.cfg.Node))
		rec.Class = trace.ClassSnack
		rec.Aux = int32(len(c.prog.Entries))
		c.tr.Emit(rec)
	}
	return true
}

// assemble builds in it the private, executable token of instruction i,
// as the paper's CPM assembles an instruction flit from the values DDR3
// returns (§III-C1): the op and its sub-block's shared fields
// (Program.Token), which execution then fills in place. The token is
// stamped with this CPM's identity: its node as the result home, and its
// namespace on dependency and sub-block IDs (Program.Validate keeps those
// below nsLimit) so concurrently executing kernels from decentralized
// CPMs (§VII) can never alias each other's tokens at the RCUs. An input
// token is stamped the same way as it is staged (see Evaluate).
func (c *CPM) assemble(it *InstrToken, i int32) {
	*it = c.prog.Token(int(i))
	it.Home = c.cfg.Node
	it.SubBlock |= uint32(c.nsBase)
	if it.L.IsRef {
		it.L.Dep |= c.nsBase
	}
	if it.R.IsRef {
		it.R.Dep |= c.nsBase
	}
	if it.Emit {
		it.EmitDep |= c.nsBase
	}
}

// Evaluate implements sim.Component: refill the instruction buffer from
// memory, and stage one flit per cycle for issue subject to congestion
// control.
func (c *CPM) Evaluate(cycle int64) {
	if !c.Busy() {
		c.attrib.Inc(attrib.CPMIdle)
		return
	}
	c.port.Update(cycle)
	c.refill(cycle)
	if c.staged != stageNone {
		c.attrib.Inc(attrib.CPMThrottled)
		return // a previous entry is still waiting for a buffer slot
	}
	congested := c.alo.Congested(cycle)
	if congested {
		c.congestedCy.Inc()
		if c.tr != nil {
			rec := trace.Instant(trace.KindCPMThrottle, cycle, int32(c.cfg.Node))
			rec.Class = trace.ClassSnack
			c.tr.Emit(rec)
		}
	} else if len(c.offload) > 0 {
		// Congestion has passed with a partial offload buffer: release
		// the stragglers so their dependents are never stranded.
		c.FlushOffload()
	}
	if congested || !c.port.CanSend() {
		c.attrib.Inc(attrib.CPMThrottled)
		return // hold issue this cycle
	}
	// Alternate between re-injecting spilled tokens and fresh
	// instructions once resources free up (§III-C2).
	if c.reinjecting && len(c.offloadMem) > 0 {
		c.stagedTok, c.staged = c.offloadMem[0], stageData
		c.offloadMem = c.offloadMem[1:]
		c.reinjected.Inc()
		c.reinjecting = false
		c.attrib.Inc(attrib.CPMIssue)
		return
	}
	c.reinjecting = true
	if c.instrBuf.Len() == 0 {
		// Resources were free but the program has nothing left to stage:
		// the CPM is drained, waiting only on in-flight completions.
		c.attrib.Inc(attrib.CPMDrained)
		return
	}
	c.staged = int32(c.prog.Entries[c.instrBuf.Pop()])
	if c.staged < 0 {
		c.stagedTok, c.staged = c.prog.Datas[^c.staged], stageData
		c.stagedTok.Dep |= c.nsBase
	}
	c.attrib.Inc(attrib.CPMIssue)
}

// Advance injects the staged entry through the CPM's router port at the
// paper's one-flit-per-cycle rate, minting its token as the port takes
// it.
func (c *CPM) Advance(cycle int64) {
	if c.staged == stageNone || !c.port.CanSend() {
		return
	}
	if c.staged == stageData {
		d := c.pool.data.Get()
		*d = c.stagedTok
		c.port.Send(c.loop.Next(c.cfg.Node), d, true, cycle)
	} else {
		it := c.pool.instr.Get()
		c.assemble(it, c.staged)
		c.port.Send(it.Dst, it, false, cycle)
	}
	c.staged = stageNone
	c.issued.Inc()
	if c.tr != nil {
		rec := trace.Instant(trace.KindCPMIssue, cycle, int32(c.cfg.Node))
		rec.Class = trace.ClassSnack
		c.tr.Emit(rec)
	}
}

// refill streams the command buffer from main memory in 64 B
// transactions, each carrying entriesPerTxn entries (§III-C1).
func (c *CPM) refill(cycle int64) {
	total := len(c.prog.Entries)
	for c.inflight < c.cfg.FetchAhead &&
		c.fetched < total &&
		c.instrBuf.Len()+c.inflight*entriesPerTxn < instrBufCap {
		lo := c.fetched
		hi := lo + entriesPerTxn
		if hi > total {
			hi = total
		}
		c.fetched = hi
		c.inflight++
		addr := progBase + uint64(lo*InstrBytes)
		c.mem.AccessCall(addr, false, (*cpmFetchDone)(c), int64(lo))
	}
}

// The CPM's three memory completions are typed engine events, not
// closures: each is the CPM itself under a distinct named type, so
// filing one allocates nothing and a checkpoint carries it by value.
type (
	cpmFetchDone   CPM // arg: index of the transaction's first entry
	cpmWriteDone   CPM
	cpmOffloadDone CPM
)

// OnCall implements sim.Callee: the command-stream transaction that
// starts at entry lo has returned from DDR3; its entries join the
// instruction buffer.
func (f *cpmFetchDone) OnCall(lo, _ int64) {
	c := (*CPM)(f)
	c.inflight--
	hi := min(int(lo)+entriesPerTxn, len(c.prog.Entries))
	for i := int32(lo); i < int32(hi); i++ {
		c.instrBuf.Push(i)
	}
	if c.state == StateLoading {
		c.state = StateRunning
	}
}

// OnCall implements sim.Callee: one result write-back was accepted.
func (w *cpmWriteDone) OnCall(_, cycle int64) {
	c := (*CPM)(w)
	c.writesOut--
	c.maybeFinish(cycle)
}

// OnCall implements sim.Callee: the oldest flushed offload batch, of n
// tokens, is in main memory. DDR3 completions for one address come back
// in issue order, so the front of offloadPending is the batch that
// landed.
func (o *cpmOffloadDone) OnCall(n, _ int64) {
	c := (*CPM)(o)
	c.offloadMem = append(c.offloadMem, c.offloadPending[:n]...)
	c.offloadPending = c.offloadPending[:copy(c.offloadPending, c.offloadPending[n:])]
}

// Deliver implements noc.Client for the CPM's node: final result tokens
// are collected into the output FIFO and written back to main memory in
// batches (§III-C).
func (c *CPM) Deliver(p *noc.Packet, cycle int64) {
	tok, ok := p.Payload.(*DataToken)
	if !ok {
		panic(fmt.Sprintf("cpm: unexpected packet payload %T", p.Payload))
	}
	// XOR strips this CPM's namespace; a token stamped by another CPM
	// keeps high bits set and so matches no slot.
	slot, ok := c.prog.OutputSlot[tok.Dep^c.nsBase]
	if !ok {
		panic(fmt.Sprintf("cpm: result token %s has no output slot", tok))
	}
	c.result.Values[slot] = tok.V
	c.pool.data.Put(tok) // the result is recorded; the token is consumed
	c.resultsGot++
	c.pendingWB++
	if c.pendingWB >= resultBatch || c.resultsGot == c.prog.NumOutputs {
		c.pendingWB = 0
		c.writesOut++
		addr := progBase + uint64(1<<20) + uint64(slot*4)
		c.mem.AccessCall(addr, true, (*cpmWriteDone)(c), 0)
	}
}

func (c *CPM) maybeFinish(cycle int64) {
	if c.state != StateRunning || c.resultsGot < c.prog.NumOutputs ||
		c.writesOut > 0 || c.pendingWB > 0 {
		return
	}
	c.state = StateDone
	c.result.DoneCycle = cycle
	if c.tr != nil {
		// Kernel-lifetime span: submission to final write-back.
		rec := trace.Instant(trace.KindCPMFinish, cycle, int32(c.cfg.Node))
		rec.Start = c.result.StartCycle
		rec.Class = trace.ClassSnack
		c.tr.Emit(rec)
	}
	if c.onDone != nil {
		c.onDone(c.result)
	}
	c.state = StateIdle
}

// InstrBufLen returns the fetched-but-unstaged entry count (debug).
func (c *CPM) InstrBufLen() int { return c.instrBuf.Len() }

// Fetched returns how many command-stream entries have had their memory
// read issued; below the program's length the kernel is mid-stream.
func (c *CPM) Fetched() int { return c.fetched }

// Inflight returns outstanding command-stream fetches (debug).
func (c *CPM) Inflight() int { return c.inflight }

// WantsOverflowCapture reports whether the CPM is currently vacuuming
// transient tokens off the loop: the snack virtual network itself has
// run out of resources for the tokens in flight (§III-C2: "the number of
// instruction packets enqueued onto the NoC exceeds the threshold for
// NoC resources"). Communication-side congestion does not trigger
// capture — snack flits cannot displace communication flits under the
// priority arbiter, so spilling them would only add memory round-trips.
func (c *CPM) WantsOverflowCapture(cycle int64) bool {
	return c.Busy() && c.snackALO.Congested(cycle)
}

// CaptureOverflow copies one transient token into the Offload Data
// Memory Buffer, consuming it off the loop; a full buffer flushes to main
// memory as one 64 B transaction.
func (c *CPM) CaptureOverflow(tok *DataToken, cycle int64) {
	c.offload = append(c.offload, *tok)
	c.pool.data.Put(tok)
	c.offloaded.Inc()
	if n := len(c.offload); n >= offloadBufFlits {
		c.offloadPending = append(c.offloadPending, c.offload...)
		c.offload = c.offload[:0]
		addr := progBase + uint64(2<<20)
		c.mem.AccessCall(addr, true, (*cpmOffloadDone)(c), int64(n))
	}
}

// FlushOffload drains any partial offload buffer back into circulation
// (used at quiesce points so no token is stranded).
func (c *CPM) FlushOffload() {
	c.offloadMem = append(c.offloadMem, c.offload...)
	c.offload = c.offload[:0]
}

// registerMetrics names the CPM's statistics in reg under the prefix
// "cpmN.".
func (c *CPM) registerMetrics(reg *stats.Registry) {
	p := fmt.Sprintf("cpm%d.", c.cfg.Node)
	reg.AddCounter(p+"issued", &c.issued)
	reg.AddCounter(p+"offloaded", &c.offloaded)
	reg.AddCounter(p+"reinjected", &c.reinjected)
	reg.AddCounter(p+"busy.replies", &c.busyReplies)
	reg.AddCounter(p+"congested.cycles", &c.congestedCy)
}
