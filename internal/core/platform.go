package core

import (
	"fmt"

	"snacknoc/internal/attrib"
	"snacknoc/internal/cache"
	"snacknoc/internal/flat"
	"snacknoc/internal/mem"
	"snacknoc/internal/noc"
	"snacknoc/internal/sim"
	"snacknoc/internal/stats"
	"snacknoc/internal/trace"
)

// nodeAttachment composes the per-router compute hook at the CPM's node,
// where both an RCU and the CPM's overflow logic inspect arriving snack
// flits (§III-C2: "all data tokens that pass through the CPM are
// collected in the Offload Data Memory Buffer" while congested).
type nodeAttachment struct {
	rcu *RCU
	cpm *CPM
}

// OnArrival implements noc.ComputeUnit.
func (a *nodeAttachment) OnArrival(f *noc.Flit, cycle int64) bool {
	if a.rcu.OnArrival(f, cycle) {
		return true
	}
	if a.cpm != nil && f.Loop {
		if tok, ok := f.Payload.(*DataToken); ok && a.cpm.WantsOverflowCapture(cycle) {
			a.cpm.CaptureOverflow(tok, cycle)
			return true
		}
	}
	return false
}

// DrainLoopFlit implements noc.LoopDrainer: buffered loop tokens at the
// CPM's router are absorbed into the overflow path when the snack vnet
// is saturated, which is the only way a fully wedged token ring can
// unwind (no flit is in flight to reach OnArrival).
func (a *nodeAttachment) DrainLoopFlit(f *noc.Flit, cycle int64) bool {
	if a.cpm == nil || !f.Loop {
		return false
	}
	tok, ok := f.Payload.(*DataToken)
	if !ok || !a.cpm.WantsOverflowCapture(cycle) {
		return false
	}
	a.cpm.CaptureOverflow(tok, cycle)
	return true
}

// PlatformConfig assembles a SnackNoC platform.
type PlatformConfig struct {
	CPM CPMConfig
	// ShareMemChannel makes the CPM compete with CMP cache traffic for
	// the memory controller at its node instead of using the dedicated
	// channel of the paper's pinned SnackNoC memory region (§IV-C1).
	// Command-buffer streaming runs near full channel bandwidth, so
	// sharing is an ablation, not the default.
	ShareMemChannel bool
}

// DefaultPlatformConfig places the CPM at node 0 (a corner
// memory-controller node, §III-C: "The CPM is located on a memory
// controller to benefit from low-latency accesses").
func DefaultPlatformConfig() PlatformConfig {
	return PlatformConfig{CPM: DefaultCPMConfig(0)}
}

// Platform is a complete SnackNoC: one RCU per router plus one or more
// CPMs, attached to a snack-enabled mesh. The single-CPM configuration
// is the paper's evaluated design; multiple CPMs implement its §VII
// decentralization proposal ("a CPM would be placed within each memory
// controller module operating in parallel").
type Platform struct {
	Eng  *sim.Engine
	Net  *noc.Network
	RCUs []*RCU
	// CPM is the primary manager (CPMs[0]).
	CPM *CPM
	// CPMs lists every manager, one per configured node.
	CPMs []*CPM
	Mem  *mem.Controller

	group rcuGroup // steps every RCU
}

// NewStandalone builds a zero-load platform (the Fig 9 measurement
// context: "kernel completion latency, in cycles, under a zero-load
// NoC"): a fresh snack-enabled mesh with nothing but the SnackNoC
// attached, and a private DDR3 channel for the CPM.
func NewStandalone(eng *sim.Engine, width, height int, priority bool, cfg PlatformConfig) (*Platform, error) {
	return NewStandaloneOn(eng, noc.SnackPlatform(width, height, priority), cfg)
}

// NewStandaloneOn is NewStandalone over an explicit mesh configuration
// (it must carry a snack vnet and compute ports — see
// noc.SnackPlatformCustom). The DSE driver uses it to sweep router
// resources.
func NewStandaloneOn(eng *sim.Engine, nc *noc.Config, cfg PlatformConfig) (*Platform, error) {
	return newStandalone(eng, nc, []CPMConfig{cfg.CPM})
}

// NewStandaloneMulti builds a zero-load platform with a decentralized
// CPM at every listed node (§VII: "a CPM would be placed within each
// memory controller module operating in parallel"), each with its own
// DDR3 channel. Concurrent kernels are namespaced per CPM, so they share
// the RCUs and the transient-token loop safely.
func NewStandaloneMulti(eng *sim.Engine, width, height int, priority bool, nodes []noc.NodeID) (*Platform, error) {
	cpms := make([]CPMConfig, len(nodes))
	for i, n := range nodes {
		cpms[i] = DefaultCPMConfig(n)
	}
	return newStandalone(eng, noc.SnackPlatform(width, height, priority), cpms)
}

// newStandalone is every standalone builder: a fresh network for nc, one
// private memory channel per CPM, the SnackNoC attached, and each CPM as
// its node's NI client (there is no cache substrate).
func newStandalone(eng *sim.Engine, nc *noc.Config, cpms []CPMConfig) (*Platform, error) {
	if len(cpms) == 0 {
		return nil, fmt.Errorf("core: no CPM nodes given")
	}
	for _, cc := range cpms {
		if err := checkCPMNode(nc, cc.Node); err != nil {
			return nil, err
		}
	}
	net, err := noc.New(eng, nc)
	if err != nil {
		return nil, err
	}
	p, err := attach(eng, net, cpms, nil)
	if err != nil {
		return nil, err
	}
	for _, cpm := range p.CPMs {
		net.AttachClient(cpm.Node(), cpm)
	}
	return p, nil
}

// checkCPMNode rejects a CPM node outside the mesh, before anything
// indexes a per-node table with it.
func checkCPMNode(nc *noc.Config, node noc.NodeID) error {
	if int(node) < 0 || int(node) >= nc.Nodes() {
		return fmt.Errorf("core: CPM node %d outside mesh", node)
	}
	return nil
}

// attach builds the SnackNoC on an existing snack-enabled network: RCUs
// at every node and one CPM at each configured node. A CPM streams its
// commands and overflow through ctrl or, when ctrl is nil, through a
// private DDR3 channel of its own. It registers the RCU group and the
// CPMs on eng, which drives the whole net. The caller routes
// the snack packets ejected at each CPM node to that CPM.
func attach(eng *sim.Engine, net *noc.Network, cpms []CPMConfig, ctrl *mem.Controller) (*Platform, error) {
	nc := net.Cfg()
	if nc.SnackVNet < 0 || !nc.ComputePort {
		return nil, fmt.Errorf("core: network %q lacks a snack vnet or compute ports", nc.Name)
	}
	p := &Platform{
		Eng:  eng,
		Net:  net,
		RCUs: make([]*RCU, nc.Nodes()),
	}
	byNode := make(map[noc.NodeID]*CPM, len(cpms))
	for _, cc := range cpms {
		if err := checkCPMNode(nc, cc.Node); err != nil {
			return nil, err
		}
		if _, dup := byNode[cc.Node]; dup {
			return nil, fmt.Errorf("core: two CPMs at node %d", cc.Node)
		}
		// The platform is attached before the network runs, while every VC
		// is free, so this is the most the CPM's router can ever offer: a
		// higher floor would hold issue forever.
		if free := net.Router(cc.Node).FreeOutputVCs(); cc.ALOThreshold > free {
			return nil, fmt.Errorf("core: CPM at node %d has ALO threshold %d, but its router offers at most %d free communication VCs",
				cc.Node, cc.ALOThreshold, free)
		}
		mc := ctrl
		if mc == nil {
			var err error
			if mc, err = mem.New(eng, mem.DefaultConfig()); err != nil {
				return nil, err
			}
		}
		cpm := NewCPM(cc, net, mc)
		byNode[cc.Node] = cpm
		p.CPMs = append(p.CPMs, cpm)
	}
	p.CPM, p.Mem = p.CPMs[0], p.CPMs[0].mem
	// Every RCU and CPM draws its tokens from one pool and the group steps
	// the RCUs; the group and the CPMs are the components eng reserves.
	eng.Reserve(1 + len(cpms))
	pool := new(TokenPool)
	rcus := newRCUs(nc.Nodes(), p.CPM.Node())
	p.group = rcuGroup{rcus: rcus, runnable: make(flat.IndexSet, (len(rcus)+63)/64)}
	for i := range rcus {
		node := noc.NodeID(i)
		rcu := &rcus[i]
		var hook noc.ComputeUnit = rcu
		if cpm := byNode[node]; cpm != nil {
			hook = &nodeAttachment{rcu: rcu, cpm: cpm}
		}
		port := net.AttachCompute(node, hook)
		rcu.SetPort(port)
		rcu.pool = pool
		if cpm := byNode[node]; cpm != nil {
			// A CPM shares its router's compute port with the local RCU
			// (Fig 5): instruction issue enters the crossbar directly
			// rather than competing with memory traffic at the NI.
			cpm.SetPort(port)
		}
		p.RCUs[i] = rcu
		rcu.g, rcu.instrs = &p.group, &p.group.instrs
	}
	p.init()
	eng.Register(&p.group)
	for _, cpm := range p.CPMs {
		cpm.pool = pool
		eng.Register(cpm)
	}
	return p, nil
}

// init writes the RCUs' built state: an empty instruction slab and
// every RCU empty and parked from the engine's current cycle. attach
// runs it once and Reset again, so a built platform and a reset one come
// from the same code, as NewCPM's state and a reset CPM's do.
func (p *Platform) init() {
	g := &p.group
	clear(g.runnable)
	g.instrs.n, g.instrs.free = 0, -1
	g.turn = p.Eng.Cycle()
	for i := range g.rcus {
		r := &g.rcus[i]
		r.reset()
		r.parkedFrom = g.turn
	}
}

// Reset rewinds the compute layer to its built state in place: the RCUs,
// the CPMs and the CPMs' memory channels. Storage, wiring and the tracer
// stay, and attached attribution counts read zero. It rewinds this layer
// only: on a standalone platform call Eng.Reset and Net.Reset first.
// Mid-kernel, the tokens in flight go with the network's flits, to the
// garbage collector rather than back to the token pool. It allocates
// nothing.
func (p *Platform) Reset() {
	p.init()
	for _, c := range p.CPMs {
		c.reset()
		c.mem.Reset()
	}
}

// AttachToSystem builds the SnackNoC on a network already carrying a CMP
// cache hierarchy (the Fig 11/12/13 co-run context). The CPM shares the
// memory controller at its node, and snack packets ejected there reach
// the CPM through the cache hub's Extra route.
func AttachToSystem(eng *sim.Engine, sys *cache.System, cfg PlatformConfig) (*Platform, error) {
	mn, ok := sys.Mems[cfg.CPM.Node]
	if !ok {
		return nil, fmt.Errorf("core: CPM node %d hosts no memory controller", cfg.CPM.Node)
	}
	ctrl := mn.Controller()
	if !cfg.ShareMemChannel {
		var err error
		ctrl, err = mem.New(eng, ctrl.Cfg())
		if err != nil {
			return nil, err
		}
	}
	p, err := attach(eng, sys.Net, []CPMConfig{cfg.CPM}, ctrl)
	if err != nil {
		return nil, err
	}
	sys.Hubs[cfg.CPM.Node].Extra = p.CPM
	return p, nil
}

// Run submits a program and drives the engine until it completes,
// returning the kernel result. maxCycles bounds the wait. An invalid
// program is rejected here, before any cycle runs.
func (p *Platform) Run(prog *Program, maxCycles int64) (*Result, error) {
	if err := p.CPM.Admit(prog); err != nil {
		return nil, err
	}
	var res *Result
	if !p.CPM.Submit(prog, p.Eng.Cycle(), func(r *Result) { res = r }) {
		return nil, fmt.Errorf("core: platform busy")
	}
	if _, ok := p.Eng.RunUntil(func() bool { return res != nil }, maxCycles); !ok {
		return nil, fmt.Errorf("core: kernel %q did not complete within %d cycles (state %s, issued %d, results %d/%d)",
			prog.Name, maxCycles, p.CPM.State(), p.CPM.Issued(), p.CPM.resultsGot, prog.NumOutputs)
	}
	return res, nil
}

// SetTracer installs the lifecycle tracer across the whole platform:
// every router and NI of the mesh, every RCU, and every CPM record into
// the same per-simulation tracer. A nil tracer disables tracing.
func (p *Platform) SetTracer(t *trace.Tracer) {
	p.Net.SetTracer(t)
	for _, r := range p.RCUs {
		r.tr = t
	}
	for _, cpm := range p.CPMs {
		cpm.tr = t
	}
}

// SetAttrib attaches the attribution counts of the whole platform to rec
// — every router and NI of the mesh, every RCU, every CPM, and the
// engine. A nil recorder returns at once.
func (p *Platform) SetAttrib(rec *attrib.Recorder) {
	if rec == nil {
		return
	}
	p.Net.SetAttrib(rec)
	for _, r := range p.RCUs {
		rec.Attach(attrib.KindRCU, fmt.Sprintf("rcu%d", r.node), &r.attrib)
	}
	for _, cpm := range p.CPMs {
		rec.Attach(attrib.KindCPM, cpm.Name(), &cpm.attrib)
	}
	p.Eng.SetAttrib(rec)
}

// RegisterMetrics names every statistic of the platform — network, RCUs,
// CPMs, and engine — in reg.
func (p *Platform) RegisterMetrics(reg *stats.Registry) {
	p.Net.RegisterMetrics(reg)
	for _, r := range p.RCUs {
		r.registerMetrics(reg)
	}
	for _, cpm := range p.CPMs {
		cpm.registerMetrics(reg)
	}
	p.Eng.RegisterMetrics(reg)
}

// Quiesced reports whether every RCU is drained and the CPM idle.
func (p *Platform) Quiesced() bool {
	if p.CPM.Busy() {
		return false
	}
	for _, r := range p.RCUs {
		if !r.Idle() {
			return false
		}
	}
	return true
}
