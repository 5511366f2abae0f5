// Package snacknoc is a library implementation of SnackNoC, the
// "processing in the communication layer" platform of Sangaiah et al.
// (HPCA 2020): a chip-multiprocessor network-on-chip whose routers are
// augmented with light-weight compute units so that linear-algebra
// kernels execute inside the NoC, snacking on the interconnect's idle
// crossbar, link and buffer resources while CMP traffic keeps priority.
//
// The package exposes the paper's programming model (§IV): programs
// declaratively build array computations inside a Context, and the
// runtime JIT-compiles them to dataflow instruction flits, streams them
// through the Central Packet Manager, and executes them on the Router
// Compute Units of a cycle-level mesh NoC simulation.
//
//	p, _ := snacknoc.NewPlatform()
//	ctx := p.NewContext()
//	a, _ := ctx.Input([]float64{1, 2, 3, 4}, 2, 2)
//	b, _ := ctx.Input([]float64{5, 6, 7, 8}, 2, 2)
//	ab, _ := ctx.MatMul(a, b)
//	out := make([]float64, 4)
//	ctx.GetValue(ab, out)
//	stats, _ := p.Execute(ctx)
//
// Everything underneath — the mesh NoC with virtual-channel flow
// control, the DDR3 memory model, the CPM and RCUs, the transient-token
// storage loop — is simulated cycle by cycle; Stats reports the kernel's
// completion latency in NoC cycles exactly as the paper measures it.
package snacknoc

import (
	"fmt"
	"sort"

	"snacknoc/internal/compiler"
	"snacknoc/internal/core"
	"snacknoc/internal/noc"
	"snacknoc/internal/sim"
)

// Config selects the simulated platform parameters (Table IV defaults).
type Config struct {
	// Width and Height set the mesh (and therefore RCU count).
	Width, Height int
	// PriorityArbitration serves CMP communication flits ahead of snack
	// instruction flits at every router allocator (§III-D3).
	PriorityArbitration bool
	// CPMNode places the Central Packet Manager (a memory-controller
	// corner node in the paper).
	CPMNode int
	// MinChunk tunes the compiler's reduction chunking (§IV-B1).
	MinChunk int
}

// DefaultConfig returns the 16-node Table IV platform.
func DefaultConfig() Config {
	return Config{Width: 4, Height: 4, PriorityArbitration: true, CPMNode: 0, MinChunk: 8}
}

// Option customizes NewPlatform.
type Option func(*Config)

// WithMesh sets the mesh dimensions (RCU count = width × height).
func WithMesh(width, height int) Option {
	return func(c *Config) { c.Width, c.Height = width, height }
}

// WithPriorityArbitration toggles the §III-D3 arbitration scheme.
func WithPriorityArbitration(on bool) Option {
	return func(c *Config) { c.PriorityArbitration = on }
}

// WithCPMNode relocates the Central Packet Manager.
func WithCPMNode(node int) Option {
	return func(c *Config) { c.CPMNode = node }
}

// Platform is a standalone SnackNoC instance: the simulated mesh, its
// RCUs and CPM, ready to execute contexts.
type Platform struct {
	cfg  Config
	eng  *sim.Engine
	core *core.Platform
}

// NewPlatform builds a zero-load platform (the Fig 9 measurement
// context). Use CoRun for the multiprogram scenario where kernels share
// the NoC with CMP applications.
func NewPlatform(opts ...Option) (*Platform, error) {
	cfg := DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	eng := sim.NewEngine()
	pc := core.DefaultPlatformConfig()
	pc.CPM = core.DefaultCPMConfig(noc.NodeID(cfg.CPMNode))
	cp, err := core.NewStandalone(eng, cfg.Width, cfg.Height, cfg.PriorityArbitration, pc)
	if err != nil {
		return nil, err
	}
	return &Platform{cfg: cfg, eng: eng, core: cp}, nil
}

// Cfg returns the platform configuration.
func (p *Platform) Cfg() Config { return p.cfg }

// RCUs returns the number of Router Compute Units.
func (p *Platform) RCUs() int { return p.cfg.Width * p.cfg.Height }

// Cycle returns the current simulated NoC cycle.
func (p *Platform) Cycle() int64 { return p.eng.Cycle() }

// Stats summarizes one context execution.
type Stats struct {
	// Cycles is the total kernel completion latency: from CPM submission
	// to the last result landing in main memory, summed over the
	// context's graphs.
	Cycles int64
	// Instructions is the number of instruction flits executed.
	Instructions int64
	// TokensCaptured counts dependency values taken from transient loop
	// tokens across all RCUs.
	TokensCaptured int64
	// TokensOffloaded counts transient tokens the CPM spilled to main
	// memory under NoC congestion (§III-C2).
	TokensOffloaded int64
	// CongestedCycles counts cycles the CPM's ALO detector held issue.
	CongestedCycles int64
	// Graphs is the number of dataflow graphs executed.
	Graphs int
}

// Execute compiles and runs every graph registered in the context (via
// GetValue), fills the user output buffers, and returns execution
// statistics. Graphs within one context run back to back and compete for
// the same platform resources (§IV-A2).
func (p *Platform) Execute(ctx *Context) (*Stats, error) {
	return p.executeLocked(ctx)
}

func (p *Platform) executeLocked(ctx *Context) (*Stats, error) {
	if ctx.platform != p {
		return nil, fmt.Errorf("snacknoc: context belongs to a different platform")
	}
	if len(ctx.requests) == 0 {
		return nil, fmt.Errorf("snacknoc: context has no GetValue requests")
	}
	ccfg := compiler.DefaultConfig(p.RCUs())
	if p.cfg.MinChunk > 0 {
		ccfg.MinChunk = p.cfg.MinChunk
	}
	st := &Stats{}
	execBase := p.core.TotalExecuted()
	capBase := capturedTotal(p.core)
	offBase := p.core.CPM.Offloaded()
	congBase := p.core.CPM.CongestedCycles()
	for _, req := range ctx.requests {
		g, err := ctx.builder.Build(req.value.node)
		if err != nil {
			return nil, err
		}
		cached, err := compiler.CompileCached(g, ccfg)
		if err != nil {
			return nil, err
		}
		// The cached program is shared and immutable; relabel a shallow
		// copy (the CPM copies each entry as it fetches it, so the
		// command stream itself stays shared).
		prog := new(core.Program)
		*prog = *cached
		prog.Name = ctx.name
		res, err := p.core.Run(prog, maxKernelCycles(prog))
		if err != nil {
			return nil, err
		}
		if len(req.out) < len(res.Values) {
			return nil, fmt.Errorf("snacknoc: output buffer holds %d values, result has %d",
				len(req.out), len(res.Values))
		}
		for i, v := range res.Values {
			req.out[i] = v.Float()
		}
		st.Cycles += res.Cycles()
		st.Graphs++
	}
	st.Instructions = p.core.TotalExecuted() - execBase
	st.TokensCaptured = capturedTotal(p.core) - capBase
	st.TokensOffloaded = p.core.CPM.Offloaded() - offBase
	st.CongestedCycles = p.core.CPM.CongestedCycles() - congBase
	ctx.requests = nil
	return st, nil
}

// ExecuteAll runs several contexts, highest Priority first (ties in
// submission order) — the lock-acquisition policy of §IV-C.
func (p *Platform) ExecuteAll(ctxs ...*Context) ([]*Stats, error) {
	order := make([]int, len(ctxs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return ctxs[order[a]].priority > ctxs[order[b]].priority
	})
	out := make([]*Stats, len(ctxs))
	for _, i := range order {
		st, err := p.Execute(ctxs[i])
		if err != nil {
			return nil, fmt.Errorf("snacknoc: context %q: %w", ctxs[i].name, err)
		}
		out[i] = st
	}
	return out, nil
}

func capturedTotal(cp *core.Platform) int64 {
	var n int64
	for _, r := range cp.RCUs {
		n += r.Captured()
	}
	return n
}

// maxKernelCycles bounds a kernel run generously: issue takes at least
// one cycle per entry, and transient capture can multiply that under
// contention.
func maxKernelCycles(prog *core.Program) int64 {
	n := int64(len(prog.Entries))
	bound := n*200 + 2_000_000
	return bound
}
