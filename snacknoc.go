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
	"slices"
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
// RCUs and one or more CPMs, ready to execute contexts.
type Platform struct {
	cfg  Config
	eng  *sim.Engine
	core *core.Platform
}

// NewPlatform builds a zero-load platform (the Fig 9 measurement
// context) with one CPM. Use CoRun for the multiprogram scenario where
// kernels share the NoC with CMP applications.
func NewPlatform(opts ...Option) (*Platform, error) {
	cfg := configure(opts)
	return newPlatform(cfg, noc.NodeID(cfg.CPMNode))
}

// NewDecentralizedPlatform implements the paper's §VII proposal: one
// Central Packet Manager per memory-controller node — the four mesh
// corners — operating in parallel, so ExecuteConcurrent can stream
// several kernels into the communication layer at once. It ignores
// WithCPMNode.
func NewDecentralizedPlatform(opts ...Option) (*Platform, error) {
	cfg := configure(opts)
	w, h := cfg.Width, cfg.Height
	return newPlatform(cfg, 0, noc.NodeID(w-1), noc.NodeID(w*(h-1)), noc.NodeID(w*h-1))
}

func configure(opts []Option) Config {
	cfg := DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

func newPlatform(cfg Config, cpms ...noc.NodeID) (*Platform, error) {
	eng := sim.NewEngine()
	cp, err := core.NewStandaloneMulti(eng, cfg.Width, cfg.Height, cfg.PriorityArbitration, cpms)
	if err != nil {
		return nil, err
	}
	return &Platform{cfg: cfg, eng: eng, core: cp}, nil
}

// Cfg returns the platform configuration.
func (p *Platform) Cfg() Config { return p.cfg }

// RCUs returns the number of Router Compute Units.
func (p *Platform) RCUs() int { return p.cfg.Width * p.cfg.Height }

// CPMs returns the number of packet managers.
func (p *Platform) CPMs() int { return len(p.core.CPMs) }

// Cycle returns the current simulated NoC cycle.
func (p *Platform) Cycle() int64 { return p.eng.Cycle() }

// Stats summarizes one context's execution.
type Stats struct {
	// Cycles is the total kernel completion latency: from CPM submission
	// to the last result landing in main memory, summed over the
	// context's graphs.
	Cycles int64
	// Instructions is the number of instruction flits the context's
	// compiled graphs hold, each executed once.
	Instructions int64
	// TokensCaptured, TokensOffloaded and CongestedCycles are
	// platform-wide counts over the call, so contexts run by one
	// ExecuteConcurrent call report the same values.
	//
	// TokensCaptured counts dependency values taken from transient loop
	// tokens across all RCUs.
	TokensCaptured int64
	// TokensOffloaded counts transient tokens the CPMs spilled to main
	// memory under NoC congestion (§III-C2).
	TokensOffloaded int64
	// CongestedCycles counts cycles the CPMs' ALO detectors held issue.
	CongestedCycles int64
	// Graphs is the number of dataflow graphs executed.
	Graphs int
}

// Execute compiles and runs every graph registered in the context (via
// GetValue), fills the user output buffers, and returns execution
// statistics. Graphs within one context run back to back and compete for
// the same platform resources (§IV-A2).
func (p *Platform) Execute(ctx *Context) (*Stats, error) {
	st, err := p.execute([]*Context{ctx})
	if err != nil {
		return nil, err
	}
	return st[0], nil
}

// ExecuteAll runs several contexts one after another, highest Priority
// first (ties in submission order) — the lock-acquisition policy of
// §IV-C.
func (p *Platform) ExecuteAll(ctxs ...*Context) ([]*Stats, error) {
	if i := slices.Index(ctxs, nil); i >= 0 {
		return nil, fmt.Errorf("snacknoc: context %d is nil", i)
	}
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

// ExecuteConcurrent runs up to CPMs() contexts simultaneously, one per
// packet manager, each mapped onto a disjoint slice of the RCUs —
// concurrent kernels must not share accumulator chains. It returns
// per-context statistics in input order.
func (p *Platform) ExecuteConcurrent(ctxs ...*Context) ([]*Stats, error) {
	return p.execute(ctxs)
}

// job is one context's share of an execution: its packet manager, its
// compiled graphs with their output buffers, and its statistics.
type job struct {
	cpm   *core.CPM
	progs []*core.Program
	outs  [][]float64
	next  int // the graph submitted next or running
	stats Stats
}

// execute is the one path every Execute call takes. Context i runs on
// CPM i over the i-th slice of the RCUs (see rcuSlice). Every context is checked
// and compiled, and every program admitted, before any is submitted, so
// a call that fails there leaves every context's requests in place for a
// retry.
func (p *Platform) execute(ctxs []*Context) ([]*Stats, error) {
	if len(ctxs) == 0 {
		return nil, fmt.Errorf("snacknoc: no contexts")
	}
	if len(ctxs) > len(p.core.CPMs) {
		return nil, fmt.Errorf("snacknoc: %d contexts exceed %d packet managers", len(ctxs), len(p.core.CPMs))
	}
	jobs := make([]*job, len(ctxs))
	for i, ctx := range ctxs {
		switch k := slices.Index(ctxs, ctx); {
		case ctx == nil:
			return nil, fmt.Errorf("snacknoc: context %d is nil", i)
		case ctx.platform != p:
			return nil, fmt.Errorf("snacknoc: context %d belongs to a different platform", i)
		case len(ctx.requests) == 0:
			return nil, fmt.Errorf("snacknoc: context %d has no GetValue requests", i)
		case k < i:
			return nil, fmt.Errorf("snacknoc: context %d repeats context %d", i, k)
		case ctx.err != nil:
			return nil, fmt.Errorf("snacknoc: context %d: %w", i, ctx.err)
		}
		cc := compiler.DefaultConfig(p.RCUs())
		lo, hi := rcuSlice(p.RCUs(), len(ctxs), i)
		cc.RCUs = cc.RCUs[lo:hi]
		if p.cfg.MinChunk > 0 {
			cc.MinChunk = p.cfg.MinChunk
		}
		j := &job{cpm: p.core.CPMs[i]}
		for _, req := range ctx.requests {
			g, err := ctx.builder.Build(req.value.node)
			if err != nil {
				return nil, err
			}
			prog, err := compiler.Compile(g, cc)
			if err != nil {
				return nil, err
			}
			if len(req.out) < prog.NumOutputs {
				return nil, fmt.Errorf("snacknoc: context %d: output buffer holds %d values, result has %d",
					i, len(req.out), prog.NumOutputs)
			}
			prog.Name = ctx.name
			j.progs = append(j.progs, prog)
			j.outs = append(j.outs, req.out)
			j.stats.Instructions += int64(prog.Instructions())
		}
		jobs[i] = j
	}
	before := p.counts()
	if err := p.start(jobs); err != nil {
		return nil, err
	}
	for _, ctx := range ctxs {
		ctx.requests = nil
	}
	if err := p.wait(jobs); err != nil {
		return nil, err
	}
	after := p.counts()
	stats := make([]*Stats, len(jobs))
	for i, j := range jobs {
		j.stats.TokensCaptured = after.TokensCaptured - before.TokensCaptured
		j.stats.TokensOffloaded = after.TokensOffloaded - before.TokensOffloaded
		j.stats.CongestedCycles = after.CongestedCycles - before.CongestedCycles
		stats[i] = &j.stats
	}
	return stats, nil
}

// rcuSlice is the RCU range [lo, hi) of context i of k sharing n RCUs:
// n/k each, and the n%k left over go one each to the first contexts, so
// every RCU serves some context.
func rcuSlice(n, k, i int) (lo, hi int) {
	per, extra := n/k, n%k
	lo = i*per + min(i, extra)
	hi = lo + per
	if i < extra {
		hi++
	}
	return lo, hi
}

// start checks that every job's CPM is free and admits every program,
// then submits each job's first graph. Nothing is submitted unless all
// of that holds.
func (p *Platform) start(jobs []*job) error {
	for _, j := range jobs {
		if j.cpm.Busy() {
			return fmt.Errorf("snacknoc: %s is still running an earlier kernel", j.cpm.Name())
		}
		for _, prog := range j.progs {
			if err := j.cpm.Admit(prog); err != nil {
				return err
			}
		}
	}
	for _, j := range jobs {
		p.submit(j)
	}
	return nil
}

// submit hands job j's next graph to its CPM, which start found free or
// which has just finished j's previous graph, so it cannot refuse. The
// completion copies the results out and submits the following graph a
// cycle later.
func (p *Platform) submit(j *job) {
	j.cpm.Submit(j.progs[j.next], p.eng.Cycle(), func(r *core.Result) {
		for i, v := range r.Values {
			j.outs[j.next][i] = v.Float()
		}
		j.stats.Cycles += r.Cycles()
		j.stats.Graphs++
		if j.next++; j.next < len(j.progs) {
			p.eng.ScheduleAfter(1, func() { p.submit(j) })
		}
	})
}

// wait runs the engine until every job's last graph is done, under one
// cycle budget for the call: generous per command-stream entry, since
// transient capture can multiply issue time under contention.
func (p *Platform) wait(jobs []*job) error {
	var budget int64
	for _, j := range jobs {
		for _, prog := range j.progs {
			budget += int64(len(prog.Entries))*400 + 2_000_000
		}
	}
	done := func() bool {
		for _, j := range jobs {
			if j.next < len(j.progs) {
				return false
			}
		}
		return true
	}
	if _, ok := p.eng.RunUntil(done, budget); !ok {
		return fmt.Errorf("snacknoc: execution did not complete within %d cycles", budget)
	}
	return nil
}

// counts reads the platform-wide counters Stats reports as a call's
// deltas.
func (p *Platform) counts() Stats {
	var n Stats
	for _, r := range p.core.RCUs {
		n.TokensCaptured += r.Captured()
	}
	for _, cpm := range p.core.CPMs {
		n.TokensOffloaded += cpm.Offloaded()
		n.CongestedCycles += cpm.CongestedCycles()
	}
	return n
}
