// Package compiler is the SnackNoC JIT back end (§IV-B): it lowers
// dataflow graphs to element-wise scalar operations, statically maps them
// onto the RCUs, schedules them round-robin, performs the liveness
// lookahead that assigns each transient value its dependent count, and
// emits the instruction stream the CPM issues.
//
// The mapping follows the paper's choices: post-order traversal with each
// array expression fully mapped before the next; inner products compiled
// as multiply-accumulate chains that keep data in the local accumulator;
// consecutive element-wise outputs scheduled onto consecutive RCUs; and
// intermediate expression results pushed back onto the NoC as transient
// data tokens rather than retained in local registers between expressions.
package compiler

import (
	"fmt"

	"snacknoc/internal/core"
	"snacknoc/internal/dataflow"
	"snacknoc/internal/fixed"
	"snacknoc/internal/noc"
)

// Config parameterizes the mapper.
type Config struct {
	// RCUs is the set of compute nodes instructions may map to, in
	// round-robin order. Typically every mesh node.
	RCUs []noc.NodeID
	// MinChunk is the smallest per-RCU slice of a reduction/dot chain;
	// shorter inputs use fewer RCUs (§IV-B1's mapping choice 3).
	MinChunk int
}

// DefaultConfig maps across all nodes of a width×height mesh.
func DefaultConfig(nodes int) Config {
	rcus := make([]noc.NodeID, nodes)
	for i := range rcus {
		rcus[i] = noc.NodeID(i)
	}
	return Config{RCUs: rcus, MinChunk: 8}
}

// elemRef is the compiled form of one array element: an immediate (input
// value embedded into consuming instructions) or a dependency carried by
// a transient token.
type elemRef struct {
	imm   fixed.Q
	isImm bool
	dep   core.DepID
}

func (e elemRef) operand() core.Operand {
	if e.isImm {
		return core.Imm32(e.imm)
	}
	return core.Ref(e.dep)
}

// slab hands out token storage from fixed-capacity chunks, so a compiled
// program costs about one allocation per slabChunk tokens instead of one
// per token. A full chunk is never regrown — it stays behind, kept alive
// by the entries pointing into it, and a new one is started — so the
// pointers put returns stay valid for the life of the program.
type slab[T any] struct {
	chunk []T
}

// Chunks double from slabMinChunk up to slabChunk, so a small graph does
// not pay for a full-sized chunk.
const (
	slabMinChunk = 64
	slabChunk    = 1024
)

func (s *slab[T]) put(v T) *T {
	if len(s.chunk) == cap(s.chunk) {
		n := min(max(2*cap(s.chunk), slabMinChunk), slabChunk)
		s.chunk = make([]T, 0, n)
	}
	s.chunk = append(s.chunk, v)
	return &s.chunk[len(s.chunk)-1]
}

// compilation is the per-graph state.
type compilation struct {
	cfg     Config
	prog    *core.Program
	instrs  slab[core.InstrToken]
	datas   slab[core.DataToken]
	seq     uint32
	sb      uint32
	dep     core.DepID
	rr      int
	uses    map[*dataflow.Node][]int // per node: per element use count
	results map[*dataflow.Node][]elemRef
	root    *dataflow.Node
}

// Compile lowers one graph to a CPM program. The result vector is the
// root's elements in row-major order.
func Compile(g *dataflow.Graph, cfg Config) (*core.Program, error) {
	if len(cfg.RCUs) == 0 {
		return nil, fmt.Errorf("compiler: no RCUs to map onto")
	}
	if cfg.MinChunk < 1 {
		cfg.MinChunk = 1
	}
	order := g.PostOrder()
	c := &compilation{
		cfg: cfg,
		prog: &core.Program{
			Name:       "graph",
			Entries:    make([]core.ProgEntry, 0, entryBound(order, len(cfg.RCUs))),
			OutputSlot: make(map[core.DepID]int, g.Root.Elems()),
		},
		uses:    make(map[*dataflow.Node][]int, len(order)),
		results: make(map[*dataflow.Node][]elemRef, len(order)),
		root:    g.Root,
	}
	c.countUses(order)
	for _, n := range order {
		if err := c.lower(n); err != nil {
			return nil, err
		}
	}
	if err := c.prog.Validate(); err != nil {
		return nil, fmt.Errorf("compiler: produced invalid program: %w", err)
	}
	return c.prog, nil
}

// entryBound returns an upper bound on the command-stream length, so
// Entries is sized once: append's regrowth cost five times the final
// slice in garbage on a 10^5-entry kernel.
func entryBound(order []*dataflow.Node, rcus int) int {
	n := 0
	for _, nd := range order {
		switch nd.Kind {
		case dataflow.KindMatMul:
			n += nd.Elems() * nd.Inputs[0].Cols
		case dataflow.KindAdd, dataflow.KindSub, dataflow.KindScale:
			n += nd.Elems()
		case dataflow.KindReduce, dataflow.KindDot:
			// The chains, plus the final reduction over one partial per RCU.
			n += nd.Inputs[0].Elems() + rcus
		case dataflow.KindSpMV:
			// One MAC per nonzero, a zero per empty row, and the vector's
			// injected tokens.
			n += nd.Sp.NNZ() + nd.Rows + nd.Inputs[0].Elems()
		}
	}
	return n
}

// countUses performs the liveness lookahead of §IV-B1: each element's
// dependent count is how many consuming scalar operations will read it.
// The root's elements have exactly one dependent — the CPM.
func (c *compilation) countUses(order []*dataflow.Node) {
	for _, n := range order {
		c.uses[n] = make([]int, n.Elems())
	}
	bump := func(n *dataflow.Node, elem, by int) {
		c.uses[n][elem] += by
	}
	for _, n := range order {
		switch n.Kind {
		case dataflow.KindInput:
		case dataflow.KindMatMul:
			x, y := n.Inputs[0], n.Inputs[1]
			m, p := x.Cols, n.Cols
			for i := 0; i < x.Rows; i++ {
				for k := 0; k < m; k++ {
					bump(x, i*m+k, p)
				}
			}
			for k := 0; k < m; k++ {
				for j := 0; j < p; j++ {
					bump(y, k*p+j, n.Rows)
				}
			}
		case dataflow.KindAdd, dataflow.KindSub:
			for e := 0; e < n.Elems(); e++ {
				bump(n.Inputs[0], e, 1)
				bump(n.Inputs[1], e, 1)
			}
		case dataflow.KindScale:
			bump(n.Inputs[0], 0, n.Elems())
			for e := 0; e < n.Elems(); e++ {
				bump(n.Inputs[1], e, 1)
			}
		case dataflow.KindReduce:
			for e := 0; e < n.Inputs[0].Elems(); e++ {
				bump(n.Inputs[0], e, 1)
			}
		case dataflow.KindDot:
			for e := 0; e < n.Inputs[0].Elems(); e++ {
				bump(n.Inputs[0], e, 1)
				bump(n.Inputs[1], e, 1)
			}
		case dataflow.KindSpMV:
			x := n.Inputs[0]
			for i := 0; i < n.Rows; i++ {
				for k := n.Sp.RowPtr[i]; k < n.Sp.RowPtr[i+1]; k++ {
					bump(x, n.Sp.ColIdx[k], 1)
				}
			}
		}
	}
	for e := 0; e < c.root.Elems(); e++ {
		bump(c.root, e, 1) // consumed by the CPM's output FIFO
	}
}

// nextRCU advances the round-robin schedule (§IV-B1).
func (c *compilation) nextRCU() noc.NodeID {
	n := c.cfg.RCUs[c.rr%len(c.cfg.RCUs)]
	c.rr++
	return n
}

// nextRCUExcept advances the schedule, skipping one node. Accumulator
// chains that consume locally unresolvable dependencies must not share
// an RCU with the producers of those dependencies: once such a chain
// opens the accumulator, the §III-D1 partial order would block the
// co-located producer forever.
func (c *compilation) nextRCUExcept(avoid noc.NodeID) noc.NodeID {
	if len(c.cfg.RCUs) == 1 {
		return c.cfg.RCUs[0]
	}
	for {
		n := c.nextRCU()
		if n != avoid {
			return n
		}
	}
}

func (c *compilation) newDep() core.DepID { c.dep++; return c.dep }
func (c *compilation) newSB() uint32      { c.sb++; return c.sb }

// emit appends an instruction with the next sequence number.
func (c *compilation) emit(it core.InstrToken) {
	c.seq++
	it.Seq = c.seq
	c.prog.Entries = append(c.prog.Entries, core.ProgEntry{Instr: c.instrs.put(it)})
}

// emitData schedules a CPM-injected input token.
func (c *compilation) emitData(dep core.DepID, v fixed.Q, n int) {
	c.prog.Entries = append(c.prog.Entries, core.ProgEntry{
		Data: c.datas.put(core.DataToken{Dep: dep, Dependents: uint16(n), V: v}),
	})
}

// resultDisposition fills the Emit metadata for the element produced for
// node n at index e, allocating its dependency ID.
func (c *compilation) resultDisposition(n *dataflow.Node, e int, it *core.InstrToken) core.DepID {
	d := c.newDep()
	it.Emit = true
	it.EmitDep = d
	if n == c.root {
		it.ToCPM = true
		it.Dependents = 1
		c.prog.OutputSlot[d] = e
		c.prog.NumOutputs++
		return d
	}
	it.Dependents = uint16(c.uses[n][e])
	return d
}

// lower generates instructions for one node.
func (c *compilation) lower(n *dataflow.Node) error {
	switch n.Kind {
	case dataflow.KindInput:
		// Inputs are embedded as immediates into their consumers — the
		// CPM assembles instruction flits from values streamed out of
		// main memory (§III-C1) — except the SpMV vector, which lowerSpMV
		// turns into transient tokens to model its indexed reuse.
		refs := make([]elemRef, n.Elems())
		for e := range refs {
			refs[e] = elemRef{imm: n.Data[e], isImm: true}
		}
		c.results[n] = refs
		return nil
	case dataflow.KindMatMul:
		return c.lowerMatMul(n)
	case dataflow.KindAdd, dataflow.KindSub:
		return c.lowerElementwise(n)
	case dataflow.KindScale:
		return c.lowerScale(n)
	case dataflow.KindReduce:
		return c.lowerChain(n, c.results[n.Inputs[0]], nil)
	case dataflow.KindDot:
		return c.lowerChain(n, c.results[n.Inputs[0]], c.results[n.Inputs[1]])
	case dataflow.KindSpMV:
		return c.lowerSpMV(n)
	default:
		return fmt.Errorf("compiler: cannot lower %s", n.Kind)
	}
}

// lowerMatMul maps each output element's inner product as one MAC
// sub-block on one RCU, elements round-robin across RCUs.
func (c *compilation) lowerMatMul(n *dataflow.Node) error {
	x, y := c.results[n.Inputs[0]], c.results[n.Inputs[1]]
	m, p := n.Inputs[0].Cols, n.Cols
	refs := make([]elemRef, n.Elems())
	for i := 0; i < n.Rows; i++ {
		for j := 0; j < p; j++ {
			e := i*p + j
			rcu := c.nextRCU()
			sb := c.newSB()
			for k := 0; k < m; k++ {
				it := core.InstrToken{
					Op: core.OpMAC, Dst: rcu, SubBlock: sb, SBIdx: k,
					L: x[i*m+k].operand(), R: y[k*p+j].operand(),
					AccInit: k == 0,
				}
				if k == m-1 {
					it.EndSB = true
					refs[e] = elemRef{dep: c.resultDisposition(n, e, &it)}
				}
				c.emit(it)
			}
		}
	}
	c.results[n] = refs
	return nil
}

// lowerElementwise maps one Add/Sub per element, round-robin.
func (c *compilation) lowerElementwise(n *dataflow.Node) error {
	x, y := c.results[n.Inputs[0]], c.results[n.Inputs[1]]
	op := core.OpAdd
	if n.Kind == dataflow.KindSub {
		op = core.OpSub
	}
	refs := make([]elemRef, n.Elems())
	for e := 0; e < n.Elems(); e++ {
		it := core.InstrToken{
			Op: op, Dst: c.nextRCU(), SubBlock: c.newSB(), EndSB: true,
			L: x[e].operand(), R: y[e].operand(),
		}
		refs[e] = elemRef{dep: c.resultDisposition(n, e, &it)}
		c.emit(it)
	}
	c.results[n] = refs
	return nil
}

// lowerScale maps one multiply per element against the (possibly
// intermediate) scalar.
func (c *compilation) lowerScale(n *dataflow.Node) error {
	s := c.results[n.Inputs[0]][0]
	x := c.results[n.Inputs[1]]
	refs := make([]elemRef, n.Elems())
	for e := 0; e < n.Elems(); e++ {
		it := core.InstrToken{
			Op: core.OpMul, Dst: c.nextRCU(), SubBlock: c.newSB(), EndSB: true,
			L: x[e].operand(), R: s.operand(),
		}
		refs[e] = elemRef{dep: c.resultDisposition(n, e, &it)}
		c.emit(it)
	}
	c.results[n] = refs
	return nil
}

// lowerChain maps a reduction (ys nil: acc += x) or dot product
// (acc += x*y) by slicing the input across RCUs into accumulator chains
// and reducing the partial sums on a final RCU. Fixed-point addition
// wraps, so the chunked order is bit-exact with the sequential one.
//
// The final reduction is issued BEFORE the partial chains: its
// instructions wait at their RCU under the dataflow firing rule, so each
// partial-sum token is captured on its first trip around the loop instead
// of circulating — and stealing crossbar slack — for the rest of the
// kernel.
func (c *compilation) lowerChain(n *dataflow.Node, xs, ys []elemRef) error {
	total := len(xs)
	chunks := len(c.cfg.RCUs)
	if max := (total + c.cfg.MinChunk - 1) / c.cfg.MinChunk; chunks > max {
		chunks = max
	}
	if chunks < 1 {
		chunks = 1
	}
	per := (total + chunks - 1) / chunks

	if chunks == 1 {
		// Single chain: the final element is the root/result directly.
		c.emitChainSlice(n, xs, ys, 0, total, true)
		return nil
	}
	nChunks := (total + per - 1) / per
	partial := make([]elemRef, nChunks)
	for i := range partial {
		partial[i] = elemRef{dep: c.newDep()}
	}
	finalRCU := c.emitChainSlice(n, partial, nil, 0, len(partial), true)
	for i, lo := 0, 0; lo < total; i, lo = i+1, lo+per {
		hi := lo + per
		if hi > total {
			hi = total
		}
		c.emitPartialChain(xs, ys, lo, hi, partial[i].dep, finalRCU)
	}
	return nil
}

// emitPartialChain emits one accumulator chain over xs[lo:hi] whose
// result is a transient token with a single dependent (the final
// reduction, whose already-issued instruction references dep).
func (c *compilation) emitPartialChain(xs, ys []elemRef, lo, hi int, dep core.DepID, avoid noc.NodeID) {
	rcu := c.nextRCUExcept(avoid)
	sb := c.newSB()
	for k := lo; k < hi; k++ {
		it := core.InstrToken{Dst: rcu, SubBlock: sb, SBIdx: k - lo, AccInit: k == lo}
		if ys == nil {
			it.Op = core.OpAccAdd
			it.L = xs[k].operand()
		} else {
			it.Op = core.OpMAC
			it.L = xs[k].operand()
			it.R = ys[k].operand()
		}
		if k == hi-1 {
			it.EndSB = true
			it.Emit = true
			it.EmitDep = dep
			it.Dependents = 1
		}
		c.emit(it)
	}
}

// emitChainSlice emits the chain whose final value is node n's single
// element, returning the RCU it mapped to.
func (c *compilation) emitChainSlice(n *dataflow.Node, xs, ys []elemRef, lo, hi int, isResult bool) noc.NodeID {
	rcu := c.nextRCU()
	sb := c.newSB()
	refs := make([]elemRef, 1)
	for k := lo; k < hi; k++ {
		it := core.InstrToken{Dst: rcu, SubBlock: sb, SBIdx: k - lo, AccInit: k == lo}
		if ys == nil {
			it.Op = core.OpAccAdd
			it.L = xs[k].operand()
		} else {
			it.Op = core.OpMAC
			it.L = xs[k].operand()
			it.R = ys[k].operand()
		}
		if k == hi-1 {
			it.EndSB = true
			refs[0] = elemRef{dep: c.resultDisposition(n, 0, &it)}
		}
		c.emit(it)
	}
	c.results[n] = refs
	return rcu
}

// lowerSpMV compiles y = A·x: the dense vector's elements become
// transient data tokens injected by the CPM (their dependent counts are
// the per-column nonzero counts — the liveness lookahead), and each row
// is a MAC chain over its nonzeros referencing those tokens. This is the
// kernel that exercises the NoC-as-storage mechanism hardest, matching
// the paper's observation that SPMV has the largest flit footprint.
func (c *compilation) lowerSpMV(n *dataflow.Node) error {
	x := n.Inputs[0]
	xRefs := c.results[x]
	colUses := c.uses[x]

	// Inject x as transient tokens (immediates stay immediates when the
	// vector is itself an intermediate — then tokens already exist).
	tokRefs := make([]elemRef, len(xRefs))
	for j, r := range xRefs {
		if colUses[j] == 0 {
			continue // empty column: never referenced
		}
		if r.isImm {
			d := c.newDep()
			c.emitData(d, r.imm, colUses[j])
			tokRefs[j] = elemRef{dep: d}
		} else {
			tokRefs[j] = r
		}
	}

	refs := make([]elemRef, n.Rows)
	for i := 0; i < n.Rows; i++ {
		lo, hi := n.Sp.RowPtr[i], n.Sp.RowPtr[i+1]
		if lo == hi {
			// Empty row: produce an explicit zero.
			it := core.InstrToken{
				Op: core.OpAdd, Dst: c.nextRCU(), SubBlock: c.newSB(), EndSB: true,
				L: core.Imm32(0), R: core.Imm32(0),
			}
			refs[i] = elemRef{dep: c.resultDisposition(n, i, &it)}
			c.emit(it)
			continue
		}
		rcu := c.nextRCU()
		sb := c.newSB()
		for k := lo; k < hi; k++ {
			it := core.InstrToken{
				Op: core.OpMAC, Dst: rcu, SubBlock: sb, SBIdx: k - lo, AccInit: k == lo,
				L: core.Imm32(n.Sp.Val[k]), R: tokRefs[n.Sp.ColIdx[k]].operand(),
			}
			if k == hi-1 {
				it.EndSB = true
				refs[i] = elemRef{dep: c.resultDisposition(n, i, &it)}
			}
			c.emit(it)
		}
	}
	c.results[n] = refs
	return nil
}
