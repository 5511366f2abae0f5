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
	"math"

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

// compilation is the per-graph state.
type compilation struct {
	cfg     Config
	prog    *core.Program
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
	entries, datas, blocks := entryBound(order, len(cfg.RCUs))
	if entries > math.MaxInt32 {
		return nil, fmt.Errorf("compiler: graph may emit %d entries, past the int32 index of a ProgEntry", entries)
	}
	c := &compilation{
		cfg: cfg,
		prog: &core.Program{
			Name:       "graph",
			Entries:    make([]core.ProgEntry, 0, entries),
			Ops:        make([]core.ProgOp, 0, entries-datas),
			Blocks:     make([]core.ProgBlock, 0, blocks),
			Datas:      make([]core.DataToken, 0, datas),
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

// entryBound returns upper bounds on the command-stream length, on the
// input data tokens in it and on the sub-blocks, so Entries, Datas, Ops
// (the difference) and Blocks are each sized once: append's regrowth
// cost five times the final slice in garbage on a 10^5-entry kernel. All
// are exact for a MatMul.
func entryBound(order []*dataflow.Node, rcus int) (n, datas, blocks int) {
	for _, nd := range order {
		switch nd.Kind {
		case dataflow.KindMatMul:
			n += nd.Elems() * nd.Inputs[0].Cols
			blocks += nd.Elems()
		case dataflow.KindAdd, dataflow.KindSub, dataflow.KindScale:
			n += nd.Elems()
			blocks += nd.Elems()
		case dataflow.KindReduce, dataflow.KindDot:
			// The chains, plus the final reduction over one partial per RCU.
			n += nd.Inputs[0].Elems() + rcus
			blocks += rcus + 1
		case dataflow.KindSpMV:
			// One MAC per nonzero, a zero per empty row, and the vector's
			// injected tokens; one chain per row.
			n += nd.Sp.NNZ() + nd.Rows + nd.Inputs[0].Elems()
			datas += nd.Inputs[0].Elems()
			blocks += nd.Rows
		}
	}
	return n, datas, blocks
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

// block opens a sub-block on rcu under a fresh sub-block ID: the ops
// emitted until the next block call execute there in order (§III-D1).
func (c *compilation) block(rcu noc.NodeID) *core.ProgBlock {
	c.sb++
	return c.prog.AddBlock(rcu, c.sb)
}

// resultDisposition fills the Emit metadata of sub-block b, whose last
// op produces node n's element e, allocating its dependency ID.
func (c *compilation) resultDisposition(n *dataflow.Node, e int, b *core.ProgBlock) core.DepID {
	d := c.newDep()
	b.Emit = true
	b.EmitDep = d
	if n == c.root {
		b.ToCPM = true
		b.Dependents = 1
		c.prog.OutputSlot[d] = e
		c.prog.NumOutputs++
		return d
	}
	b.Dependents = uint16(c.uses[n][e])
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
			b := c.block(c.nextRCU())
			for k := 0; k < m; k++ {
				c.prog.AddOp(core.OpMAC, x[i*m+k].operand(), y[k*p+j].operand(), k == 0)
			}
			refs[e] = elemRef{dep: c.resultDisposition(n, e, b)}
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
		b := c.block(c.nextRCU())
		c.prog.AddOp(op, x[e].operand(), y[e].operand(), false)
		refs[e] = elemRef{dep: c.resultDisposition(n, e, b)}
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
		b := c.block(c.nextRCU())
		c.prog.AddOp(core.OpMul, x[e].operand(), s.operand(), false)
		refs[e] = elemRef{dep: c.resultDisposition(n, e, b)}
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
		b := c.emitChain(c.nextRCU(), xs, ys, 0, total)
		c.results[n] = []elemRef{{dep: c.resultDisposition(n, 0, b)}}
		return nil
	}
	nChunks := (total + per - 1) / per
	partial := make([]elemRef, nChunks)
	for i := range partial {
		partial[i] = elemRef{dep: c.newDep()}
	}
	finalRCU := c.nextRCU()
	b := c.emitChain(finalRCU, partial, nil, 0, len(partial))
	c.results[n] = []elemRef{{dep: c.resultDisposition(n, 0, b)}}
	for i, lo := 0, 0; lo < total; i, lo = i+1, lo+per {
		hi := lo + per
		if hi > total {
			hi = total
		}
		// A partial sum is a transient token with a single dependent:
		// the final reduction, whose already-issued op references it.
		b := c.emitChain(c.nextRCUExcept(finalRCU), xs, ys, lo, hi)
		b.Emit, b.EmitDep, b.Dependents = true, partial[i].dep, 1
	}
	return nil
}

// emitChain emits the accumulator chain over xs[lo:hi] — acc += x, or
// acc += x*y for a dot product — as one sub-block on rcu, and returns the
// block for its result disposition.
func (c *compilation) emitChain(rcu noc.NodeID, xs, ys []elemRef, lo, hi int) *core.ProgBlock {
	b := c.block(rcu)
	for k := lo; k < hi; k++ {
		if ys == nil {
			c.prog.AddOp(core.OpAccAdd, xs[k].operand(), core.Operand{}, k == lo)
		} else {
			c.prog.AddOp(core.OpMAC, xs[k].operand(), ys[k].operand(), k == lo)
		}
	}
	return b
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
			c.prog.AddData(core.DataToken{Dep: d, Dependents: uint16(colUses[j]), V: r.imm})
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
			b := c.block(c.nextRCU())
			c.prog.AddOp(core.OpAdd, core.Imm32(0), core.Imm32(0), false)
			refs[i] = elemRef{dep: c.resultDisposition(n, i, b)}
			continue
		}
		b := c.block(c.nextRCU())
		for k := lo; k < hi; k++ {
			c.prog.AddOp(core.OpMAC, core.Imm32(n.Sp.Val[k]), tokRefs[n.Sp.ColIdx[k]].operand(), k == lo)
		}
		refs[i] = elemRef{dep: c.resultDisposition(n, i, b)}
	}
	c.results[n] = refs
	return nil
}
