package core

import (
	"fmt"

	"snacknoc/internal/fixed"
	"snacknoc/internal/noc"
)

// ProgEntry is one element of a compiled kernel's command stream, an
// index into its program's arrays: a value i ≥ 0 names Ops[i], an
// instruction to issue to an RCU, and a value i < 0 names Datas[^i], an
// input data token the CPM injects onto the transient-data loop (how
// reused inputs such as the SPMV vector reach their many consumers
// without being copied into every instruction).
type ProgEntry int32

// ProgOp is one instruction as a compiled kernel stores it: the part of
// the ⟨O,P,Vl,Vr,N⟩ tuple that varies inside a sub-block, in the 16
// bytes the model charges per instruction (InstrBytes). Everything its
// sub-block shares lives once in the block it names.
type ProgOp struct {
	// L and R are Vl and Vr: an immediate's bits or, when LRef or RRef
	// is set, the dependency the RCU captures from the NoC.
	L, R  uint32
	Block int32 // its sub-block's index in Program.Blocks
	Op    Op
	// AccInit starts a fresh accumulator chain (see InstrToken).
	AccInit    bool
	LRef, RRef bool
}

// ProgBlock is one sub-block of a compiled kernel (§III-D1): the run of
// consecutive Ops from First up to the next block's First, which execute
// in order on one RCU under one sub-block ID, and the disposition of the
// result its last op produces (see InstrToken).
type ProgBlock struct {
	Dst         noc.NodeID
	SubBlock    uint32
	First       int32
	EmitDep     DepID
	Dependents  uint16
	Emit, ToCPM bool
}

// Program is a compiled SnackNoC kernel: the command stream the CPM
// streams from main memory, plus result metadata. Once built a Program
// is immutable: every CPM and every sweep worker streams the same
// instance, and execution only ever mutates the tokens the CPM assembles
// from it as it issues them (CPM.assemble). Its records are held by
// value and its entries are indices, so none of its arrays holds a
// pointer for the collector to scan.
type Program struct {
	Name string
	// Entries names every element of Ops and Datas once, each array in
	// order, in the order the CPM issues them.
	Entries []ProgEntry
	Ops     []ProgOp
	Blocks  []ProgBlock
	Datas   []DataToken
	// OutputSlot maps each ToCPM dependency ID to its index in the
	// result vector.
	OutputSlot map[DepID]int
	// NumOutputs is the expected number of final results.
	NumOutputs int
}

// AddBlock opens a sub-block of the program being built: the ops added
// next run on dst under sub-block ID sb. The block it returns takes the
// result disposition; it stays valid until the next AddBlock.
func (p *Program) AddBlock(dst noc.NodeID, sb uint32) *ProgBlock {
	p.Blocks = append(p.Blocks, ProgBlock{Dst: dst, SubBlock: sb, First: int32(len(p.Ops))})
	return &p.Blocks[len(p.Blocks)-1]
}

// AddOp appends an instruction to the open sub-block and its entry to
// the command stream.
func (p *Program) AddOp(op Op, l, r Operand, accInit bool) {
	p.Entries = append(p.Entries, ProgEntry(len(p.Ops)))
	p.Ops = append(p.Ops, ProgOp{
		L: operandWord(l), R: operandWord(r), Block: int32(len(p.Blocks) - 1),
		Op: op, AccInit: accInit, LRef: l.IsRef, RRef: r.IsRef,
	})
}

// AddData appends an input token and its entry to the command stream.
func (p *Program) AddData(d DataToken) {
	p.Entries = append(p.Entries, ^ProgEntry(len(p.Datas)))
	p.Datas = append(p.Datas, d)
}

// operandWord is the stored form of an operand: its dependency or its
// immediate's bits.
func operandWord(o Operand) uint32 {
	if o.IsRef {
		return uint32(o.Dep)
	}
	return uint32(o.Imm)
}

// operand rebuilds an operand from its stored form.
func operand(w uint32, ref bool) Operand {
	if ref {
		return Ref(DepID(w))
	}
	return Imm32(fixed.Q(w))
}

// blockEnd returns the index one past block b's last op.
func (p *Program) blockEnd(b int) int {
	if b+1 < len(p.Blocks) {
		return int(p.Blocks[b+1].First)
	}
	return len(p.Ops)
}

// Token returns instruction i as the CPM issues it, before the CPM
// stamps its identity on it: sequence number i+1, its position in its
// sub-block, and — on the block's last op only — EndSB and the result
// disposition.
func (p *Program) Token(i int) InstrToken {
	o := &p.Ops[i]
	b := &p.Blocks[o.Block]
	it := InstrToken{
		Seq: uint32(i + 1), Dst: b.Dst, SubBlock: b.SubBlock, SBIdx: int32(i) - b.First,
		L: operand(o.L, o.LRef), R: operand(o.R, o.RRef), Op: o.Op, AccInit: o.AccInit,
	}
	if i+1 == p.blockEnd(int(o.Block)) {
		it.EndSB = true
		it.EmitDep, it.Dependents, it.Emit, it.ToCPM = b.EmitDep, b.Dependents, b.Emit, b.ToCPM
	}
	return it
}

// nsLimit bounds dependency and sub-block IDs: a CPM stamps its
// namespace into the bits above (CPM.assemble), so concurrently
// executing kernels from decentralized CPMs never alias each other's
// tokens at the RCUs. That leaves ≈16.7 M of each per kernel.
const nsLimit = 1 << 24

// Validate checks the structural invariants the CPM and RCUs rely on,
// including the namespace bounds — everything that would otherwise
// surface as a panic inside an engine event once the kernel is running.
// The mesh the sub-blocks map to is the one thing it cannot know; the
// CPM checks that as it admits the program (CPM.Admit).
func (p *Program) Validate() error {
	if len(p.Entries) == 0 {
		return fmt.Errorf("core: program %q has no entries", p.Name)
	}
	if p.NumOutputs <= 0 {
		return fmt.Errorf("core: program %q produces no outputs", p.Name)
	}
	if len(p.OutputSlot) != p.NumOutputs {
		return fmt.Errorf("core: program %q: %d output slots for %d outputs",
			p.Name, len(p.OutputSlot), p.NumOutputs)
	}
	var ni, nd ProgEntry
	for i, e := range p.Entries {
		switch {
		case e == ni:
			ni++
		case ^e == nd:
			nd++
		default:
			return fmt.Errorf("core: program %q entry %d names token %d out of order", p.Name, i, e)
		}
	}
	if int(ni) != len(p.Ops) || int(nd) != len(p.Datas) {
		return fmt.Errorf("core: program %q: %d entries for %d instructions and %d input tokens",
			p.Name, len(p.Entries), len(p.Ops), len(p.Datas))
	}
	seen := make([]bool, p.NumOutputs)
	outs, end := 0, 0
	for bi := range p.Blocks {
		b := &p.Blocks[bi]
		// Blocks tile Ops in order, each non-empty: that is what lets an
		// op's sequence number, its position and EndSB follow from where
		// it sits.
		if int(b.First) != end {
			return fmt.Errorf("core: program %q: sub-block %d starts at op %d, not where the one before ends (%d)",
				p.Name, bi, b.First, end)
		}
		if end = p.blockEnd(bi); end <= int(b.First) || end > len(p.Ops) {
			return fmt.Errorf("core: program %q: sub-block %d spans ops %d..%d of %d",
				p.Name, bi, b.First, end, len(p.Ops))
		}
		if b.SubBlock >= nsLimit {
			return fmt.Errorf("core: program %q sub-block %d: sub-block id %d exceeds the namespace (%d)",
				p.Name, bi, b.SubBlock, nsLimit)
		}
		for i := int(b.First); i < end; i++ {
			o := &p.Ops[i]
			if int(o.Block) != bi {
				return fmt.Errorf("core: program %q: op %d names sub-block %d but lies in %d", p.Name, i, o.Block, bi)
			}
			if (o.LRef && o.L >= nsLimit) || (o.RRef && o.R >= nsLimit) {
				return fmt.Errorf("core: program %q op %d: dependency id exceeds the namespace (%d)",
					p.Name, i, nsLimit)
			}
		}
		if b.Emit && b.EmitDep >= nsLimit {
			return fmt.Errorf("core: program %q sub-block %d: dependency id exceeds the namespace (%d)",
				p.Name, bi, nsLimit)
		}
		if !b.ToCPM {
			continue
		}
		if !b.Emit {
			return fmt.Errorf("core: program %q: ToCPM without Emit on sub-block %d", p.Name, bi)
		}
		slot, ok := p.OutputSlot[b.EmitDep]
		if !ok {
			return fmt.Errorf("core: program %q: output dep %d has no slot", p.Name, b.EmitDep)
		}
		if slot < 0 || slot >= p.NumOutputs {
			return fmt.Errorf("core: program %q: output slot %d outside the %d-value result",
				p.Name, slot, p.NumOutputs)
		}
		if seen[slot] {
			return fmt.Errorf("core: program %q: output slot %d written twice", p.Name, slot)
		}
		seen[slot] = true
		outs++
	}
	if end != len(p.Ops) {
		return fmt.Errorf("core: program %q: ops %d..%d lie in no sub-block", p.Name, end, len(p.Ops))
	}
	for i, d := range p.Datas {
		if d.Dependents == 0 {
			return fmt.Errorf("core: program %q: input token %d with zero dependents", p.Name, i)
		}
		if d.Dep >= nsLimit {
			return fmt.Errorf("core: program %q input token %d: dependency id %d exceeds the namespace (%d)",
				p.Name, i, d.Dep, nsLimit)
		}
	}
	if outs != p.NumOutputs {
		return fmt.Errorf("core: program %q: %d ToCPM sub-blocks for %d outputs", p.Name, outs, p.NumOutputs)
	}
	return nil
}

// checkMesh reports a sub-block mapped to a node outside a mesh of the
// given size, whose route would otherwise fail inside the engine.
func (p *Program) checkMesh(nodes int) error {
	for bi := range p.Blocks {
		if d := p.Blocks[bi].Dst; d < 0 || int(d) >= nodes {
			return fmt.Errorf("core: program %q sub-block %d maps to node %d, outside the %d-node mesh",
				p.Name, bi, d, nodes)
		}
	}
	return nil
}

// Instructions returns the count of instruction entries.
func (p *Program) Instructions() int { return len(p.Ops) }

// InputTokens returns the count of CPM-injected data tokens.
func (p *Program) InputTokens() int { return len(p.Datas) }

// Result is a completed kernel's output vector and timing.
type Result struct {
	Values     []fixed.Q
	StartCycle int64
	DoneCycle  int64
}

// Cycles returns the kernel completion latency in cycles.
func (r *Result) Cycles() int64 { return r.DoneCycle - r.StartCycle }
