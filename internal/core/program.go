package core

import (
	"fmt"

	"snacknoc/internal/fixed"
)

// ProgEntry is one element of a compiled kernel's command stream, an
// index into its program's token arrays: a value i ≥ 0 names Instrs[i],
// an instruction token to issue to an RCU, and a value i < 0 names
// Datas[^i], an input data token the CPM injects onto the transient-data
// loop (how reused inputs such as the SPMV vector reach their many
// consumers without being copied into every instruction).
type ProgEntry int32

// Program is a compiled SnackNoC kernel: the command stream the CPM
// streams from main memory, plus result metadata. Once built a Program
// is immutable: every CPM and every sweep worker streams the same
// instance, and execution only ever mutates the token copies the CPM
// assembles from it as it issues them (CPM.assemble). Its tokens are
// held by value and its entries are indices, so none of its arrays holds
// a pointer for the collector to scan.
type Program struct {
	Name string
	// Entries names every token of Instrs and Datas once, each array in
	// order, in the order the CPM issues them.
	Entries []ProgEntry
	Instrs  []InstrToken
	Datas   []DataToken
	// OutputSlot maps each ToCPM dependency ID to its index in the
	// result vector.
	OutputSlot map[DepID]int
	// NumOutputs is the expected number of final results.
	NumOutputs int
}

// nsLimit bounds dependency and sub-block IDs: a CPM stamps its
// namespace into the bits above (CPM.assemble), so concurrently
// executing kernels from decentralized CPMs never alias each other's
// tokens at the RCUs. That leaves ≈16.7 M of each per kernel.
const nsLimit = 1 << 24

// Validate checks the structural invariants the CPM and RCUs rely on,
// including the namespace bounds — everything that would otherwise
// surface as a panic inside an engine event once the kernel is running.
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
	if int(ni) != len(p.Instrs) || int(nd) != len(p.Datas) {
		return fmt.Errorf("core: program %q: %d entries for %d instructions and %d input tokens",
			p.Name, len(p.Entries), len(p.Instrs), len(p.Datas))
	}
	seen := make([]bool, p.NumOutputs)
	outs := 0
	var lastSeq uint32
	for i := range p.Instrs {
		it := &p.Instrs[i]
		if it.Seq < lastSeq {
			return fmt.Errorf("core: program %q: instruction %d out of sequence", p.Name, i)
		}
		lastSeq = it.Seq
		if it.SubBlock >= nsLimit {
			return fmt.Errorf("core: program %q instruction %d: sub-block id %d exceeds the namespace (%d)",
				p.Name, i, it.SubBlock, nsLimit)
		}
		if (it.L.IsRef && it.L.Dep >= nsLimit) || (it.R.IsRef && it.R.Dep >= nsLimit) ||
			(it.Emit && it.EmitDep >= nsLimit) {
			return fmt.Errorf("core: program %q instruction %d: dependency id exceeds the namespace (%d)",
				p.Name, i, nsLimit)
		}
		if !it.ToCPM {
			continue
		}
		if !it.Emit {
			return fmt.Errorf("core: program %q: ToCPM without Emit at instruction %d", p.Name, i)
		}
		slot, ok := p.OutputSlot[it.EmitDep]
		if !ok {
			return fmt.Errorf("core: program %q: output dep %d has no slot", p.Name, it.EmitDep)
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
		return fmt.Errorf("core: program %q: %d ToCPM instructions for %d outputs", p.Name, outs, p.NumOutputs)
	}
	return nil
}

// Instructions returns the count of instruction entries.
func (p *Program) Instructions() int { return len(p.Instrs) }

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
