package core

import (
	"fmt"

	"snacknoc/internal/fixed"
)

// ProgEntry is one element of a compiled kernel's command stream: either
// an instruction token to issue to an RCU, or an input data token the CPM
// injects onto the transient-data loop (how reused inputs such as the
// SPMV vector reach their many consumers without being copied into every
// instruction).
type ProgEntry struct {
	Instr *InstrToken
	Data  *DataToken
}

// Program is a compiled SnackNoC kernel: the command stream the CPM
// streams from main memory, plus result metadata. Once built a Program
// is immutable: every CPM and every sweep worker streams the same
// instance, and execution only ever mutates the token copies the CPM
// assembles from it as it issues them (CPM.assemble).
type Program struct {
	Name    string
	Entries []ProgEntry
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
	seen := make([]bool, p.NumOutputs)
	outs := 0
	var lastSeq uint32
	for i, e := range p.Entries {
		switch {
		case e.Instr != nil && e.Data != nil:
			return fmt.Errorf("core: program %q entry %d is both instruction and data", p.Name, i)
		case e.Instr == nil && e.Data == nil:
			return fmt.Errorf("core: program %q entry %d is empty", p.Name, i)
		case e.Instr != nil:
			it := e.Instr
			if it.Seq < lastSeq {
				return fmt.Errorf("core: program %q: instruction %d out of sequence", p.Name, i)
			}
			lastSeq = it.Seq
			if it.SubBlock >= nsLimit {
				return fmt.Errorf("core: program %q entry %d: sub-block id %d exceeds the namespace (%d)",
					p.Name, i, it.SubBlock, nsLimit)
			}
			if (it.L.IsRef && it.L.Dep >= nsLimit) || (it.R.IsRef && it.R.Dep >= nsLimit) ||
				(it.Emit && it.EmitDep >= nsLimit) {
				return fmt.Errorf("core: program %q entry %d: dependency id exceeds the namespace (%d)",
					p.Name, i, nsLimit)
			}
			if it.ToCPM {
				if !it.Emit {
					return fmt.Errorf("core: program %q: ToCPM without Emit at entry %d", p.Name, i)
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
		case e.Data != nil:
			if e.Data.Dependents == 0 {
				return fmt.Errorf("core: program %q: input token %d with zero dependents", p.Name, i)
			}
			if e.Data.Dep >= nsLimit {
				return fmt.Errorf("core: program %q entry %d: dependency id %d exceeds the namespace (%d)",
					p.Name, i, e.Data.Dep, nsLimit)
			}
		}
	}
	if outs != p.NumOutputs {
		return fmt.Errorf("core: program %q: %d ToCPM instructions for %d outputs", p.Name, outs, p.NumOutputs)
	}
	return nil
}

// Instructions returns the count of instruction entries.
func (p *Program) Instructions() int {
	n := 0
	for _, e := range p.Entries {
		if e.Instr != nil {
			n++
		}
	}
	return n
}

// InputTokens returns the count of CPM-injected data tokens.
func (p *Program) InputTokens() int {
	return len(p.Entries) - p.Instructions()
}

// Result is a completed kernel's output vector and timing.
type Result struct {
	Values     []fixed.Q
	StartCycle int64
	DoneCycle  int64
}

// Cycles returns the kernel completion latency in cycles.
func (r *Result) Cycles() int64 { return r.DoneCycle - r.StartCycle }
