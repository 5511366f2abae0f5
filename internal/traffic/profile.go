// Package traffic models the 16 benchmark applications of the paper's
// Table III as phase-based synthetic workload profiles.
//
// The authors drove their simulations with Prism/SynchroTrace execution
// traces of PARSEC3.0, Splash2X and FastForward2 binaries. Those traces
// are not available here, so each benchmark is characterized instead by
// the parameters that determine its NoC-visible behaviour: how often
// cores touch memory, how large and how shared their footprints are, how
// sequential their access streams are, and how activity varies across
// execution phases. The profiles are calibrated so the mesh-level
// measurements the paper reports emerge from the simulation: FMM and
// Cholesky with sub-1% median crossbar utilization, LULESH around 9%,
// Graph500 spiking above 40%, Radix an order of magnitude hotter than
// CoMD, and Raytrace with ~96% of cycles at zero buffer occupancy
// (paper §II-A, Figs 2-3).
package traffic

import "fmt"

// Phase is one execution phase of a benchmark.
type Phase struct {
	// Frac is the fraction of the instruction budget spent in this phase.
	Frac float64
	// MemFrac is the probability an instruction is a memory access.
	MemFrac float64
	// WriteFrac is the probability a memory access is a store.
	WriteFrac float64
	// SharedFrac is the probability an access targets the shared region.
	SharedFrac float64
	// SeqFrac is the probability an access continues a sequential stream
	// rather than jumping randomly within the working set.
	SeqFrac float64
	// WSBlocks is the per-core private working set in 64 B blocks.
	WSBlocks int
	// SharedBlocks is the size of the globally shared region in blocks.
	SharedBlocks int
	// StallEvery injects a synchronization stall after this many retired
	// instructions (0 disables), modeling barriers and lock handoffs.
	StallEvery int
	// StallCycles is the length of each synchronization stall.
	StallCycles int
}

// Profile characterizes one benchmark application.
type Profile struct {
	Name string
	// Desc matches the Table III description column.
	Desc string
	// Instrs is the per-core instruction budget at the reference scale
	// (already reduced from the paper's full runs; see EXPERIMENTS.md).
	Instrs int64
	// MLP is the core's maximum outstanding L1 misses.
	MLP int
	// BlockFrac is the probability a miss is a dependent load the core
	// must stall on even below the MLP limit.
	BlockFrac float64
	Phases    []Phase
}

// Validate checks internal consistency.
func (p *Profile) Validate() error {
	if p.Instrs <= 0 {
		return fmt.Errorf("traffic: %s: instruction budget must be positive", p.Name)
	}
	if p.MLP < 1 {
		return fmt.Errorf("traffic: %s: MLP must be >= 1", p.Name)
	}
	if len(p.Phases) == 0 {
		return fmt.Errorf("traffic: %s: needs at least one phase", p.Name)
	}
	sum := 0.0
	for i, ph := range p.Phases {
		sum += ph.Frac
		if ph.MemFrac < 0 || ph.MemFrac > 1 || ph.WriteFrac < 0 || ph.WriteFrac > 1 ||
			ph.SharedFrac < 0 || ph.SharedFrac > 1 || ph.SeqFrac < 0 || ph.SeqFrac > 1 {
			return fmt.Errorf("traffic: %s phase %d: probabilities out of range", p.Name, i)
		}
		if ph.WSBlocks < 1 || ph.SharedBlocks < 1 {
			return fmt.Errorf("traffic: %s phase %d: working sets must be >= 1 block", p.Name, i)
		}
	}
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("traffic: %s: phase fractions sum to %v, want 1", p.Name, sum)
	}
	return nil
}

// PhaseAt returns the phase in effect after the core has retired the
// given fraction of its budget.
func (p *Profile) PhaseAt(progress float64) *Phase {
	acc := 0.0
	for i := range p.Phases {
		acc += p.Phases[i].Frac
		if progress < acc {
			return &p.Phases[i]
		}
	}
	return &p.Phases[len(p.Phases)-1]
}

// Stream generates the memory reference stream for one core running a
// profile. Private accesses fall in a per-core region; shared accesses
// fall in a region common to all cores, which is what creates coherence
// traffic (recalls, invalidations) between them. A Stream is a plain
// value, its generator included, so a checkpoint copies it by
// assignment.
type Stream struct {
	prof *Profile
	core int
	rng  RNG
	seq  uint64
	rep  int
}

// spatialRun is how many consecutive sequential accesses touch the same
// 64 B block before advancing (8 doubles per cache line), the spatial
// locality real traces exhibit.
const spatialRun = 8

// Address-space layout: each core owns privateRegionBlocks; the shared
// region sits above all private regions.
const privateRegionBlocks = 1 << 22 // 256 MB per core, ample for any WS

// NewStream creates the reference stream for a core. Streams with the
// same (profile, core, seed) generate identical sequences.
func NewStream(prof *Profile, core int, seed uint64) Stream {
	return Stream{
		prof: prof,
		core: core,
		rng:  *NewRNG(seed ^ uint64(core)*0xA24BAED4963EE407),
	}
}

// Next draws the next access under the given phase: the target block and
// whether it is a write.
func (s *Stream) Next(ph *Phase, ncores int) (block uint64, write bool) {
	write = s.rng.Bool(ph.WriteFrac)
	if s.rng.Bool(ph.SharedFrac) {
		base := uint64(ncores) * privateRegionBlocks
		return base + uint64(s.rng.Intn(ph.SharedBlocks)), write
	}
	base := uint64(s.core) * privateRegionBlocks
	if s.rng.Bool(ph.SeqFrac) {
		if s.rep > 0 {
			s.rep--
		} else {
			s.seq = (s.seq + 1) % uint64(ph.WSBlocks)
			s.rep = spatialRun - 1
		}
		return base + s.seq, write
	}
	return base + uint64(s.rng.Intn(ph.WSBlocks)), write
}

// RNG exposes the stream's generator for the core's other draws, keeping
// one deterministic sequence per core.
func (s *Stream) RNG() *RNG { return &s.rng }
