// Package checkpoint provides deterministic save/fork/restore of a
// fully-warmed simulation. A State taken at a settled point (right
// after Run/RunUntil, when the engine has merged its wake-ups and all
// staged router outputs have drained into wires) captures everything
// the next cycle can observe: the engine clock, pending events and
// component sleep states; every wire, router and network interface of
// the mesh; the cache hierarchy and DRAM timing state; the CMP cores
// and their reference streams; and the SnackNoC compute layer.
//
// Restore writes the state back onto the SAME simulation instance —
// pending events name the live components, so the component graph is
// part of a snapshot's identity. A State is immutable once taken (every
// Restore copies out of it again), so one warmed snapshot forks any
// number of runs; the platform pool builds on that.
// Forks of one snapshot share a platform and therefore serialize.
//
// Every layer follows one idiom: a component keeps its mutable state in
// one embedded block, and the block's copyFrom assigns its scalars and
// copies its owned slices and flat containers into its own storage, so
// the same method takes (saved.copyFrom(&live.block)) and restores
// (live.block.copyFrom(&saved)). Tokens and cache messages are held by
// value or by slab index, so the only pointers saved are the payloads
// of packets in flight. The network packs what its buffers, wires, work
// lists and NI queues hold rather than copying their slabs whole, and
// the engine saves its pending events as a list.
//
// What is deliberately NOT captured: free pools (the mesh's flit and
// packet-envelope pools, the engine's event pool and the cache-message
// and token pools are unobservable — a pooled object is zeroed before
// reuse; restoring the mesh returns what it overwrites to its pool and
// draws what it restores from it), tracers and metrics registries
// (observability is per run), the immutable
// configuration and wiring, and the derived sets a restore rebuilds
// (the cores' and RCUs' runnable sets, the wires' pending bits).
package checkpoint

import (
	"snacknoc/internal/cache"
	"snacknoc/internal/core"
	"snacknoc/internal/cpu"
	"snacknoc/internal/noc"
	"snacknoc/internal/sim"
)

// Target names the components of one simulation. Eng and Net are
// required; the rest are optional and saved only when non-nil. Eng must
// be the engine driving Net.
type Target struct {
	Eng  *sim.Engine
	Net  *noc.Network
	Sys  *cache.System  // CMP cache hierarchy
	Work *cpu.Workload  // CMP cores
	Plat *core.Platform // SnackNoC compute layer
}

// State is one saved simulation, bound to the target it was taken from.
type State struct {
	target Target
	cycle  int64

	eng  *sim.EngineState
	net  *noc.NetworkState
	sys  *cache.SystemState
	work *cpu.WorkloadState
	plat *core.PlatformState
}

// clonePayload copies a payload in flight, for the network snapshot and
// each restore of it. A payload has one holder, the flit or envelope
// carrying it, so a plain copy aliases nothing.
func clonePayload(v any) any {
	switch p := v.(type) {
	case *core.InstrToken:
		return clone(p)
	case *core.DataToken:
		return clone(p)
	case *cache.Msg:
		return clone(p)
	}
	return v
}

func clone[T any](p *T) *T {
	c := *p
	return &c
}

// Take captures the target at its current (settled) cycle. It panics if
// the engine is mid-cycle or a router holds staged output — snapshot
// only between runs.
func Take(t Target) *State {
	if t.Eng == nil || t.Net == nil {
		panic("checkpoint: Take needs at least an engine and a network")
	}
	s := &State{
		target: t,
		cycle:  t.Eng.Cycle(),
		eng:    t.Eng.SnapshotState(),
		net:    t.Net.SnapshotState(clonePayload),
	}
	if t.Sys != nil {
		s.sys = t.Sys.State()
	}
	if t.Work != nil {
		s.work = t.Work.State()
	}
	if t.Plat != nil {
		s.plat = t.Plat.SnapshotState()
	}
	return s
}

// Restore rewinds the captured target to the saved state. The state
// itself is untouched, so Restore can be called again — each call is an
// independent fork of the same warmed simulation.
func (s *State) Restore() {
	s.target.Net.RestoreState(s.net, clonePayload)
	if s.sys != nil {
		s.target.Sys.Restore(s.sys)
	}
	if s.work != nil {
		s.target.Work.Restore(s.work)
	}
	if s.plat != nil {
		s.target.Plat.RestoreState(s.plat)
	}
	// The engine goes last: RestoreState re-files saved events, and the
	// component state above must already be in place when they fire.
	s.target.Eng.RestoreState(s.eng)
}
