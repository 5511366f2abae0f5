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
// pending events hold closures over the live components, so the
// component graph is part of a snapshot's identity. A State is
// immutable once taken (every Restore deep-copies out of it again), so
// one warmed snapshot forks any number of runs; that is what the warm
// sweep modes of the figure drivers build on. Forks of one snapshot
// share a platform and therefore serialize.
//
// What is deliberately NOT captured: free pools (the mesh's flit and
// packet-envelope pools, the engine's event pool and the cache-message
// and token pools are unobservable — a pooled object is zeroed before
// reuse; restoring the mesh returns what it overwrites to its pool and
// draws what it restores from it), tracers and metrics registries (warm
// sweeps fall back to cold runs when observability is on), and the
// immutable configuration and wiring.
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
// be the root engine driving Net (shard sub-engines are captured
// through it).
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

	// arena is the reusable restore scratch: the snapshot's own token
	// state was cloned once at Take, and each fork reuses this identity
	// map (reset, buckets kept) instead of growing a fresh one. Forks of
	// one snapshot share a platform and already serialize, so a single
	// arena per State is safe.
	arena *core.TokenCloner
}

// Take captures the target at its current (settled) cycle. It panics if
// the engine is mid-cycle or a router holds staged output — snapshot
// only between runs.
func Take(t Target) *State {
	if t.Eng == nil || t.Net == nil {
		panic("checkpoint: Take needs at least an engine and a network")
	}
	tc := core.NewTokenCloner()
	s := &State{
		target: t,
		cycle:  t.Eng.Cycle(),
		eng:    t.Eng.SnapshotState(),
		net:    t.Net.SnapshotState(tc.Clone),
	}
	if t.Sys != nil {
		s.sys = t.Sys.State()
	}
	if t.Work != nil {
		s.work = t.Work.State()
	}
	if t.Plat != nil {
		s.plat = t.Plat.SnapshotState(tc)
	}
	return s
}

// Cycle returns the simulated time the state was taken at.
func (s *State) Cycle() int64 { return s.cycle }

// Restore rewinds the captured target to the saved state. The state
// itself is untouched, so Restore can be called again — each call is an
// independent fork of the same warmed simulation.
func (s *State) Restore() {
	// One identity map per restore pass keeps token aliasing consistent
	// between the network's in-flight payloads and the compute layer's
	// buffers, while never sharing a mutable token with the snapshot or
	// an earlier fork. The map itself is arena-recycled across forks
	// (cleared, buckets kept); every clone it hands out is still a fresh
	// allocation, so forks never alias each other.
	if s.arena == nil {
		s.arena = core.NewTokenCloner()
	} else {
		s.arena.Reset()
	}
	tc := s.arena
	s.target.Net.RestoreState(s.net, tc.Clone)
	if s.sys != nil {
		s.target.Sys.Restore(s.sys)
	}
	if s.work != nil {
		s.target.Work.Restore(s.work)
	}
	if s.plat != nil {
		s.target.Plat.RestoreState(s.plat, tc)
	}
	// The engine goes last: RestoreState re-files saved events, and the
	// component state above must already be in place when they fire.
	s.target.Eng.RestoreState(s.eng)
}
