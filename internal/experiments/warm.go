package experiments

import (
	"fmt"
	"sync"

	"snacknoc/internal/cache"
	"snacknoc/internal/checkpoint"
	"snacknoc/internal/core"
	"snacknoc/internal/cpu"
	"snacknoc/internal/noc"
	"snacknoc/internal/sim"
	"snacknoc/internal/traffic"
)

// Warm sweeps. The fig12/fig13 co-run matrices repeat two expensive
// legs across cells: the benchmark-alone baseline (leg 1) is identical
// for every kernel sharing one (benchmark, mesh, priority, scale)
// group, and the zero-load kernel latency (leg 2) is identical for
// every benchmark sharing one (kernel, mesh, priority) point. In warm
// mode the sweep builds ONE baseline platform per group, runs it to the
// warmup boundary, takes a checkpoint, and forks it per cell — each
// fork replays the tail deterministically, so outputs stay byte-
// identical to the cold sweep while (cells-1) platform builds and
// warmups are skipped per group. Leg 2 is memoized outright (a
// zero-load run has no benchmark in it). Leg 3 — the co-run itself —
// genuinely differs per cell and always runs cold.
//
// A warm memo lives exactly as long as the RunFig12, RunFig13 or
// RunCoRun call that made it, so distinct sweeps in one process never
// accumulate each other's platforms. A spec with an Observer gets none:
// observability sinks are per-run, and sharing a platform across
// labelled runs would misattribute events — attribution counters
// included, since a forked platform's counters belong to another cell's
// timeline.

// WarmupCycles is the warmup boundary at which warm sweeps checkpoint
// the baseline platform. Correctness does not depend on the value —
// forks replay the exact cold-run future from any boundary (runs
// shorter than this settle at completion and fork into no-op tails);
// it only sets how much simulation the forks skip.
const WarmupCycles = 8192

// warmMemo is one sweep call's warmed baseline groups and zero-load
// memos, all built under the spec that made it.
type warmMemo struct {
	run    RunSpec
	mu     sync.Mutex
	groups map[warmKey]*warmGroup
	zeros  map[zeroKey]*zeroEntry
}

// newWarmMemo returns a memo for one sweep call, or nil when the spec
// runs every leg cold.
func (s RunSpec) newWarmMemo() *warmMemo {
	if !s.Warm || s.Obs != nil {
		return nil
	}
	return &warmMemo{run: s, groups: map[warmKey]*warmGroup{}, zeros: map[zeroKey]*zeroEntry{}}
}

// memoEntry returns m[k], adding a zero entry first if there is none.
func memoEntry[K comparable, V any](mu *sync.Mutex, m map[K]*V, k K) *V {
	mu.Lock()
	defer mu.Unlock()
	v := m[k]
	if v == nil {
		v = new(V)
		m[k] = v
	}
	return v
}

// warmKey identifies one baseline (leg 1) platform group.
type warmKey struct {
	bench string
	w, h  int
	pri   bool
	scale Scale
}

// warmBase is a built baseline simulation: the platform every fork of
// the group replays on.
type warmBase struct {
	eng *sim.Engine
	net *noc.Network
	sys *cache.System
	w   *cpu.Workload
}

// warmGroup is one group's warmed platform plus its checkpoint. Forks
// share the platform instance, so they serialize on mu.
type warmGroup struct {
	mu   sync.Mutex
	err  error
	base *warmBase
	snap *checkpoint.State
}

// baselineLeg produces the leg-1 result for spec by forking the
// group's warmup checkpoint and running the tail.
func (m *warmMemo) baselineLeg(spec CoRunSpec) (*legResult, error) {
	key := warmKey{
		bench: spec.Bench.Name, w: spec.Width, h: spec.Height,
		pri: spec.Priority, scale: spec.Scale,
	}
	g := memoEntry(&m.mu, m.groups, key)
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err == nil && g.snap == nil {
		g.err = g.build(m.run, spec)
	}
	if g.err != nil {
		return nil, g.err
	}
	g.snap.Restore()
	b := g.base
	if !b.w.Done() {
		if _, ok := b.eng.RunUntil(b.w.Done, MaxRunCycles); !ok {
			return nil, fmt.Errorf("experiments: warm baseline %s did not complete", spec.Bench.Name)
		}
	}
	return collectLegStats(b.net, b.w), nil
}

// build constructs the group's platform (the same way the cold leg
// does), runs it to the warmup boundary, and checkpoints it.
func (g *warmGroup) build(run RunSpec, spec CoRunSpec) error {
	cfg := run.applyShards(noc.SnackPlatform(spec.Width, spec.Height, spec.Priority))
	eng := sim.NewEngine()
	net, err := noc.New(eng, cfg)
	if err != nil {
		return err
	}
	net.EnableSampling(sampleInterval)
	sys, err := cache.NewSystem(eng, net, cache.DefaultSystemConfig())
	if err != nil {
		return err
	}
	w, err := cpu.NewWorkload(eng, sys, traffic.Scale(spec.Bench, float64(spec.Scale)), Seed)
	if err != nil {
		return err
	}
	// A run shorter than the boundary settles at completion instead;
	// its forks then collect results without stepping another cycle.
	eng.RunUntil(w.Done, WarmupCycles)
	g.base = &warmBase{eng: eng, net: net, sys: sys, w: w}
	g.snap = checkpoint.Take(checkpoint.Target{Eng: eng, Net: net, Sys: sys, Work: w})
	return nil
}

// zeroKey identifies one zero-load (leg 2) measurement; it has no
// benchmark component — the platform is otherwise idle by definition.
type zeroKey struct {
	kernel cpu.KernelName
	dims   KernelDims
	w, h   int
	pri    bool
}

// zeroEntry memoizes one zero-load run.
type zeroEntry struct {
	once   sync.Once
	cycles int64
	err    error
}

// zeroLoad returns the memoized zero-load kernel latency for spec.
func (m *warmMemo) zeroLoad(spec CoRunSpec, prog *core.Program) (int64, error) {
	key := zeroKey{
		kernel: spec.Kernel, dims: spec.Dims, w: spec.Width, h: spec.Height,
		pri: spec.Priority,
	}
	e := memoEntry(&m.mu, m.zeros, key)
	e.once.Do(func() {
		zeroEng := sim.NewEngine()
		zeroPlat, err := core.NewStandalone(zeroEng, spec.Width, spec.Height, spec.Priority, m.run.PlatformConfig())
		if err != nil {
			e.err = err
			return
		}
		zr, err := zeroPlat.Run(prog, MaxRunCycles)
		if err != nil {
			e.err = fmt.Errorf("experiments: zero-load %s: %w", spec.Kernel, err)
			return
		}
		e.cycles = zr.Cycles()
	})
	return e.cycles, e.err
}
