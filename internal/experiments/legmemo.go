package experiments

import (
	"sync"

	"snacknoc/internal/cpu"
	"snacknoc/internal/traffic"
)

// Co-run leg memos. The fig12/fig13 co-run matrices repeat two of each
// cell's three legs: the benchmark alone (leg 1) is the same for every
// kernel sharing one (benchmark, mesh, priority, scale) key, and the
// kernel at zero load (leg 2) for every benchmark sharing one (kernel,
// dims, mesh, priority) key. A sweep runs each key once and hands its
// result to every cell; the legs are deterministic, so the sweep renders
// the bytes it would with every leg run. Leg 3, the co-run itself,
// differs per cell and always runs.
//
// A memo lives exactly as long as the RunFig12, RunFig13 or RunCoRun
// call that made it. A spec with an Observer gets none, because each
// cell's legs are then observed under their own labels.

// legMemo is one sweep call's leg results, keyed by baseKey and zeroKey.
type legMemo struct {
	mu   sync.Mutex
	legs map[any]*legEntry
}

// baseKey identifies one benchmark-alone (leg 1) run.
type baseKey struct {
	bench *traffic.Profile
	w, h  int
	pri   bool
	scale Scale
}

// zeroKey identifies one zero-load (leg 2) run; it has no benchmark
// component — the platform is otherwise idle by definition.
type zeroKey struct {
	kernel cpu.KernelName
	dims   KernelDims
	w, h   int
	pri    bool
}

// legEntry is one key's result, computed once.
type legEntry struct {
	once sync.Once
	v    int64
	err  error
}

// newLegMemo returns a memo for one sweep call, or nil while the spec
// observes its runs.
func (s RunSpec) newLegMemo() *legMemo {
	if s.Obs != nil {
		return nil
	}
	return &legMemo{legs: map[any]*legEntry{}}
}

// leg returns what run measures for key: once per key in a memo, every
// time with a nil one.
func (m *legMemo) leg(key any, run func() (int64, error)) (int64, error) {
	if m == nil {
		return run()
	}
	m.mu.Lock()
	e := m.legs[key]
	if e == nil {
		e = new(legEntry)
		m.legs[key] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.v, e.err = run() })
	return e.v, e.err
}
