package experiments

import (
	"runtime"
	"sync"
)

// RunSpec says how the runners execute: how many sweep cells run at
// once and what is observed. Neither changes a simulated result — the
// equivalence tests pin every figure byte for byte across worker counts
// and with observers on — so two specs can run side by side in one
// process and each renders what it would alone. The zero RunSpec runs
// on every CPU and observes nothing. Every simulation runs on one
// engine.
type RunSpec struct {
	// Workers is the sweep fan-out: <= 0 means runtime.NumCPU(), 1
	// reproduces the serial runner bit for bit, including its error
	// short-circuit.
	Workers int
	// Obs collects traces, metrics snapshots and cycle attribution from
	// every simulation; nil observes nothing and allocates nothing. While
	// it is set, a co-run sweep runs every cell's legs (legmemo.go).
	Obs *Observer
}

// WorkerCount is the effective sweep fan-out.
func (s RunSpec) WorkerCount() int {
	if s.Workers <= 0 {
		return runtime.NumCPU()
	}
	return s.Workers
}

// The experiment sweeps (Figs 1, 2, 9, 12, 13) are embarrassingly
// parallel: every cell builds its own sim.Engine, noc.Network, cache
// hierarchy, and workload, and seeds its RNG streams deterministically
// from the package Seed constant — no state crosses cells. forEach
// therefore fans cells out across the workers and each cell writes its
// result into a pre-sized slice by index, so the assembled output is
// identical to the serial runner's regardless of completion order (see
// DESIGN.md, "Why per-cell parallelism cannot change simulated
// behavior").
//
// forEach runs fn(0..n-1) across the workers. With one worker it
// degenerates to the classic serial loop (in-order, stopping at the
// first error). With more, all cells run and the error of the
// lowest-indexed failing cell is returned, so the reported failure does
// not depend on goroutine scheduling.
func (s RunSpec) forEach(n int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	j := min(s.WorkerCount(), n)
	if j <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	idx := make(chan int)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < j; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
