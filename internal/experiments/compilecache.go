package experiments

import (
	"sync"
	"sync/atomic"

	"snacknoc/internal/cpu"
)

// Compiled-program cache. Kernel compilation is pure — the program is a
// deterministic function of (kernel, dims, RCU count, seed) — and every
// sweep cell recompiles the same few kernels: fig12 compiles each
// kernel once per benchmark × priority cell, fig13 once per mesh ×
// benchmark point. The cache memoizes CompileKernel on exactly that
// key. Sharing the compiled *Program is safe because a Program is
// immutable: execution fills operands in the private token copy the CPM
// assembles as it fetches each entry, never in the program.
//
// Counters are atomics (sweep cells compile concurrently). They are
// process-cumulative, so no per-run snapshot carries them; the
// benchmark reads them through CompileCacheStats.

// compileKey identifies one compiled program.
type compileKey struct {
	kernel cpu.KernelName
	dims   KernelDims
	nRCU   int
	seed   uint64
}

var (
	compileCache  sync.Map // compileKey -> *core.Program
	compileHits   atomic.Int64
	compileMisses atomic.Int64
)

// CompileCacheStats returns the cumulative hit and miss counts.
func CompileCacheStats() (hits, misses int64) {
	return compileHits.Load(), compileMisses.Load()
}

// ResetCompileCache empties the cache and zeroes its counters
// (benchmarks use it to measure cold compilation).
func ResetCompileCache() {
	compileCache.Range(func(k, _ any) bool {
		compileCache.Delete(k)
		return true
	})
	compileHits.Store(0)
	compileMisses.Store(0)
}
