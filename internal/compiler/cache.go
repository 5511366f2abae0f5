package compiler

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"snacknoc/internal/core"
	"snacknoc/internal/dataflow"
)

// Content-keyed compile cache. Compile is pure — the program is a
// deterministic function of the graph content and the config — so the
// public snacknoc API path (which builds graphs dynamically from user
// Contexts and has no shape key to memoize on) caches on a SHA-256
// content hash of (graph, config). The experiments layer keeps its own
// cheaper (kernel, dims, nRCU, seed) key in front of graph construction;
// both caches' counters feed the compiler.cache.* metrics gauges.
//
// Cached programs are shared and immutable (execution mutates only the
// per-fetch token copies the CPM assembles); callers that relabel a
// program (Program.Name) must copy the struct rather than write through.

var (
	cache       sync.Map // [32]byte -> *core.Program
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
)

// CompileCached is Compile behind the content-keyed cache.
func CompileCached(g *dataflow.Graph, cfg Config) (*core.Program, error) {
	key := contentKey(g, cfg)
	if v, ok := cache.Load(key); ok {
		cacheHits.Add(1)
		return v.(*core.Program), nil
	}
	cacheMisses.Add(1)
	prog, err := Compile(g, cfg)
	if err != nil {
		return nil, err
	}
	// Concurrent callers may race to compile the same content; converge
	// on a single stored program so every caller shares one instance.
	v, _ := cache.LoadOrStore(key, prog)
	return v.(*core.Program), nil
}

// CacheStats returns the cumulative hit and miss counts.
func CacheStats() (hits, misses int64) {
	return cacheHits.Load(), cacheMisses.Load()
}

// ResetCache empties the cache and zeroes its counters.
func ResetCache() {
	cache.Range(func(k, _ any) bool {
		cache.Delete(k)
		return true
	})
	cacheHits.Store(0)
	cacheMisses.Store(0)
}

// contentKey folds the graph fingerprint and the config (the two inputs
// Compile depends on) into one comparable key.
func contentKey(g *dataflow.Graph, cfg Config) [32]byte {
	h := sha256.New()
	fp := g.Fingerprint()
	h.Write(fp[:])
	var buf [8]byte
	wi := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	wi(int64(cfg.MinChunk))
	wi(int64(len(cfg.RCUs)))
	for _, r := range cfg.RCUs {
		wi(int64(r))
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}
