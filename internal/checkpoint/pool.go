package checkpoint

import (
	"sync"
	"sync/atomic"
	"time"

	"snacknoc/internal/stats"
)

// Pool recycles fully-built simulation platforms between sweep cells.
//
// A checkpoint State can only restore onto the platform it was taken
// from (pending events name the live components), so a pool entry
// is not a bare platform: it is a platform plus a pristine State taken
// from it once, at Seal time. Reusing an entry is then a single Restore
// walk, copying the saved slabs into the storage the platform already
// has — the build and the snapshot are paid once per pooled platform
// instead of once per cell.
//
// Entries are keyed by an opaque shape string; callers must fold every
// parameter that changes the component graph into it (mesh dimensions,
// VC/buffer/channel configuration, priority mode, RCU/CPM
// placement...). Two shapes that collide would hand a cell a platform
// wired for a different design point.
//
// The pool owns nothing while an entry is checked out: Get transfers
// ownership to the caller, Release transfers it back. Entries and the
// pool itself are safe for concurrent use by the sweep worker pool, but
// a single Entry must only be used by one goroutine at a time (forks of
// one snapshot share a platform and serialize — see State).
type Pool struct {
	mu       sync.Mutex
	idle     map[string][]*Entry
	perShape int

	hits   atomic.Int64
	misses atomic.Int64
	drops  atomic.Int64
	forks  atomic.Int64
	forkNs atomic.Int64
}

// Entry is one pooled platform: the caller's component roots (Payload)
// plus the pristine snapshot that rewinds them.
type Entry struct {
	shape   string
	payload any
	state   *State
	pool    *Pool
}

// NewPool creates a platform pool keeping at most perShape idle entries
// per shape key (<= 0 means unbounded). A small bound is usually right:
// at most one entry per shape is live per worker, so idle depth beyond
// the worker count only holds memory.
func NewPool(perShape int) *Pool {
	return &Pool{idle: make(map[string][]*Entry), perShape: perShape}
}

// Get checks out an idle entry for shape, or returns nil (a miss) when
// none is pooled. A hit is returned as retired — call Fork before use
// to rewind it to its pristine state.
func (p *Pool) Get(shape string) *Entry {
	p.mu.Lock()
	list := p.idle[shape]
	if n := len(list); n > 0 {
		e := list[n-1]
		list[n-1] = nil
		p.idle[shape] = list[:n-1]
		p.mu.Unlock()
		p.hits.Add(1)
		return e
	}
	p.mu.Unlock()
	p.misses.Add(1)
	return nil
}

// Seal wraps a freshly built platform as a pool entry, taking its
// pristine snapshot now. The platform must be settled (between runs)
// and in the state every future Fork should rewind to. The entry is
// checked out; Release it when the cell is done.
func (p *Pool) Seal(shape string, t Target, payload any) *Entry {
	return &Entry{shape: shape, payload: payload, state: Take(t), pool: p}
}

// Release retires a checked-out entry back to its pool. The platform
// may be dirty; the next Get/Fork pair rewinds it. Entries beyond the
// per-shape bound are dropped for the GC to collect.
func (e *Entry) Release() {
	p := e.pool
	p.mu.Lock()
	if p.perShape > 0 && len(p.idle[e.shape]) >= p.perShape {
		p.mu.Unlock()
		p.drops.Add(1)
		return
	}
	p.idle[e.shape] = append(p.idle[e.shape], e)
	p.mu.Unlock()
}

// Fork rewinds the entry's platform to its pristine snapshot — one
// timed Restore walk.
func (e *Entry) Fork() {
	start := time.Now()
	e.state.Restore()
	e.pool.forkNs.Add(time.Since(start).Nanoseconds())
	e.pool.forks.Add(1)
}

// Payload returns the component roots stored at Seal time, typed by the
// caller.
func (e *Entry) Payload() any { return e.payload }

// Drain drops every idle entry and returns how many were released.
// Checked-out entries are unaffected; Release after a Drain simply
// repools them.
func (p *Pool) Drain() int {
	p.mu.Lock()
	n := 0
	for k, list := range p.idle {
		n += len(list)
		delete(p.idle, k)
	}
	p.mu.Unlock()
	return n
}

// Idle reports how many entries are currently pooled across all shapes.
func (p *Pool) Idle() int {
	p.mu.Lock()
	n := 0
	for _, list := range p.idle {
		n += len(list)
	}
	p.mu.Unlock()
	return n
}

// Hits, Misses and Forks report cumulative pool traffic;
// AvgForkNs the mean wall-clock cost of one Restore walk.
func (p *Pool) Hits() int64   { return p.hits.Load() }
func (p *Pool) Misses() int64 { return p.misses.Load() }
func (p *Pool) Forks() int64  { return p.forks.Load() }

func (p *Pool) AvgForkNs() float64 {
	n := p.forks.Load()
	if n == 0 {
		return 0
	}
	return float64(p.forkNs.Load()) / float64(n)
}

// RegisterMetrics exposes the pool counters as gauges under
// prefix.pool.* (hits, misses, forks, fork.avg.ns, idle). Wall-clock
// gauges are observability, not simulation state: they never feed a
// byte-pinned artifact.
func (p *Pool) RegisterMetrics(reg *stats.Registry, prefix string) {
	reg.AddGauge(prefix+".pool.hits", func() float64 { return float64(p.Hits()) })
	reg.AddGauge(prefix+".pool.misses", func() float64 { return float64(p.Misses()) })
	reg.AddGauge(prefix+".pool.forks", func() float64 { return float64(p.Forks()) })
	reg.AddGauge(prefix+".pool.fork.avg.ns", func() float64 { return p.AvgForkNs() })
	reg.AddGauge(prefix+".pool.idle", func() float64 { return float64(p.Idle()) })
}
