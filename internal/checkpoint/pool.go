package checkpoint

import "sync"

// Pool recycles fully-built simulation platforms between measurements.
//
// A checkpoint State can only restore onto the platform it was taken
// from (pending events name the live components), so a pool entry
// is not a bare platform: it is a platform plus a State taken from it
// once, at Seal time. Reusing an entry is then a single Restore walk,
// copying the saved slabs into the storage the platform already has.
//
// Entries are keyed by an opaque shape string; callers must fold every
// parameter that changes the component graph into it (mesh dimensions,
// VC/buffer/channel configuration, priority mode, RCU/CPM
// placement...). Two shapes that collide would hand a caller a platform
// wired for a different design point.
//
// The pool owns nothing while an entry is checked out: Get transfers
// ownership to the caller, Release transfers it back. The pool is safe
// for concurrent use, but a single Entry must only be used by one
// goroutine at a time (forks of one snapshot share a platform and
// serialize — see State). A just-built platform needs no pool: the
// engine, the network and the platform each reset in place.
type Pool struct {
	mu       sync.Mutex
	idle     map[string][]*Entry
	perShape int
}

// Entry is one pooled platform and the snapshot that rewinds it.
type Entry struct {
	shape string
	state *State
	pool  *Pool
}

// NewPool creates a platform pool keeping at most perShape idle entries
// per shape key (<= 0 means unbounded).
func NewPool(perShape int) *Pool {
	return &Pool{idle: make(map[string][]*Entry), perShape: perShape}
}

// Get checks out an idle entry for shape, or returns nil when none is
// pooled. An entry is returned as released — call Fork before use to
// rewind it to its snapshot.
func (p *Pool) Get(shape string) *Entry {
	p.mu.Lock()
	defer p.mu.Unlock()
	list := p.idle[shape]
	n := len(list)
	if n == 0 {
		return nil
	}
	e := list[n-1]
	list[n-1] = nil
	p.idle[shape] = list[:n-1]
	return e
}

// Seal wraps a platform as a pool entry, taking its snapshot now. The
// platform must be settled (between runs) and in the state every future
// Fork should rewind to. The entry is checked out; Release it when done.
// The payload is not kept: the caller holds its own platform.
func (p *Pool) Seal(shape string, t Target, _ any) *Entry {
	return &Entry{shape: shape, state: Take(t), pool: p}
}

// Release retires a checked-out entry back to its pool. The platform
// may be dirty; the next Get/Fork pair rewinds it. Entries beyond the
// per-shape bound are dropped for the GC to collect.
func (e *Entry) Release() {
	p := e.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.perShape > 0 && len(p.idle[e.shape]) >= p.perShape {
		return
	}
	p.idle[e.shape] = append(p.idle[e.shape], e)
}

// Fork rewinds the entry's platform to its snapshot: one Restore walk.
func (e *Entry) Fork() { e.state.Restore() }
