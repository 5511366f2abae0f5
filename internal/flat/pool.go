package flat

// Pool is a free list of zeroed objects, the recycler of everything the
// simulator keeps only in flight: flits and packet envelopes, compute
// tokens, protocol messages. A pool is engine-local and deterministic,
// unlike sync.Pool; an object may retire into another engine's pool, as
// a flit retires where it leaves the network.
//
// Get takes the most recently returned object, else the next unused one
// of the pool's newest chunk; with neither, it allocates a chunk of
// PoolChunk objects, or of an eighth of what the pool has made so far if
// that is more. A first run costs a few allocations rather than one per
// object in flight, and a pool that must hold tens of thousands (a
// saturated source queue's envelopes) grows geometrically, to at most an
// eighth past its high-water mark, rather than by one fixed chunk at a
// time. Put
// zeroes what it takes back, so which object Get hands out is
// unobservable and nothing pooled keeps a reference alive. A free list
// holds at most PoolCap objects and the garbage collector takes the
// rest: a checkpoint restore makes the payloads in flight outside the
// pools, and a fork loop that put them all back would grow a pool by
// that many per restore. A nil pool allocates every Get and drops every
// Put.
type Pool[T any] struct {
	free  []*T
	fresh []T // what the newest chunk has not handed out yet
	out   int
	made  int
}

const (
	// PoolChunk is the fewest objects a pool allocates at once.
	PoolChunk = 32
	// A chunk is 1/poolGrowth of the objects the pool has made, when that
	// is more than PoolChunk.
	poolGrowth = 8
	// PoolCap bounds a pool's free list.
	PoolCap = 1 << 15
)

// Get returns a zeroed object.
func (p *Pool[T]) Get() *T {
	if p == nil {
		return new(T)
	}
	p.out++
	if n := len(p.free) - 1; n >= 0 {
		x := p.free[n]
		p.free = p.free[:n]
		return x
	}
	if len(p.fresh) == 0 {
		p.fresh = make([]T, min(max(PoolChunk, p.made/poolGrowth), PoolCap))
		p.made += len(p.fresh)
	}
	x := &p.fresh[0]
	p.fresh = p.fresh[1:]
	return x
}

// Put zeroes x and recycles it.
func (p *Pool[T]) Put(x *T) {
	if p == nil {
		return
	}
	var zero T
	*x = zero
	p.out--
	if p.free == nil {
		// Room for two chunks' worth of returns in one allocation.
		p.free = make([]*T, 0, 2*PoolChunk)
	}
	if len(p.free) < PoolCap {
		p.free = append(p.free, x)
	}
}

// Idle returns the number of objects on the free list.
func (p *Pool[T]) Idle() int { return len(p.free) }

// Out returns gets minus puts. Summed over the pools an object can
// retire into, it is 0 once every object has left flight, unless a
// checkpoint restore dropped the objects in flight and re-made the saved
// ones outside the pools.
func (p *Pool[T]) Out() int { return p.out }
