package flat

// Pool is a free list of zeroed objects, the recycler of everything the
// simulator keeps only in flight: flits and packet envelopes, compute
// tokens, protocol messages. A pool is engine-local and deterministic,
// unlike sync.Pool; an object may retire into another engine's pool, as
// a flit retires where it leaves the network.
//
// An empty pool allocates PoolChunk objects at once, so a first run
// costs a few allocations rather than one per object in flight. Put
// zeroes what it takes back, so which object Get hands out is
// unobservable and nothing pooled keeps a reference alive. A free list
// holds at most PoolCap objects and the garbage collector takes the
// rest: a checkpoint restore makes the payloads in flight outside the
// pools, and a fork loop that put them all back would grow a pool by
// that many per restore. A nil pool allocates every Get and drops every
// Put.
type Pool[T any] struct {
	free []*T
	out  int
}

const (
	// PoolChunk is how many objects an empty pool allocates at once.
	PoolChunk = 32
	// PoolCap bounds a pool's free list.
	PoolCap = 1 << 15
)

// Get returns a zeroed object.
func (p *Pool[T]) Get() *T {
	if p == nil {
		return new(T)
	}
	if len(p.free) == 0 {
		chunk := make([]T, PoolChunk)
		if cap(p.free) < PoolChunk {
			p.free = make([]*T, 0, 2*PoolChunk)
		}
		for i := range chunk {
			p.free = append(p.free, &chunk[i])
		}
	}
	n := len(p.free) - 1
	x := p.free[n]
	p.free = p.free[:n]
	p.out++
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
