// Package flat holds the containers the simulator's hot state is built
// from: an open-addressed table, a free-list pool, a FIFO ring, a slot
// array with a free stack, a slab of records linked into FIFO chains
// and a bit set of small indices. Each is one implementation shared by
// the noc, core, cache, sim and cpu layers, so each invariant the
// checkpoint layer relies on (DESIGN §11) is written and tested once.
//
// None of them locks: every container is owned by one engine, and an
// engine runs on at most one goroutine at a time.
package flat

// Carve cuts the next n elements off the front of *slab as a
// full-capacity window (s[a:b:b]), so growth past it reallocates instead
// of running into the neighbouring window. Builders allocate one slab
// per structure for a whole mesh and carve each component's share.
func Carve[T any](slab *[]T, n int) []T {
	w := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return w
}
