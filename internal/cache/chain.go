package cache

// chain is a FIFO of records in a links slab: its oldest and newest
// slots plus one, so the zero value is empty (tail is read only while
// head is set). Its owner keeps it by value; a chain copied out of its
// owner can be popped while records are pushed onto others, since slots
// never move.
type chain struct{ head, tail int32 }

func (c chain) empty() bool { return c.head == 0 }

// links is a slab of records threaded into chains, with a free list
// through the same link field: push appends at a chain's tail and pop
// takes its head, both O(1), and a popped slot is the next one pushed.
// The zero value is empty.
type links[T any] struct {
	recs []link[T]
	free int32 // first free slot plus one, 0 when none
}

type link[T any] struct {
	v    T
	next int32 // next slot of the chain or free list plus one, 0 at its end
}

// push appends v to c.
func (l *links[T]) push(c *chain, v T) {
	i := l.free
	if i != 0 {
		l.free = l.recs[i-1].next
	} else {
		l.recs = append(l.recs, link[T]{})
		i = int32(len(l.recs))
	}
	l.recs[i-1] = link[T]{v: v}
	if c.head != 0 {
		l.recs[c.tail-1].next = i
	} else {
		c.head = i
	}
	c.tail = i
}

// pop removes and returns c's oldest record, zeroing and freeing its
// slot; c must not be empty.
func (l *links[T]) pop(c *chain) (v T) {
	i := c.head
	v, c.head = l.recs[i-1].v, l.recs[i-1].next
	l.recs[i-1] = link[T]{next: l.free}
	l.free = i
	return v
}
