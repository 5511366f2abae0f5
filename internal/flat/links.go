package flat

// Chain is a FIFO of records in a Links slab: its oldest and newest
// records' numbers plus one, so the zero value is empty (tail is read
// only while head is set). Its owner keeps it by value; a chain copied
// out of its owner can be popped while records are linked into others,
// since a record's number never changes.
type Chain struct{ head, tail int32 }

// Empty reports whether c holds no record.
func (c Chain) Empty() bool { return c.head == 0 }

// Head returns c's oldest record, -1 when c is empty.
func (c Chain) Head() int32 { return c.head - 1 }

// Tail returns c's newest record, -1 when c is empty.
func (c Chain) Tail() int32 {
	if c.head == 0 {
		return -1
	}
	return c.tail - 1
}

// Links is a slab of records threaded into chains, with a free list
// through the same link field: Push appends at a chain's tail and Pop
// takes its head, both O(1), InsertAfter links a record anywhere in a
// chain, and Park takes a record that no chain holds yet (the event
// wheel's overflow heap names such records by number). A popped record
// is the next one handed out, and a free record holds the zero value. A
// record's number stays valid until it is popped; a pointer from At
// stays valid until the next Park or Push that grows the slab, which
// doubles it from its first window, or from LinksChunk records. The
// zero value is empty.
//
// A snapshot copies the slab and the free list's head slot for slot,
// because chains and whatever else names records keep their numbers.
type Links[T any] struct {
	recs []Link[T]
	free int32 // first free record plus one, 0 when none
}

// Link is one record of a Links slab; it is exported only so a builder
// can carve slabs' windows from one array (see LinksOver).
type Link[T any] struct {
	v    T
	next int32 // next record of its chain or the free list plus one, 0 at the end
}

// LinksChunk is the size of a Links slab's first allocation when it
// starts without a window.
const LinksChunk = 32

// LinksOver returns an empty Links over a carved window, its initial
// capacity.
func LinksOver[T any](w []Link[T]) Links[T] { return Links[T]{recs: w[:0]} }

// Park takes a free record, which holds the zero value and which no
// chain holds, and returns its number.
func (l *Links[T]) Park() int32 {
	i := l.free
	if i == 0 {
		return l.add()
	}
	l.free, l.recs[i-1].next = l.recs[i-1].next, 0
	return i - 1
}

// add appends a zero record, doubling the slab when it is full, and
// returns its number.
func (l *Links[T]) add() int32 {
	if n := cap(l.recs); len(l.recs) == n {
		if n == 0 {
			n = LinksChunk / 2
		}
		recs := make([]Link[T], len(l.recs), 2*n)
		copy(recs, l.recs)
		l.recs = recs
	}
	l.recs = l.recs[:len(l.recs)+1]
	return int32(len(l.recs) - 1)
}

// Push appends v to c.
func (l *Links[T]) Push(c *Chain, v T) {
	i := l.Park()
	l.recs[i].v = v
	l.InsertAfter(c, c.Tail(), i)
}

// InsertAfter links record i, which no chain holds, into c after c's
// record prev, or at c's head when prev is -1.
func (l *Links[T]) InsertAfter(c *Chain, prev, i int32) {
	n := i + 1
	if prev < 0 {
		l.recs[i].next = c.head
		if c.head == 0 {
			c.tail = n
		}
		c.head = n
		return
	}
	l.recs[i].next = l.recs[prev].next
	l.recs[prev].next = n
	if c.tail == prev+1 {
		c.tail = n
	}
}

// Pop removes and returns c's oldest record, zeroing and freeing it; c
// must not be empty.
func (l *Links[T]) Pop(c *Chain) (v T) {
	i := c.head
	r := &l.recs[i-1]
	v, c.head = r.v, r.next
	*r = Link[T]{next: l.free}
	l.free = i
	return v
}

// At returns the value of record i.
func (l *Links[T]) At(i int32) *T { return &l.recs[i].v }

// Next returns the record after i in its chain, -1 at the chain's end.
func (l *Links[T]) Next(i int32) int32 { return l.recs[i].next - 1 }

// Reset frees every record at once: the next Park hands out record 0,
// as on an empty Links, and the storage is kept.
func (l *Links[T]) Reset() {
	clear(l.recs)
	l.recs, l.free = l.recs[:0], 0
}

// Len returns the number of records, live or free.
func (l *Links[T]) Len() int { return len(l.recs) }

// Idle returns the number of free records, for inspection only: it
// walks the free list.
func (l *Links[T]) Idle() int {
	n := 0
	for i := l.free; i != 0; i = l.recs[i-1].next {
		n++
	}
	return n
}
