package flat

import "slices"

// Ring is a FIFO over one backing array: Pop advances the head, O(1) at
// any length, and the array at least doubles, only when a Push finds it
// full. The zero value is an empty ring.
//
// Where the oldest entry sits in the array is unobservable: CopyFrom
// copies the entries oldest first to the front of its own array.
type Ring[T any] struct {
	buf  []T
	head int
	n    int
}

// RingOver returns an empty ring over a carved window, its initial
// capacity.
func RingOver[T any](buf []T) Ring[T] { return Ring[T]{buf: buf} }

// Len returns the number of entries.
func (q *Ring[T]) Len() int { return q.n }

// Cap returns the length of the backing array.
func (q *Ring[T]) Cap() int { return len(q.buf) }

// Push appends v.
func (q *Ring[T]) Push(v T) {
	if q.n == len(q.buf) {
		// Twice the length, rounded up to the allocator's size class as
		// append rounds, so a ring grows no more often than a slice.
		buf := slices.Grow([]T(nil), max(2*len(q.buf), 8))
		buf = buf[:cap(buf)]
		k := copy(buf, q.buf[q.head:])
		copy(buf[k:], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
}

// Pop removes and returns the oldest entry, zeroing its slot.
func (q *Ring[T]) Pop() (v T) {
	v, q.buf[q.head] = q.buf[q.head], v
	if q.head++; q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return v
}

// At returns the i-th oldest entry.
func (q *Ring[T]) At(i int) T { return q.buf[(q.head+i)%len(q.buf)] }

// Clear empties the ring, zeroing its array.
func (q *Ring[T]) Clear() {
	clear(q.buf)
	q.head, q.n = 0, 0
}
