package flat

// Cap returns the length of the backing array.
func (q *Ring[T]) Cap() int { return len(q.buf) }

// AppendTo appends the entries to dst, oldest first, and returns it.
func (q *Ring[T]) AppendTo(dst []T) []T {
	if q.n == 0 {
		return dst
	}
	if q.head+q.n <= len(q.buf) {
		return append(dst, q.buf[q.head:q.head+q.n]...)
	}
	dst = append(dst, q.buf[q.head:]...)
	return append(dst, q.buf[:q.head+q.n-len(q.buf)]...)
}

// Live returns the number of slots in use.
func (s *Slots[T]) Live() int { return len(s.recs) - len(s.free) }
