package flat

// Checkpoint support: each container copies itself into its own storage,
// so one method both takes a snapshot (saved.CopyFrom(&live)) and
// restores it (live.CopyFrom(&saved)), and a repeat restore allocates
// nothing.

// CopyFrom makes t a copy of o, reusing t's storage. An empty o clears
// t instead, keeping its capacity.
func (t *Table[K]) CopyFrom(o *Table[K]) {
	if o.n == 0 {
		t.Reset()
		return
	}
	t.ents = append(t.ents[:0], o.ents...)
	t.n = o.n
}

// CopyFrom makes s a slot-for-slot copy of o, its records copied as
// values, reusing s's storage.
func (s *Slots[T]) CopyFrom(o *Slots[T]) {
	s.recs = append(s.recs[:0], o.recs...)
	s.free = s.free[:0]
	s.fitFree()
	s.free = append(s.free, o.free...)
}

// CopyFrom makes l a record-for-record copy of o, values copied as
// values, reusing l's storage; records past o's are zeroed.
func (l *Links[T]) CopyFrom(o *Links[T]) {
	n := len(l.recs)
	l.recs = append(l.recs[:0], o.recs...)
	if n > len(l.recs) {
		clear(l.recs[len(l.recs):n])
	}
	l.free = o.free
}

// CopyFrom makes q hold o's entries, oldest first, from the front of its
// own array, which grows only when o holds more than it fits, and zeroes
// the rest of the array.
func (q *Ring[T]) CopyFrom(o *Ring[T]) {
	if len(q.buf) < o.n {
		q.buf = make([]T, o.n)
	}
	k := copy(q.buf[:o.n], o.buf[o.head:])
	copy(q.buf[k:o.n], o.buf)
	q.head, q.n = 0, o.n
	clear(q.buf[o.n:])
}
