package flat

// Slots is a slot array with a LIFO free stack: records that something
// else names by slot number, an int32 (a table value, a chain link, the
// argument of a pending engine event). A freed slot is the next one
// Alloc hands out, and a slot never moves, so its number stays valid
// until it is freed; a pointer from At stays valid until the next Alloc
// that grows the array. The zero value is empty.
//
// A snapshot copies the array and the free stack slot for slot, because
// pending events and chains name slots.
//
// The free stack's capacity keeps up with the records' (it can never
// hold more entries than there are slots), so Free never allocates.
type Slots[T any] struct {
	recs []T
	free []int32
}

// SlotsOver returns an empty Slots over carved windows, its initial
// capacity: recs for the records and free, at least as long, for the
// free stack.
func SlotsOver[T any](recs []T, free []int32) Slots[T] {
	return Slots[T]{recs: recs[:0], free: free[:0]}
}

// Alloc takes a slot and returns its number. The slot holds whatever its
// last holder left there: zero after Take, not after Free.
func (s *Slots[T]) Alloc() int32 {
	if k := len(s.free); k > 0 {
		i := s.free[k-1]
		s.free = s.free[:k-1]
		return i
	}
	var zero T
	s.recs = append(s.recs, zero)
	s.fitFree()
	return int32(len(s.recs) - 1)
}

// fitFree gives an empty free stack room for every slot.
func (s *Slots[T]) fitFree() {
	if cap(s.free) < cap(s.recs) {
		s.free = make([]int32, 0, cap(s.recs))
	}
}

// At returns the record in slot i.
func (s *Slots[T]) At(i int32) *T { return &s.recs[i] }

// Free returns slot i to the free stack as it is.
func (s *Slots[T]) Free(i int32) { s.free = append(s.free, i) }

// Park stores r in a fresh slot and returns its number.
func (s *Slots[T]) Park(r T) int32 {
	i := s.Alloc()
	s.recs[i] = r
	return i
}

// Take frees slot i, zeroing it, and returns the record it held.
func (s *Slots[T]) Take(i int32) (r T) {
	r, s.recs[i] = s.recs[i], r
	s.Free(i)
	return r
}

// Reset frees every slot at once: the next Alloc hands out slot 0, as on
// an empty Slots, and the storage is kept.
func (s *Slots[T]) Reset() {
	s.recs, s.free = s.recs[:0], s.free[:0]
}

// Len returns the number of slots, live or free: At is valid below it.
func (s *Slots[T]) Len() int { return len(s.recs) }

// FreeSlots returns the free stack, bottom first, for inspection only.
func (s *Slots[T]) FreeSlots() []int32 { return s.free }
