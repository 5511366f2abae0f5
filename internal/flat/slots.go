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
type Slots[T any] struct {
	recs []T
	free []int32
}

// SlotsOver returns an empty Slots over carved windows, its initial
// capacity: recs for the records and free for the free stack.
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
	return int32(len(s.recs) - 1)
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

// Len returns the number of slots, live or free: At is valid below it.
func (s *Slots[T]) Len() int { return len(s.recs) }

// Live returns the number of slots in use.
func (s *Slots[T]) Live() int { return len(s.recs) - len(s.free) }

// FreeSlots returns the free stack, bottom first, for inspection only.
func (s *Slots[T]) FreeSlots() []int32 { return s.free }
