package cache

// msgPool recycles protocol messages for the controllers of one shard
// engine. Pools are engine-local on purpose: every controller schedules
// and handles on its node's shard engine, so a pool is only ever touched
// by that engine's goroutine and needs no locking (the same rule the noc
// flit pools and core token pools follow). Messages migrate between
// pools — an L1 at one shard allocates a GetS that the home L2 at
// another shard eventually frees — which is safe because a message is
// owned by exactly one controller at a time.
//
// Ownership: a message is pool-owned from get until the handler that
// receives it returns; every controller that keeps one past that (a
// home bank's transaction request and pending queue, a memory node's
// read in flight) keeps a copy. So between deliveries a message has one
// holder, the packet carrying it, and the checkpoint layer copies it
// plainly.
type msgPool struct {
	free []*Msg
	// out is gets minus puts. Summed over the pools it is 0 once a run
	// has drained — unless it restored a checkpoint, which drops the
	// messages in flight and re-makes the saved ones outside the pools.
	out int
}

// msgPoolCap bounds the free list; overflow falls back to the GC.
const msgPoolCap = 1 << 15

// get returns a zeroed message.
func (p *msgPool) get() *Msg {
	if p == nil {
		return new(Msg)
	}
	p.out++
	if len(p.free) == 0 {
		return new(Msg)
	}
	m := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	*m = Msg{}
	return m
}

// put recycles a consumed message.
func (p *msgPool) put(m *Msg) {
	if p == nil || m == nil {
		return
	}
	p.out--
	if len(p.free) < msgPoolCap {
		p.free = append(p.free, m)
	}
}

// slab parks the records of pending typed events (sim.ScheduleCall): an
// event's argument is its record's slot. A record is copied in before
// the message it came from is recycled, and its slot is freed before the
// callee acts on it, so a re-entrant park may reuse the slot. Snapshots
// copy recs and free as they are: pending events name slots.
type slab[T any] struct {
	recs []T
	free []int32
}

// park stores r and returns its slot.
func (s *slab[T]) park(r T) int64 {
	if k := len(s.free); k > 0 {
		i := s.free[k-1]
		s.free = s.free[:k-1]
		s.recs[i] = r
		return int64(i)
	}
	s.recs = append(s.recs, r)
	return int64(len(s.recs) - 1)
}

// take frees slot, zeroing it, and returns the record it held.
func (s *slab[T]) take(slot int64) (r T) {
	r, s.recs[slot] = s.recs[slot], r
	s.free = append(s.free, int32(slot))
	return r
}

// copyFrom makes s a slot-for-slot copy of o, reusing s's storage.
func (s *slab[T]) copyFrom(o *slab[T]) {
	s.recs = append(s.recs[:0], o.recs...)
	s.free = append(s.free[:0], o.free...)
}

// blockTable is a compact open-addressed uint64 → int32 map: linear
// probing, power-of-two capacity, backward-shift deletion (no
// tombstones). It replaces the home bank's directory and transaction
// maps — keyed by block address, sized once and reused for the run.
// The zero value is an empty table.
type blockTable struct {
	keys []uint64
	vals []int32
	live []bool
	n    int
}

func blockHash(k uint64) uint64 {
	k *= 0x9e3779b97f4a7c15
	return k ^ (k >> 32)
}

// get returns the value for key.
func (t *blockTable) get(key uint64) (int32, bool) {
	if t.n == 0 {
		return 0, false
	}
	mask := uint64(len(t.keys) - 1)
	for i := blockHash(key) & mask; t.live[i]; i = (i + 1) & mask {
		if t.keys[i] == key {
			return t.vals[i], true
		}
	}
	return 0, false
}

// put inserts or overwrites key.
func (t *blockTable) put(key uint64, val int32) {
	if len(t.keys) == 0 || t.n*4 >= len(t.keys)*3 {
		t.grow()
	}
	mask := uint64(len(t.keys) - 1)
	i := blockHash(key) & mask
	for t.live[i] {
		if t.keys[i] == key {
			t.vals[i] = val
			return
		}
		i = (i + 1) & mask
	}
	t.keys[i], t.vals[i], t.live[i] = key, val, true
	t.n++
}

// del removes key, if present, shifting the displaced run backward so
// no tombstone is left behind.
func (t *blockTable) del(key uint64) {
	if t.n == 0 {
		return
	}
	mask := uint64(len(t.keys) - 1)
	i := blockHash(key) & mask
	for {
		if !t.live[i] {
			return
		}
		if t.keys[i] == key {
			break
		}
		i = (i + 1) & mask
	}
	j := i
	for {
		j = (j + 1) & mask
		if !t.live[j] {
			break
		}
		h := blockHash(t.keys[j]) & mask
		if (j-h)&mask >= (j-i)&mask {
			t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
			i = j
		}
	}
	t.live[i] = false
	t.n--
}

// copyFrom makes t a copy of o, reusing t's storage. An empty o resets
// t instead: where an empty table's slots lie is unobservable.
func (t *blockTable) copyFrom(o *blockTable) {
	if o.n == 0 {
		clear(t.live)
		t.n = 0
		return
	}
	t.keys = append(t.keys[:0], o.keys...)
	t.vals = append(t.vals[:0], o.vals...)
	t.live = append(t.live[:0], o.live...)
	t.n = o.n
}

func (t *blockTable) grow() {
	n := len(t.keys) * 2
	if n < 16 {
		n = 16
	}
	keys, vals, live := t.keys, t.vals, t.live
	t.keys = make([]uint64, n)
	t.vals = make([]int32, n)
	t.live = make([]bool, n)
	t.n = 0
	for i, ok := range live {
		if ok {
			t.put(keys[i], vals[i])
		}
	}
}
