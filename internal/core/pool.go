package core

// TokenPool recycles instruction and data tokens for all compute
// components driven by one sim.Engine — one shard of the mesh. Pools
// are engine-local on purpose: shard goroutines never share a pool, so
// no locking is needed (the same rule PR 6 applied to flit pools).
//
// Ownership: a pooled token exists only in flight. It is minted when it
// enters the network — an instruction or input token when the CPM sends
// its command-stream entry, a spilled token when the CPM re-injects it,
// a result when an RCU's port takes it — and goes back to the pool the
// moment it leaves: an instruction when its RCU copies it into a slot, a
// data token when its dependent count reaches zero (loop capture or CPM
// result collection) or the CPM's overflow path copies it out. Every
// other holder keeps tokens by value, so a token has one holder at a
// time and a checkpoint copies it plainly. Free lists are deliberately
// invisible to internal/checkpoint: pool contents are unobservable, like
// the flit free lists.
type TokenPool struct {
	instr []*InstrToken
	data  []*DataToken
}

// tokenPoolCap bounds each free list so a pathological produce/consume
// imbalance cannot grow a pool without bound; overflow falls back to GC.
const tokenPoolCap = 1 << 15

// NewTokenPool returns an empty pool.
func NewTokenPool() *TokenPool { return &TokenPool{} }

// tokenChunk is how many tokens an empty free list allocates at once, so
// a platform's first kernel costs a few allocations instead of one per
// token in flight.
const tokenChunk = 64

// refill restocks an empty free list with one chunk of fresh tokens.
func refill[T any](free []*T) []*T {
	chunk := make([]T, tokenChunk)
	if cap(free) < tokenChunk {
		free = make([]*T, 0, 2*tokenChunk)
	}
	for i := range chunk {
		free = append(free, &chunk[i])
	}
	return free
}

// GetInstr returns a zeroed instruction token.
func (p *TokenPool) GetInstr() *InstrToken {
	if p == nil {
		return new(InstrToken)
	}
	if len(p.instr) == 0 {
		p.instr = refill(p.instr)
	}
	it := p.instr[len(p.instr)-1]
	p.instr = p.instr[:len(p.instr)-1]
	*it = InstrToken{}
	return it
}

// PutInstr recycles a consumed instruction token.
func (p *TokenPool) PutInstr(it *InstrToken) {
	if p == nil || it == nil || len(p.instr) >= tokenPoolCap {
		return
	}
	p.instr = append(p.instr, it)
}

// GetData returns a zeroed data token.
func (p *TokenPool) GetData() *DataToken {
	if p == nil {
		return new(DataToken)
	}
	if len(p.data) == 0 {
		p.data = refill(p.data)
	}
	d := p.data[len(p.data)-1]
	p.data = p.data[:len(p.data)-1]
	*d = DataToken{}
	return d
}

// PutData recycles a consumed data token.
func (p *TokenPool) PutData(d *DataToken) {
	if p == nil || d == nil || len(p.data) >= tokenPoolCap {
		return
	}
	p.data = append(p.data, d)
}

// u32Table is a compact open-addressed uint32 → int32 map: linear
// probing, power-of-two capacity, backward-shift deletion (no
// tombstones, so lookups stay short-probed no matter the churn). It
// replaces the RCU's per-kernel `map[uint32]*sbQueue` and
// `map[DepID][]*InstrToken` — both sized once and reused across
// kernels. The zero value is an empty table.
type u32Table struct {
	keys []uint32
	vals []int32
	live []bool
	n    int
}

func u32hash(key uint32) uint32 { return key * 2654435761 }

// get returns the value for key.
func (t *u32Table) get(key uint32) (int32, bool) {
	if t.n == 0 {
		return 0, false
	}
	mask := uint32(len(t.keys) - 1)
	for i := u32hash(key) & mask; t.live[i]; i = (i + 1) & mask {
		if t.keys[i] == key {
			return t.vals[i], true
		}
	}
	return 0, false
}

// put inserts or overwrites key.
func (t *u32Table) put(key uint32, val int32) {
	if len(t.keys) == 0 || t.n*4 >= len(t.keys)*3 {
		t.grow()
	}
	mask := uint32(len(t.keys) - 1)
	i := u32hash(key) & mask
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
func (t *u32Table) del(key uint32) {
	if t.n == 0 {
		return
	}
	mask := uint32(len(t.keys) - 1)
	i := u32hash(key) & mask
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
		h := u32hash(t.keys[j]) & mask
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
func (t *u32Table) copyFrom(o *u32Table) {
	if o.n == 0 {
		t.reset()
		return
	}
	t.keys = append(t.keys[:0], o.keys...)
	t.vals = append(t.vals[:0], o.vals...)
	t.live = append(t.live[:0], o.live...)
	t.n = o.n
}

// reset empties the table, keeping its capacity.
func (t *u32Table) reset() {
	for i := range t.live {
		t.live[i] = false
	}
	t.n = 0
}

func (t *u32Table) grow() {
	n := len(t.keys) * 2
	if n < 16 {
		n = 16
	}
	keys, vals, live := t.keys, t.vals, t.live
	t.keys = make([]uint32, n)
	t.vals = make([]int32, n)
	t.live = make([]bool, n)
	t.n = 0
	for i, ok := range live {
		if ok {
			t.put(keys[i], vals[i])
		}
	}
}

// ring is a FIFO of values over one backing array that doubles when
// full.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

// push appends v.
func (q *ring[T]) push(v T) {
	if q.n == len(q.buf) {
		buf := make([]T, max(2*len(q.buf), 8))
		k := copy(buf, q.buf[q.head:])
		copy(buf[k:], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
}

// pop removes and returns the oldest entry.
func (q *ring[T]) pop() T {
	v := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return v
}

// live returns a copy of the entries, oldest first; nil when empty.
func (q *ring[T]) live() []T {
	if q.n == 0 {
		return nil
	}
	out := make([]T, q.n)
	k := copy(out, q.buf[q.head:])
	copy(out[k:], q.buf)
	return out
}

// restore makes the ring hold entries, oldest first, from the front of
// its array: where a ring starts in its array is unobservable.
func (q *ring[T]) restore(entries []T) {
	if len(q.buf) < len(entries) {
		q.buf = make([]T, len(entries))
	}
	q.head, q.n = 0, copy(q.buf, entries)
}
