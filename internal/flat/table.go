package flat

// Table is a compact open-addressed map from a uint32 or uint64 key to
// an int32, the index of a record in some side slab: linear probing,
// power-of-two capacity, at most 0.75 load, and backward-shift deletion,
// which leaves no tombstones, so lookups stay short-probed however much
// the keys churn. The zero value is an empty table.
//
// Where a key sits in the array is unobservable: nothing iterates a
// table, so a snapshot copies it whole and an empty one resets. The
// entries are one array, so a grow is one allocation.
type Table[K uint32 | uint64] struct {
	ents []Entry[K]
	n    int
}

// Entry is one cell of a Table's array; it is exported only so a
// builder can carve tables' windows from one slab (see TableOver).
type Entry[K uint32 | uint64] struct {
	key  K
	val  int32
	live bool
}

// TableOver returns an empty table over a carved window of power-of-two
// length, its initial capacity; the table grows past it into storage of
// its own.
func TableOver[K uint32 | uint64](ents []Entry[K]) Table[K] {
	return Table[K]{ents: ents}
}

func hash[K uint32 | uint64](k K) uint64 {
	h := uint64(k) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// Len returns the number of keys.
func (t *Table[K]) Len() int { return t.n }

// Reset removes every key, keeping the capacity.
func (t *Table[K]) Reset() {
	clear(t.ents)
	t.n = 0
}

// Get returns the value for key.
func (t *Table[K]) Get(key K) (int32, bool) {
	if t.n == 0 {
		return 0, false
	}
	mask := uint64(len(t.ents) - 1)
	for i := hash(key) & mask; t.ents[i].live; i = (i + 1) & mask {
		if t.ents[i].key == key {
			return t.ents[i].val, true
		}
	}
	return 0, false
}

// Put inserts or overwrites key.
func (t *Table[K]) Put(key K, val int32) {
	if len(t.ents) == 0 || t.n*4 >= len(t.ents)*3 {
		t.grow()
	}
	mask := uint64(len(t.ents) - 1)
	i := hash(key) & mask
	for t.ents[i].live {
		if t.ents[i].key == key {
			t.ents[i].val = val
			return
		}
		i = (i + 1) & mask
	}
	t.ents[i] = Entry[K]{key: key, val: val, live: true}
	t.n++
}

// Del removes key, if present, shifting the displaced run backward so
// no tombstone is left behind.
func (t *Table[K]) Del(key K) {
	if t.n == 0 {
		return
	}
	mask := uint64(len(t.ents) - 1)
	i := hash(key) & mask
	for {
		if !t.ents[i].live {
			return
		}
		if t.ents[i].key == key {
			break
		}
		i = (i + 1) & mask
	}
	// An entry at j may fill the hole at i only if its home slot h does
	// not lie cyclically in (i, j].
	for j := i; ; {
		j = (j + 1) & mask
		if !t.ents[j].live {
			break
		}
		h := hash(t.ents[j].key) & mask
		if (j-h)&mask >= (j-i)&mask {
			t.ents[i] = t.ents[j]
			i = j
		}
	}
	t.ents[i].live = false
	t.n--
}

// grow doubles the capacity (16 at least) and re-inserts every key.
func (t *Table[K]) grow() {
	old := t.ents
	t.ents = make([]Entry[K], max(2*len(old), 16))
	t.n = 0
	for _, e := range old {
		if e.live {
			t.Put(e.key, e.val)
		}
	}
}
