package flat

// Table is a compact open-addressed map from a uint32 or uint64 key to
// an int32, the index of a record in some side slab: linear probing,
// power-of-two capacity, at most 0.75 load, and backward-shift deletion,
// which leaves no tombstones, so lookups stay short-probed however much
// the keys churn. The zero value is an empty table.
//
// Where a key sits in the arrays is unobservable: nothing iterates a
// table, so a snapshot copies it whole and an empty one resets.
type Table[K uint32 | uint64] struct {
	keys []K
	vals []int32
	live []bool
	n    int
}

// TableOver returns an empty table over carved windows of one
// power-of-two length. The windows are its initial capacity; the table
// grows past them into storage of its own.
func TableOver[K uint32 | uint64](keys []K, vals []int32, live []bool) Table[K] {
	return Table[K]{keys: keys, vals: vals, live: live}
}

func hash[K uint32 | uint64](k K) uint64 {
	h := uint64(k) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// Len returns the number of keys.
func (t *Table[K]) Len() int { return t.n }

// Get returns the value for key.
func (t *Table[K]) Get(key K) (int32, bool) {
	if t.n == 0 {
		return 0, false
	}
	mask := uint64(len(t.keys) - 1)
	for i := hash(key) & mask; t.live[i]; i = (i + 1) & mask {
		if t.keys[i] == key {
			return t.vals[i], true
		}
	}
	return 0, false
}

// Put inserts or overwrites key.
func (t *Table[K]) Put(key K, val int32) {
	if len(t.keys) == 0 || t.n*4 >= len(t.keys)*3 {
		t.grow()
	}
	mask := uint64(len(t.keys) - 1)
	i := hash(key) & mask
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

// Del removes key, if present, shifting the displaced run backward so
// no tombstone is left behind.
func (t *Table[K]) Del(key K) {
	if t.n == 0 {
		return
	}
	mask := uint64(len(t.keys) - 1)
	i := hash(key) & mask
	for {
		if !t.live[i] {
			return
		}
		if t.keys[i] == key {
			break
		}
		i = (i + 1) & mask
	}
	// An entry at j may fill the hole at i only if its home slot h does
	// not lie cyclically in (i, j].
	for j := i; ; {
		j = (j + 1) & mask
		if !t.live[j] {
			break
		}
		h := hash(t.keys[j]) & mask
		if (j-h)&mask >= (j-i)&mask {
			t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
			i = j
		}
	}
	t.live[i] = false
	t.n--
}

// grow doubles the capacity (16 at least) and re-inserts every key.
func (t *Table[K]) grow() {
	n := max(2*len(t.keys), 16)
	keys, vals, live := t.keys, t.vals, t.live
	t.keys = make([]K, n)
	t.vals = make([]int32, n)
	t.live = make([]bool, n)
	t.n = 0
	for i, ok := range live {
		if ok {
			t.Put(keys[i], vals[i])
		}
	}
}
