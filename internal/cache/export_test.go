package cache

import (
	"fmt"

	"snacknoc/internal/flat"
)

// CheckDrained is the drain-conservation check (ROADMAP 6e, cache half):
// on a system that has run to quiescence without a checkpoint restore,
// every pooled message is back in the pool, every home transaction slot,
// pending request and parked-event slot is free, and no L1 has a miss
// or a queued access outstanding. It returns the first leak found.
func (s *System) CheckDrained() error {
	if out := s.pool.Out(); out != 0 {
		return fmt.Errorf("cache: %d pooled messages outstanding at drain", out)
	}
	for i, l := range s.L1s {
		if n := l.Outstanding(); n != 0 {
			return fmt.Errorf("cache: l1 %d has %d misses outstanding at drain", i, n)
		}
		if n := live(&l.parked); n != 0 {
			return fmt.Errorf("cache: l1 %d has %d parked accesses at drain", i, n)
		}
		if n := len(l.waits.recs) - freeLen(&l.waits); n != 0 {
			return fmt.Errorf("cache: l1 %d has %d queued accesses at drain", i, n)
		}
	}
	if live(&s.txns) != 0 || s.txnTab.Len() != 0 {
		return fmt.Errorf("cache: %d of %d transaction slots live (%d blocks busy) at drain",
			live(&s.txns), s.txns.Len(), s.txnTab.Len())
	}
	if n := len(s.pending.recs) - freeLen(&s.pending); n != 0 {
		return fmt.Errorf("cache: %d pending requests at drain", n)
	}
	for _, mn := range s.memNodes {
		if n := live(&s.Mems[mn].reads); n != 0 {
			return fmt.Errorf("cache: mem %d has %d reads in flight at drain", mn, n)
		}
	}
	return nil
}

// freeLen returns the length of l's free list.
func freeLen[T any](l *links[T]) int {
	n := 0
	for i := l.free; i != 0; i = l.recs[i-1].next {
		n++
	}
	return n
}

// OutstandingMisses sums in-flight L1 misses across the system; a fully
// drained system returns 0.
func (s *System) OutstandingMisses() int {
	n := 0
	for _, l := range s.L1s {
		n += l.Outstanding()
	}
	return n
}

// AvgMissLatency returns the mean L1-miss service time in cycles.
func (l *L1) AvgMissLatency() float64 {
	if l.latCount == 0 {
		return 0
	}
	return float64(l.latSum) / float64(l.latCount)
}

// NewCache builds a standalone tag store of the given total size and
// associativity with 64 B blocks; the geometry must be valid.
func NewCache(sizeBytes, ways int) *Cache {
	sets, err := geometry(sizeBytes, ways)
	if err != nil {
		panic(err)
	}
	c := newCache(sets, ways, make([]line, sets*ways))
	return &c
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// HitRate returns hits/(hits+misses), 0 before any lookup.
func (c *Cache) HitRate() float64 {
	t := c.hits + c.misses
	if t == 0 {
		return 0
	}
	return float64(c.hits) / float64(t)
}

// Accesses returns the number of lookups performed.
func (c *Cache) Accesses() int64 { return c.hits + c.misses }

// Access issues one memory operation for the given cache block. done is
// invoked when the operation completes (hit latency later on a hit, after
// the fill on a miss). It reports whether the access hit.
func (l *L1) Access(block uint64, write bool, done func(cycle int64)) bool {
	return l.access(block, write, waiter{done: doneFunc(done)})
}

// doneFunc adapts a test's callback to a MissWaiter.
type doneFunc func(cycle int64)

func (f doneFunc) MissDone(cycle int64) { f(cycle) }

// Cache exposes the tag store for inspection in tests and reports.
func (l *L1) Cache() *Cache { return &l.cache }

// Cache exposes the bank's tag store.
func (b *L2Bank) Cache() *Cache { return &b.cache }

// live returns how many of s's slots are in use.
func live[T any](s *flat.Slots[T]) int { return s.Len() - len(s.FreeSlots()) }
