package cache

import "fmt"

// live returns the number of parked records.
func (s *slab[T]) live() int { return len(s.recs) - len(s.free) }

// CheckDrained is the drain-conservation check (ROADMAP 6e, cache half):
// on a system that has run to quiescence without a checkpoint restore,
// every pooled message is back in a pool, every home transaction slot
// and every parked-event slot is free, and no L1 has a miss outstanding.
// It returns the first leak found.
func (s *System) CheckDrained() error {
	out := 0
	for _, p := range s.pools {
		out += p.out
	}
	if out != 0 {
		return fmt.Errorf("cache: %d pooled messages outstanding at drain", out)
	}
	for i, l := range s.L1s {
		if n := l.Outstanding(); n != 0 {
			return fmt.Errorf("cache: l1 %d has %d misses outstanding at drain", i, n)
		}
		if n := l.parked.live(); n != 0 {
			return fmt.Errorf("cache: l1 %d has %d parked accesses at drain", i, n)
		}
	}
	for i, b := range s.L2s {
		if len(b.txnFree) != len(b.txnSlots) || b.txnTab.n != 0 {
			return fmt.Errorf("cache: l2 %d has %d of %d transaction slots free (%d blocks busy) at drain",
				i, len(b.txnFree), len(b.txnSlots), b.txnTab.n)
		}
	}
	for _, mn := range s.memNodes {
		if n := s.Mems[mn].reads.live(); n != 0 {
			return fmt.Errorf("cache: mem %d has %d reads in flight at drain", mn, n)
		}
	}
	return nil
}
