package cache

import "fmt"

// CheckDrained is the drain-conservation check (ROADMAP 6e, cache half):
// on a system that has run to quiescence without a checkpoint restore,
// every pooled message is back in a pool, every home transaction slot
// and every parked-event slot is free, and no L1 has a miss outstanding.
// It returns the first leak found.
func (s *System) CheckDrained() error {
	out := 0
	for _, p := range s.pools {
		out += p.Out()
	}
	if out != 0 {
		return fmt.Errorf("cache: %d pooled messages outstanding at drain", out)
	}
	for i, l := range s.L1s {
		if n := l.Outstanding(); n != 0 {
			return fmt.Errorf("cache: l1 %d has %d misses outstanding at drain", i, n)
		}
		if n := l.parked.Live(); n != 0 {
			return fmt.Errorf("cache: l1 %d has %d parked accesses at drain", i, n)
		}
	}
	for i, b := range s.L2s {
		if b.txns.Live() != 0 || b.txnTab.Len() != 0 {
			return fmt.Errorf("cache: l2 %d has %d of %d transaction slots live (%d blocks busy) at drain",
				i, b.txns.Live(), b.txns.Len(), b.txnTab.Len())
		}
	}
	for _, mn := range s.memNodes {
		if n := s.Mems[mn].reads.Live(); n != 0 {
			return fmt.Errorf("cache: mem %d has %d reads in flight at drain", mn, n)
		}
	}
	return nil
}
