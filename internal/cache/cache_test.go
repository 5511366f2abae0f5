package cache

import (
	"strings"
	"testing"

	"snacknoc/internal/noc"
	"snacknoc/internal/sim"
)

func TestCacheGeometry(t *testing.T) {
	c := NewCache(32*1024, 4)
	if c.Sets() != 128 || c.Ways() != 4 {
		t.Fatalf("32KB 4-way: sets=%d ways=%d, want 128/4", c.Sets(), c.Ways())
	}
}

// TestCacheBadGeometryIsAnError: a size that does not divide into sets,
// or that has more sets than the set directory's 16-bit entries index,
// is an error, not a panic or a wrapped index, for the bare geometry and
// for an L1 or an L2 bank of a system.
func TestCacheBadGeometryIsAnError(t *testing.T) {
	if _, err := geometry(100, 3); err == nil {
		t.Fatal("bad geometry accepted")
	}
	if sets, err := geometry(65535*BlockBytes, 1); err != nil || sets != 65535 {
		t.Fatalf("65535 sets: %d, %v; want the largest geometry the directory indexes", sets, err)
	}
	if _, err := geometry(65536*BlockBytes, 1); err == nil {
		t.Fatal("65536 sets accepted")
	}
	for _, bad := range []func(*SystemConfig){
		func(c *SystemConfig) { c.L1Bytes, c.L1Ways = 100, 3 },
		func(c *SystemConfig) { c.L2BankBytes = 3 * BlockBytes },
		func(c *SystemConfig) { c.L2BankBytes, c.L2Ways = 65536*BlockBytes, 1 },
		func(c *SystemConfig) { c.L1Bytes, c.L1Ways = 2*65536*BlockBytes, 2 },
	} {
		cfg := DefaultSystemConfig()
		bad(&cfg)
		eng := sim.NewEngine()
		net, err := noc.New(eng, noc.DAPPER(4, 4))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewSystem(eng, net, cfg); err == nil || !strings.Contains(err.Error(), "bad geometry") {
			t.Fatalf("L1 %d B %d-way, L2 bank %d B %d-way: NewSystem error %v, want a bad geometry",
				cfg.L1Bytes, cfg.L1Ways, cfg.L2BankBytes, cfg.L2Ways, err)
		}
	}
}

func TestFillThenHit(t *testing.T) {
	c := NewCache(4096, 2)
	if hit, _ := c.Lookup(7, false); hit {
		t.Fatal("hit in empty cache")
	}
	c.Fill(7, false, false)
	if hit, _ := c.Lookup(7, false); !hit {
		t.Fatal("miss after fill")
	}
}

func TestWriteToReadOnlyLineIsUpgradeMiss(t *testing.T) {
	c := NewCache(4096, 2)
	c.Fill(7, false, false)
	if hit, _ := c.Lookup(7, true); hit {
		t.Fatal("write hit on read-only line")
	}
	c.Fill(7, true, true)
	if hit, w := c.Lookup(7, true); !hit || !w {
		t.Fatal("write miss after upgrade fill")
	}
}

func TestLRUEviction(t *testing.T) {
	c := NewCache(2*BlockBytes, 2) // 1 set, 2 ways
	c.Fill(0, false, false)
	c.Fill(1, false, false)
	c.Lookup(0, false) // make 1 the LRU
	v, evicted := c.Fill(2, false, false)
	if !evicted || v.Block != 1 {
		t.Fatalf("evicted %+v (evicted=%v), want block 1", v, evicted)
	}
	if c.Contains(1) {
		t.Fatal("block 1 still present after eviction")
	}
}

func TestDirtyVictimReported(t *testing.T) {
	c := NewCache(2*BlockBytes, 2)
	c.Fill(0, true, false)
	c.Lookup(0, true) // dirty it
	c.Fill(1, false, false)
	c.Lookup(0, false) // make 1 LRU
	v, evicted := c.Fill(2, false, false)
	if !evicted || v.Block != 1 || v.Dirty {
		t.Fatalf("victim %+v, want clean block 1", v)
	}
	c.Lookup(2, false)
	v, evicted = c.Fill(3, false, false)
	if !evicted || v.Block != 0 || !v.Dirty {
		t.Fatalf("victim %+v, want dirty block 0", v)
	}
}

func TestInvalidateAndDowngrade(t *testing.T) {
	c := NewCache(4096, 2)
	c.Fill(5, true, false)
	c.Lookup(5, true)
	if present, dirty := c.Downgrade(5); !present || !dirty {
		t.Fatalf("downgrade = (%v,%v), want (true,true)", present, dirty)
	}
	if hit, _ := c.Lookup(5, true); hit {
		t.Fatal("write hit after downgrade")
	}
	if hit, _ := c.Lookup(5, false); !hit {
		t.Fatal("read miss after downgrade")
	}
	if present, _ := c.Invalidate(5); !present {
		t.Fatal("invalidate missed present block")
	}
	if c.Contains(5) {
		t.Fatal("block present after invalidate")
	}
	if present, _ := c.Invalidate(5); present {
		t.Fatal("invalidate of absent block reported present")
	}
}

func TestFillExistingMergesPermissions(t *testing.T) {
	c := NewCache(4096, 2)
	c.Fill(9, false, false)
	if _, evicted := c.Fill(9, true, false); evicted {
		t.Fatal("refill of same block evicted something")
	}
	if hit, w := c.Lookup(9, true); !hit || !w {
		t.Fatal("permissions did not merge on refill")
	}
}

func TestHitRate(t *testing.T) {
	c := NewCache(4096, 2)
	c.Fill(1, false, false)
	c.Lookup(1, false)
	c.Lookup(2, false)
	if got := c.HitRate(); got != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", got)
	}
	if c.Accesses() != 2 {
		t.Fatalf("accesses = %d, want 2", c.Accesses())
	}
}
