package mem

import (
	"fmt"
	"testing"

	"snacknoc/internal/sim"
)

// completions records typed completions as (arg, cycle) pairs, in the
// order they fire.
type completions [][2]int64

func (c *completions) OnCall(arg, cycle int64) { *c = append(*c, [2]int64{arg, cycle}) }

func newCtrl(t *testing.T) (*sim.Engine, *Controller) {
	t.Helper()
	eng := sim.NewEngine()
	c, err := New(eng, DefaultConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return eng, c
}

func TestConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	bad := []Config{
		{},
		{Ranks: 1, BanksPerRank: 1, RowBytes: 32, TransactionBytes: 64, RowHitLat: 1, RowMissLat: 2, BusLat: 1},
		{Ranks: 1, BanksPerRank: 1, RowBytes: 2048, TransactionBytes: 64, RowHitLat: 10, RowMissLat: 5, BusLat: 1},
	}
	for i, cfg := range bad {
		if _, err := New(eng, cfg); err == nil {
			t.Errorf("config %d accepted but should fail", i)
		}
	}
}

// TestSlabControllersAreIndependent: NewSlab's controllers share one
// bank slab and one validated config but no state. Traffic on one
// leaves its neighbour a fresh controller, and restoring a checkpoint
// into a window stays inside it.
func TestSlabControllersAreIndependent(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := NewSlab(eng, Config{}, 3); err == nil {
		t.Fatal("NewSlab accepted an invalid config")
	}
	cs, err := NewSlab(eng, DefaultConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	_, fresh := newCtrl(t)
	var saved ControllerState
	saved.CopyFrom(&cs[1].ControllerState)
	for k := range 64 {
		cs[1].Access(uint64(k)*2048, k%2 == 0)
	}
	cs[1].CopyFrom(&saved)
	cs[1].Access(4096, false)
	for _, i := range []int{0, 2} {
		if c := &cs[i]; len(c.banks) != cap(c.banks) || fmt.Sprint(c.ControllerState) != fmt.Sprint(fresh.ControllerState) {
			t.Errorf("controller %d changed with its neighbour's traffic: %+v", i, c.ControllerState)
		}
	}
}

func TestReadCompletes(t *testing.T) {
	eng, c := newCtrl(t)
	var got completions
	c.AccessCall(0, false, &got, 0)
	eng.Run(200)
	if len(got) != 1 {
		t.Fatal("read never completed")
	}
	cfg := DefaultConfig()
	want := 1 + cfg.RowMissLat + cfg.BusLat // cold row miss from cycle 0
	if got[0][1] != want {
		t.Fatalf("read completed at %d, want %d", got[0][1], want)
	}
}

func TestRowHitFasterThanMiss(t *testing.T) {
	eng, c := newCtrl(t)
	first := c.AccessCall(0, false, new(completions), 0)
	eng.Run(100)
	start := eng.Cycle()
	second := c.AccessCall(64, false, new(completions), 0) // same bank, same open row
	eng.Run(100)
	lat1 := first - 0
	lat2 := second - start
	if lat2 >= lat1 {
		t.Fatalf("second access latency %d not faster than cold %d", lat2, lat1)
	}
}

func TestRowHitRateSequentialStream(t *testing.T) {
	eng, c := newCtrl(t)
	n := 256
	var got completions
	for i := 0; i < n; i++ {
		c.AccessCall(uint64(i*64), false, &got, int64(i))
	}
	eng.Run(100000)
	if len(got) != n {
		t.Fatalf("completed %d of %d", len(got), n)
	}
	if hr := c.RowHitRate(); hr < 0.9 {
		t.Fatalf("sequential row hit rate = %v, want >= 0.9", hr)
	}
}

func TestBankParallelismBeatsSingleBank(t *testing.T) {
	cfg := DefaultConfig()
	run := func(stride uint64) int64 {
		eng := sim.NewEngine()
		c, _ := New(eng, cfg)
		n := 64
		var got completions
		for i := 0; i < n; i++ {
			c.AccessCall(uint64(i)*stride, false, &got, int64(i))
		}
		eng.Run(1000000)
		if len(got) != n {
			t.Fatalf("stride %d: completed %d of %d", stride, len(got), n)
		}
		return got[n-1][1] // completions fire in cycle order
	}
	// Stride of banks*txn bytes hammers one bank and one row... actually
	// it stays in the same row (2 KB) only for a few accesses; use a
	// stride of a full row to force per-access row misses on one bank.
	conflict := run(uint64(cfg.RowBytes * cfg.Ranks * cfg.BanksPerRank))
	spread := run(64)
	if spread >= conflict {
		t.Fatalf("bank-parallel stream (%d) not faster than bank-conflict stream (%d)", spread, conflict)
	}
}

func TestPostedWriteAcksEarly(t *testing.T) {
	eng, c := newCtrl(t)
	var got completions
	wAt := c.AccessCall(0, true, &got, 0)
	rAt := c.AccessCall(1<<20, false, &got, 1)
	eng.Run(500)
	if len(got) != 2 {
		t.Fatal("accesses did not complete")
	}
	if wAt >= rAt {
		t.Fatalf("posted write (%d) should ack before a read completes (%d)", wAt, rAt)
	}
}

func TestAvgLatencyPositive(t *testing.T) {
	eng, c := newCtrl(t)
	c.Access(0, false)
	eng.Run(100)
	if c.AvgLatency() <= 0 {
		t.Fatal("average latency should be positive")
	}
}

// TestAccessCallCompletionCycles drives a mixed stream into one bank
// and requires every completion at its hand-computed cycle — reads after
// the bus transfer, posted writes on acceptance — in cycle order, with
// its argument, and no allocation per transaction.
func TestAccessCallCompletionCycles(t *testing.T) {
	eng, c := newCtrl(t)
	// DefaultConfig: row miss 45, row hit 15, bus 4; every address below
	// maps to bank 0, so each access starts when the bank frees.
	stream := []struct {
		addr  uint64
		write bool
		at    int64
	}{
		{0, false, 50},       // start 1, miss: bus 46–50; bank free at 46
		{64, false, 65},      // start 46, row hit: bus 61–65; bank free at 50
		{1 << 20, true, 51},  // start 50, acked at 51; miss holds the bank to 95
		{128, false, 144},    // start 95, miss (row changed): bus 140–144
		{1 << 20, true, 141}, // start 140, acked at 141; bank held to 185
		{1 << 22, false, 234},
	}
	var got completions
	for i, x := range stream {
		if at := c.AccessCall(x.addr, x.write, &got, int64(i)); at != x.at {
			t.Fatalf("access %d: AccessCall returned %d, want %d", i, at, x.at)
		}
	}
	eng.Run(500)
	want := completions{{0, 50}, {2, 51}, {1, 65}, {4, 141}, {3, 144}, {5, 234}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("completions %v, want %v", got, want)
	}
	if c.Accesses() != int64(len(stream)) {
		t.Fatalf("accesses = %d, want %d", c.Accesses(), len(stream))
	}
	got = got[:0]
	if n := testing.AllocsPerRun(50, func() {
		c.AccessCall(0, false, &got, 0)
		eng.Run(100)
		got = got[:0]
	}); n != 0 {
		t.Fatalf("AccessCall allocated %.0f objects per transaction, want 0", n)
	}
}
