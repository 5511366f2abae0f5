package checkpoint_test

import (
	"fmt"
	"testing"

	"snacknoc/internal/checkpoint"
	"snacknoc/internal/core"
	"snacknoc/internal/cpu"
	"snacknoc/internal/experiments"
	"snacknoc/internal/sim"
)

// standaloneEntry builds a zero-load platform and seals it into the
// pool at its pristine (never-run) state — the DSE cell shape.
func standaloneEntry(t *testing.T, pool *checkpoint.Pool, shape string) *checkpoint.Entry {
	t.Helper()
	eng := sim.NewEngine()
	plat, err := core.NewStandalone(eng, 4, 4, true, core.DefaultPlatformConfig())
	if err != nil {
		t.Fatal(err)
	}
	return pool.Seal(shape, checkpoint.Target{Eng: eng, Net: plat.Net, Plat: plat}, plat)
}

func runMAC(t *testing.T, plat *core.Platform) *core.Result {
	t.Helper()
	prog, err := experiments.CompileKernel(cpu.KernelMAC, experiments.DefaultKernelDims(), 16, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	r, err := plat.Run(prog, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestPoolForkDeterminism pins the pooled-fork contract: a kernel run
// on a pool-recycled platform (dirty from a previous run, rewound by
// one Fork) is indistinguishable from a run on a freshly built one.
func TestPoolForkDeterminism(t *testing.T) {
	// Reference: fresh platform, cold run.
	eng := sim.NewEngine()
	plat, err := core.NewStandalone(eng, 4, 4, true, core.DefaultPlatformConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := runMAC(t, plat)

	pool := checkpoint.NewPool(0)
	const shape = "test/4x4"
	if pool.Get(shape) != nil {
		t.Fatal("an empty pool returned an entry")
	}
	first := standaloneEntry(t, pool, shape)
	got := runMAC(t, first.Payload().(*core.Platform))
	if got.DoneCycle != want.DoneCycle || fmt.Sprint(got.Values) != fmt.Sprint(want.Values) {
		t.Fatalf("sealed-entry run diverged from cold run: done %d vs %d", got.DoneCycle, want.DoneCycle)
	}
	first.Release()

	// Three recycles: every one must be a pool hit rewound in place.
	for i := 0; i < 3; i++ {
		e := pool.Get(shape)
		if e != first {
			t.Fatalf("recycle %d missed the pool or returned a different entry", i)
		}
		e.Fork()
		got := runMAC(t, e.Payload().(*core.Platform))
		if got.DoneCycle != want.DoneCycle || fmt.Sprint(got.Values) != fmt.Sprint(want.Values) {
			t.Fatalf("recycle %d diverged: done %d vs %d", i, got.DoneCycle, want.DoneCycle)
		}
		e.Release()
	}

	if h, m, f := pool.Hits(), pool.Misses(), pool.Forks(); h != 3 || m != 1 || f != 3 {
		t.Fatalf("pool traffic hits=%d misses=%d forks=%d, want 3/1/3", h, m, f)
	}
	if pool.AvgForkNs() <= 0 {
		t.Fatal("AvgForkNs not recorded")
	}
	if n := pool.Idle(); n != 1 {
		t.Fatalf("idle entries = %d, want 1", n)
	}
	if n := pool.Drain(); n != 1 {
		t.Fatalf("Drain released %d entries, want 1", n)
	}
	if n := pool.Idle(); n != 0 {
		t.Fatalf("idle after drain = %d, want 0", n)
	}
}

// TestPoolBoundsAndShapes checks the per-shape idle bound and that
// shapes never cross.
func TestPoolBoundsAndShapes(t *testing.T) {
	pool := checkpoint.NewPool(1)
	a1 := standaloneEntry(t, pool, "a")
	a2 := standaloneEntry(t, pool, "a")
	b1 := standaloneEntry(t, pool, "b")
	a1.Release()
	a2.Release() // over the bound: dropped
	b1.Release()
	if n := pool.Idle(); n != 2 {
		t.Fatalf("idle = %d, want 2 (one per shape)", n)
	}
	if d := pool.Drops(); d != 1 {
		t.Fatalf("drops = %d, want 1", d)
	}
	if e := pool.Get("b"); e != b1 {
		t.Fatal("shape b returned a foreign entry")
	}
	if e := pool.Get("a"); e != a1 {
		t.Fatal("shape a should keep the first released entry")
	}
	if e := pool.Get("a"); e != nil {
		t.Fatal("drained shape returned an entry")
	}
	if h, m := pool.Hits(), pool.Misses(); h != 2 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want 2/1", h, m)
	}
}

// TestPooledForkAllocations pins the steady-state cost of one pooled
// fork of a warmed co-run platform (every layer live, a kernel in
// flight): Get, one Restore walk, Release. Every layer restores by
// copying slabs into the storage it already has — the sampled time
// series included — so what remains is the copy of each payload in
// flight: 36 objects. A count that creeps means a restore path grew an
// allocation.
func TestPooledForkAllocations(t *testing.T) {
	s := buildCoRun(t, 1)
	s.eng.Run(8192)
	pool := checkpoint.NewPool(1)
	const shape = "corun/4x4"
	pool.Seal(shape, s.target(), nil).Release()
	fork := func() {
		e := pool.Get(shape)
		if e == nil {
			t.Fatal("pool miss")
		}
		e.Fork()
		e.Release()
	}
	fork()
	got := testing.AllocsPerRun(10, fork)
	if got > 40 {
		t.Fatalf("a pooled fork allocated %.0f objects, want <= 40", got)
	}
	t.Logf("pooled fork: %.0f allocations", got)
}
