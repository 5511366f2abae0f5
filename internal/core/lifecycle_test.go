package core

import (
	"strings"
	"testing"

	"snacknoc/internal/fixed"
	"snacknoc/internal/flat"
	"snacknoc/internal/noc"
	"snacknoc/internal/sim"
)

// sgemmProg builds the command stream the compiler emits for an n×n
// SGEMM (internal/compiler cannot be imported from here): one MAC
// sub-block of n immediates per output element, elements round-robin
// across the 16 RCUs. n = 48 is the DefaultKernelDims size, 110 592
// instructions.
func sgemmProg(n int) *Program {
	b := newProg("sgemm")
	for e := 0; e < n*n; e++ {
		out := b.dep()
		blk := b.block(noc.NodeID(e % 16))
		for k := 0; k < n; k++ {
			b.prog.AddOp(OpMAC, Imm32(fixed.FromFloat(float64(k%5+1))), Imm32(fixed.FromFloat(float64(e%3+1))), k == 0)
		}
		b.result(blk, out)
	}
	return b.prog
}

// TestInvalidProgramIsAnErrorNotAPanic covers the bounds that used to
// be panics inside CPM.Submit or inside an engine event: an unchecked ID
// is stamped as its entry is issued, and a sub-block mapped off the mesh
// has no route. Validate catches what a program alone shows; the mesh
// check needs the platform, so CPM.Admit makes it. Either way Run
// returns the error and the platform stays usable.
func TestInvalidProgramIsAnErrorNotAPanic(t *testing.T) {
	valid := func() (*progBuilder, *ProgBlock) {
		b := newProg("bad")
		in, out := b.dep(), b.dep()
		b.data(in, 2, 1)
		blk := b.result(b.instr(3, OpMul, Ref(in), Imm32(fixed.FromFloat(2))), out)
		return b, blk
	}
	cases := []struct {
		name   string
		mutate func(b *progBuilder, blk *ProgBlock)
		want   string
		// onMesh marks a program only the platform can reject.
		onMesh bool
	}{
		{"sub-block id", func(_ *progBuilder, blk *ProgBlock) { blk.SubBlock = nsLimit }, "sub-block id", false},
		{"left operand dep", func(b *progBuilder, _ *ProgBlock) { b.prog.Ops[0].L = nsLimit }, "dependency id", false},
		{"right operand dep", func(b *progBuilder, _ *ProgBlock) {
			b.prog.Ops[0].R, b.prog.Ops[0].RRef = nsLimit+7, true
		}, "dependency id", false},
		{"emitted dep", func(b *progBuilder, blk *ProgBlock) {
			delete(b.prog.OutputSlot, blk.EmitDep)
			blk.EmitDep = nsLimit
			b.prog.OutputSlot[blk.EmitDep] = 0
		}, "dependency id", false},
		{"input token dep", func(b *progBuilder, _ *ProgBlock) { b.prog.Datas[0].Dep = nsLimit }, "dependency id", false},
		{"output slot", func(b *progBuilder, blk *ProgBlock) { b.prog.OutputSlot[blk.EmitDep] = 1 }, "output slot 1 outside", false},
		{"entry past its array", func(b *progBuilder, _ *ProgBlock) { b.prog.Entries[1] = 1 }, "out of order", false},
		{"token without an entry", func(b *progBuilder, _ *ProgBlock) { b.prog.Ops = append(b.prog.Ops, b.prog.Ops[0]) }, "entries for", false},
		{"op naming another sub-block", func(b *progBuilder, _ *ProgBlock) { b.prog.Ops[0].Block = 1 }, "names sub-block 1", false},
		{"empty sub-block", func(b *progBuilder, _ *ProgBlock) {
			b.prog.Blocks = append(b.prog.Blocks, ProgBlock{Dst: 3, First: 1})
		}, "spans ops 1..1", false},
		{"op in no sub-block", func(b *progBuilder, _ *ProgBlock) { b.prog.Blocks = nil }, "lie in no sub-block", false},
		{"RCU off the mesh", func(_ *progBuilder, blk *ProgBlock) { blk.Dst = 16 }, "outside the 16-node mesh", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, blk := valid()
			if err := b.prog.Validate(); err != nil {
				t.Fatalf("the unbroken program is invalid: %v", err)
			}
			tc.mutate(b, blk)
			err := b.prog.Validate()
			if tc.onMesh {
				if err != nil {
					t.Fatalf("Validate = %v, want only the platform to reject it", err)
				}
			} else if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want an error naming the %s", err, tc.want)
			}
			eng, p := newPlatform(t)
			res, err := p.Run(b.prog, 100000)
			if err == nil || res != nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run = (%v, %v), want an error naming the %s", res, err, tc.want)
			}
			if p.CPM.Busy() || eng.Cycle() != 0 {
				t.Fatalf("rejected program reached the CPM (busy=%v, cycle %d)", p.CPM.Busy(), eng.Cycle())
			}
			good, _ := valid()
			if res, err := p.Run(good.prog, 100000); err != nil || res.Values[0] != fixed.FromFloat(4) {
				t.Fatalf("the platform after the rejected program: Run = (%v, %v), want 2·2", res, err)
			}
		})
	}
}

// TestRepeatRunIsAllocationFree pins the steady state: running a
// program again on the same platform validates nothing (programs are
// immutable, once is enough), copies nothing up front, and feeds every
// issued entry from the token pool.
func TestRepeatRunIsAllocationFree(t *testing.T) {
	_, p := newPlatform(t)
	prog := sgemmProg(16)
	run := func() {
		if _, err := p.Run(prog, 10_000_000); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if p.CPM.validated != prog {
		t.Fatal("the CPM did not remember the program it validated")
	}
	// What is left is per kernel, not per entry: the Result and its
	// values, Run's completion closures, Validate-free admission.
	got := testing.AllocsPerRun(3, run)
	if got >= 32 {
		t.Fatalf("a repeat run of %d entries allocated %.0f objects, want < 32", len(prog.Entries), got)
	}
	t.Logf("repeat run of %d entries: %.0f allocations", len(prog.Entries), got)
}

// TestTokenPoolRecyclesWithinOneKernel runs a DefaultKernelDims-sized
// SGEMM on a fresh platform. Pooled tokens exist only in flight — minted
// as they are sent, returned as they are consumed or copied into an RCU
// — so the pool only ever holds what was in the network, not the
// program. (Stamping the whole program at Submit left 110 592 tokens to
// free, overflowing flat.PoolCap into the GC.)
func TestTokenPoolRecyclesWithinOneKernel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 110k-instruction kernel")
	}
	_, p := newPlatform(t)
	prog := sgemmProg(48)
	if _, err := p.Run(prog, 100_000_000); err != nil {
		t.Fatal(err)
	}
	// Every token is back in the pool once the kernel is done, so the
	// free lists are at their high-water mark.
	pool := p.CPM.pool
	bound := 4 * instrBufCap
	if bound >= flat.PoolCap {
		t.Fatalf("test bound %d does not sit under flat.PoolCap %d", bound, flat.PoolCap)
	}
	if n := pool.instr.Idle(); n == 0 || n > bound {
		t.Fatalf("instruction free list holds %d tokens after %d instructions, want 1..%d",
			n, len(prog.Entries), bound)
	}
	if n := pool.data.Idle(); n == 0 || n > bound {
		t.Fatalf("data free list holds %d tokens, want 1..%d", n, bound)
	}
	t.Logf("%d instructions ran on %d instruction and %d data tokens", len(prog.Entries), pool.instr.Idle(), pool.data.Idle())
}

// TestFirstRunAllocatesLikeARepeat: a platform is built at its working
// size — wire queues at the credit bound, RCU cells and tables for a
// mesh-wide reduction, pools refilled a chunk at a time and an event
// slab that doubles — so a fresh platform's first kernel allocates tens
// of objects, like any later one, not one per queue that has to grow
// (~690 before).
func TestFirstRunAllocatesLikeARepeat(t *testing.T) {
	prog := sgemmProg(16)
	var p *Platform
	build := testing.AllocsPerRun(5, func() { _, p = newPlatform(t) })
	first := testing.AllocsPerRun(5, func() {
		_, p = newPlatform(t)
		if _, err := p.Run(prog, 10_000_000); err != nil {
			t.Fatal(err)
		}
	}) - build
	repeat := testing.AllocsPerRun(5, func() {
		if _, err := p.Run(prog, 10_000_000); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("build %.0f objects, first run %.0f, repeat run %.0f", build, first, repeat)
	if first >= 64 {
		t.Fatalf("a fresh platform's first run allocated %.0f objects, want < 64 (a repeat run: %.0f)", first, repeat)
	}
	if build >= 128 {
		t.Fatalf("building the platform allocated %.0f objects, want < 128", build)
	}
}

// TestKernelsReturnEveryToken runs kernels back to back on fresh
// platforms — a dependency fan-out and an SGEMM, then a token storm that
// spills through the CPM's overflow path — and requires every pooled
// token to be back in the pool after each kernel.
func TestKernelsReturnEveryToken(t *testing.T) {
	fanOut := func() *Program {
		b := newProg("fanout")
		x := b.dep()
		b.data(x, 2, 4)
		for i := 0; i < 4; i++ {
			out := b.dep()
			b.result(b.instr(noc.NodeID(3+i*4), OpMul, Ref(x), Imm32(fixed.FromFloat(float64(i+1)))), out)
		}
		return b.build(t)
	}
	for _, run := range [][]*Program{{fanOut(), sgemmProg(8), fanOut()}, {buildTokenStorm(600), fanOut()}} {
		p, err := NewStandalone(sim.NewEngine(), 4, 4, true, DefaultPlatformConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, prog := range run {
			if _, err := p.Run(prog, 5_000_000); err != nil {
				t.Fatal(err)
			}
			if err := p.CheckDrained(); err != nil {
				t.Fatalf("after %s: %v", prog.Name, err)
			}
		}
	}
}
