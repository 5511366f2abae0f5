package core

import (
	"strings"
	"testing"

	"snacknoc/internal/fixed"
	"snacknoc/internal/noc"
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
		sb := b.sb()
		for k := 0; k < n; k++ {
			it := InstrToken{Op: OpMAC, Dst: noc.NodeID(e % 16), SubBlock: sb, SBIdx: int32(k), AccInit: k == 0,
				L: Imm32(fixed.FromInt(k%5 + 1)), R: Imm32(fixed.FromInt(e%3 + 1))}
			if k == n-1 {
				it.EndSB, it.Emit, it.EmitDep, it.Dependents, it.ToCPM = true, true, out, 1, true
			}
			b.instr(it)
		}
		b.output(out)
	}
	return b.prog
}

// TestInvalidProgramIsAnErrorNotAPanic covers the bounds that used to
// be panics inside CPM.Submit: with entries stamped as they are fetched,
// an unchecked ID would otherwise blow up inside an engine event.
func TestInvalidProgramIsAnErrorNotAPanic(t *testing.T) {
	valid := func() (*progBuilder, *InstrToken) {
		b := newProg("bad")
		in, out := b.dep(), b.dep()
		b.data(in, 2, 1)
		it := b.instr(InstrToken{Op: OpMul, Dst: 3, L: Ref(in), R: Imm32(fixed.FromInt(2)),
			Emit: true, EmitDep: out, Dependents: 1, ToCPM: true})
		b.output(out)
		return b, it
	}
	cases := []struct {
		name   string
		mutate func(b *progBuilder, it *InstrToken)
		want   string
	}{
		{"sub-block id", func(_ *progBuilder, it *InstrToken) { it.SubBlock = nsLimit }, "sub-block id"},
		{"left operand dep", func(_ *progBuilder, it *InstrToken) { it.L.Dep = nsLimit }, "dependency id"},
		{"right operand dep", func(_ *progBuilder, it *InstrToken) { it.R = Ref(nsLimit + 7) }, "dependency id"},
		{"emitted dep", func(b *progBuilder, it *InstrToken) {
			delete(b.prog.OutputSlot, it.EmitDep)
			it.EmitDep = nsLimit
			b.prog.OutputSlot[it.EmitDep] = 0
		}, "dependency id"},
		{"input token dep", func(b *progBuilder, _ *InstrToken) { b.prog.Datas[0].Dep = nsLimit }, "dependency id"},
		{"output slot", func(b *progBuilder, it *InstrToken) { b.prog.OutputSlot[it.EmitDep] = 1 }, "output slot 1 outside"},
		{"entry past its array", func(b *progBuilder, _ *InstrToken) { b.prog.Entries[1] = 1 }, "out of order"},
		{"token without an entry", func(b *progBuilder, it *InstrToken) { b.prog.Instrs = append(b.prog.Instrs, *it) }, "entries for"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, it := valid()
			if err := b.prog.Validate(); err != nil {
				t.Fatalf("the unbroken program is invalid: %v", err)
			}
			tc.mutate(b, it)
			if err := b.prog.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want an error naming the %s", err, tc.want)
			}
			eng, p := newPlatform(t)
			res, err := p.Run(b.prog, 100000)
			if err == nil || res != nil {
				t.Fatalf("Run = (%v, %v), want the validation error", res, err)
			}
			if p.CPM.Busy() || eng.Cycle() != 0 {
				t.Fatalf("rejected program reached the CPM (busy=%v, cycle %d)", p.CPM.Busy(), eng.Cycle())
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
// free, overflowing tokenPoolCap into the GC.)
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
	bound := 4 * p.CPM.cfg.InstrBufCap
	if bound >= tokenPoolCap {
		t.Fatalf("test bound %d does not sit under tokenPoolCap %d", bound, tokenPoolCap)
	}
	if n := len(pool.instr); n == 0 || n > bound {
		t.Fatalf("instruction free list holds %d tokens after %d instructions, want 1..%d",
			n, len(prog.Entries), bound)
	}
	if n := len(pool.data); n == 0 || n > bound {
		t.Fatalf("data free list holds %d tokens, want 1..%d", n, bound)
	}
	t.Logf("%d instructions ran on %d instruction and %d data tokens", len(prog.Entries), len(pool.instr), len(pool.data))
}

// TestFirstRunAllocatesLikeARepeat: a platform is built at its working
// size — wire queues at the credit bound, RCU cells and tables for a
// mesh-wide reduction, pools and event records refilled a chunk at a
// time — so a fresh platform's first kernel allocates tens of objects,
// like any later one, not one per queue that has to grow (~690 before).
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
