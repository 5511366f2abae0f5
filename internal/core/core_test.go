package core

import (
	"testing"
	"unsafe"

	"snacknoc/internal/fixed"
	"snacknoc/internal/noc"
	"snacknoc/internal/sim"
)

func newPlatform(t *testing.T) (*sim.Engine, *Platform) {
	t.Helper()
	eng := sim.NewEngine()
	p, err := NewStandalone(eng, 4, 4, true, DefaultPlatformConfig())
	if err != nil {
		t.Fatalf("NewStandalone: %v", err)
	}
	return eng, p
}

// progBuilder helps tests assemble valid programs.
type progBuilder struct {
	prog    *Program
	seq     uint32
	nextSB  uint32
	nextDep DepID
}

func newProg(name string) *progBuilder {
	return &progBuilder{prog: &Program{Name: name, OutputSlot: map[DepID]int{}}}
}

func (b *progBuilder) dep() DepID { b.nextDep++; return b.nextDep }
func (b *progBuilder) sb() uint32 { b.nextSB++; return b.nextSB }

// instr appends an instruction; the token it returns stays valid until
// the next instr call.
func (b *progBuilder) instr(it InstrToken) *InstrToken {
	b.seq++
	it.Seq = b.seq
	if it.SubBlock == 0 {
		it.SubBlock = b.sb()
		it.EndSB = true
	}
	b.prog.Entries = append(b.prog.Entries, ProgEntry(len(b.prog.Instrs)))
	b.prog.Instrs = append(b.prog.Instrs, it)
	return &b.prog.Instrs[len(b.prog.Instrs)-1]
}

func (b *progBuilder) data(dep DepID, v float64, n int) {
	b.prog.Entries = append(b.prog.Entries, ^ProgEntry(len(b.prog.Datas)))
	b.prog.Datas = append(b.prog.Datas, DataToken{Dep: dep, Dependents: uint16(n), V: fixed.FromFloat(v)})
}

func (b *progBuilder) output(dep DepID) {
	b.prog.OutputSlot[dep] = b.prog.NumOutputs
	b.prog.NumOutputs++
}

func (b *progBuilder) build(t *testing.T) *Program {
	t.Helper()
	if err := b.prog.Validate(); err != nil {
		t.Fatalf("program invalid: %v", err)
	}
	return b.prog
}

func TestSingleAddImmediate(t *testing.T) {
	_, p := newPlatform(t)
	b := newProg("add")
	out := b.dep()
	b.instr(InstrToken{Op: OpAdd, Dst: 5, L: Imm32(fixed.FromFloat(2)), R: Imm32(fixed.FromFloat(3)),
		Emit: true, EmitDep: out, Dependents: 1, ToCPM: true})
	b.output(out)
	res, err := p.Run(b.build(t), 100000)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Values[0].Float(); got != 5 {
		t.Fatalf("2+3 = %v", got)
	}
	if res.Cycles() <= 0 {
		t.Fatalf("non-positive kernel latency %d", res.Cycles())
	}
	if p.RCUs[5].Executed() != 1 {
		t.Fatalf("rcu5 executed %d, want 1", p.RCUs[5].Executed())
	}
}

func TestAllOpsCompute(t *testing.T) {
	cases := []struct {
		op   Op
		l, r float64
		want float64
	}{
		{OpAdd, 2.5, 1.5, 4},
		{OpSub, 2.5, 1.5, 1},
		{OpMul, 2.5, 4, 10},
	}
	for _, tc := range cases {
		eng, p := newPlatform(t)
		_ = eng
		b := newProg(tc.op.String())
		out := b.dep()
		b.instr(InstrToken{Op: tc.op, Dst: 9, L: Imm32(fixed.FromFloat(tc.l)), R: Imm32(fixed.FromFloat(tc.r)),
			Emit: true, EmitDep: out, Dependents: 1, ToCPM: true})
		b.output(out)
		res, err := p.Run(b.build(t), 100000)
		if err != nil {
			t.Fatalf("%s: %v", tc.op, err)
		}
		if got := res.Values[0].Float(); got != tc.want {
			t.Errorf("%s(%v,%v) = %v, want %v", tc.op, tc.l, tc.r, got, tc.want)
		}
	}
}

func TestMACSubBlockDotProduct(t *testing.T) {
	// 1*2 + 3*4 + 5*6 = 44 accumulated on one RCU.
	eng, p := newPlatform(t)
	_ = eng
	b := newProg("dot")
	out := b.dep()
	sb := b.sb()
	vals := [][2]float64{{1, 2}, {3, 4}, {5, 6}}
	for i, v := range vals {
		it := InstrToken{Op: OpMAC, Dst: 10, SubBlock: sb, SBIdx: int32(i),
			L: Imm32(fixed.FromFloat(v[0])), R: Imm32(fixed.FromFloat(v[1]))}
		if i == 0 {
			it.AccInit = true
		}
		if i == len(vals)-1 {
			it.EndSB = true
			it.Emit = true
			it.EmitDep = out
			it.Dependents = 1
			it.ToCPM = true
		}
		b.instr(it)
	}
	b.output(out)
	res, err := p.Run(b.build(t), 100000)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Values[0].Float(); got != 44 {
		t.Fatalf("dot = %v, want 44", got)
	}
}

func TestTransientTokenFromCPM(t *testing.T) {
	// The CPM injects x=7 onto the loop; an instruction at a far node
	// multiplies it by 6.
	eng, p := newPlatform(t)
	_ = eng
	b := newProg("transient")
	x := b.dep()
	out := b.dep()
	b.data(x, 7, 1)
	b.instr(InstrToken{Op: OpMul, Dst: 12, L: Ref(x), R: Imm32(fixed.FromFloat(6)),
		Emit: true, EmitDep: out, Dependents: 1, ToCPM: true})
	b.output(out)
	res, err := p.Run(b.build(t), 100000)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Values[0].Float(); got != 42 {
		t.Fatalf("7*6 = %v", got)
	}
	if p.RCUs[12].Captured() != 1 {
		t.Fatalf("rcu12 captured %d, want 1", p.RCUs[12].Captured())
	}
}

func TestTokenWithMultipleDependents(t *testing.T) {
	// One token feeds three instructions on three different RCUs; the
	// token must persist on the loop until all have captured it.
	eng, p := newPlatform(t)
	_ = eng
	b := newProg("multi-dep")
	x := b.dep()
	b.data(x, 5, 3)
	outs := make([]DepID, 3)
	for i, node := range []noc.NodeID{3, 9, 14} {
		outs[i] = b.dep()
		b.instr(InstrToken{Op: OpMul, Dst: node, L: Ref(x), R: Imm32(fixed.FromFloat(float64(i + 1))),
			Emit: true, EmitDep: outs[i], Dependents: 1, ToCPM: true})
		b.output(outs[i])
	}
	res, err := p.Run(b.build(t), 200000)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{5, 10, 15} {
		if got := res.Values[i].Float(); got != want {
			t.Errorf("consumer %d = %v, want %v", i, got, want)
		}
	}
}

func TestProducerConsumerAcrossRCUs(t *testing.T) {
	// RCU 6 computes 3*4; RCU 11 adds 1 to that intermediate. The
	// intermediate travels as a transient loop token.
	eng, p := newPlatform(t)
	_ = eng
	b := newProg("chain")
	mid := b.dep()
	out := b.dep()
	b.instr(InstrToken{Op: OpMul, Dst: 6, L: Imm32(fixed.FromFloat(3)), R: Imm32(fixed.FromFloat(4)),
		Emit: true, EmitDep: mid, Dependents: 1})
	b.instr(InstrToken{Op: OpAdd, Dst: 11, L: Ref(mid), R: Imm32(fixed.FromFloat(1)),
		Emit: true, EmitDep: out, Dependents: 1, ToCPM: true})
	b.output(out)
	res, err := p.Run(b.build(t), 100000)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Values[0].Float(); got != 13 {
		t.Fatalf("3*4+1 = %v", got)
	}
	if p.RCUs[6].Emitted() != 1 {
		t.Fatalf("producer emitted %d tokens", p.RCUs[6].Emitted())
	}
}

func TestLocalDeliveryAvoidsNetwork(t *testing.T) {
	// Producer and consumer share RCU 8: the intermediate must be
	// delivered locally without a loop token (§III-A special case).
	eng, p := newPlatform(t)
	_ = eng
	b := newProg("local")
	mid := b.dep()
	out := b.dep()
	b.instr(InstrToken{Op: OpMul, Dst: 8, L: Imm32(fixed.FromFloat(3)), R: Imm32(fixed.FromFloat(4)),
		Emit: true, EmitDep: mid, Dependents: 1})
	b.instr(InstrToken{Op: OpAdd, Dst: 8, L: Ref(mid), R: Imm32(fixed.FromFloat(2)),
		Emit: true, EmitDep: out, Dependents: 1, ToCPM: true})
	b.output(out)
	res, err := p.Run(b.build(t), 100000)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Values[0].Float(); got != 14 {
		t.Fatalf("3*4+2 = %v", got)
	}
	// Only the final output token should have left RCU 8.
	if p.RCUs[8].Emitted() != 2 {
		t.Fatalf("emitted %d", p.RCUs[8].Emitted())
	}
	if p.RCUs[8].Captured() != 1 {
		t.Fatalf("captured %d, want 1 local capture", p.RCUs[8].Captured())
	}
}

func TestAccAddReduction(t *testing.T) {
	// Sum 1..6 on one RCU with the adder-only accumulator path.
	eng, p := newPlatform(t)
	_ = eng
	b := newProg("reduce")
	out := b.dep()
	sb := b.sb()
	for i := 1; i <= 6; i++ {
		it := InstrToken{Op: OpAccAdd, Dst: 7, SubBlock: sb, SBIdx: int32(i - 1), L: Imm32(fixed.FromInt(i))}
		if i == 1 {
			it.AccInit = true
		}
		if i == 6 {
			it.EndSB, it.Emit, it.EmitDep, it.Dependents, it.ToCPM = true, true, out, 1, true
		}
		b.instr(it)
	}
	b.output(out)
	res, err := p.Run(b.build(t), 100000)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Values[0].Float(); got != 21 {
		t.Fatalf("sum(1..6) = %v, want 21", got)
	}
}

func TestInterleavedSubBlocksKeepAccumulatorsSeparate(t *testing.T) {
	// Two accumulation chains on the same RCU: the sub-block partial
	// order must prevent them from corrupting each other's accumulator.
	eng, p := newPlatform(t)
	_ = eng
	b := newProg("two-chains")
	outA, outB := b.dep(), b.dep()
	sbA, sbB := b.sb(), b.sb()
	mk := func(sb uint32, out DepID, vals []float64) {
		for i, v := range vals {
			it := InstrToken{Op: OpAccAdd, Dst: 4, SubBlock: sb, SBIdx: int32(i), L: Imm32(fixed.FromFloat(v))}
			if i == 0 {
				it.AccInit = true
			}
			if i == len(vals)-1 {
				it.EndSB, it.Emit, it.EmitDep, it.Dependents, it.ToCPM = true, true, out, 1, true
			}
			b.instr(it)
		}
	}
	mk(sbA, outA, []float64{1, 2, 3})
	mk(sbB, outB, []float64{10, 20, 30})
	b.output(outA)
	b.output(outB)
	res, err := p.Run(b.build(t), 100000)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Values[0].Float(); got != 6 {
		t.Fatalf("chain A = %v, want 6", got)
	}
	if got := res.Values[1].Float(); got != 60 {
		t.Fatalf("chain B = %v, want 60", got)
	}
}

func TestPlatformQuiescesAfterKernel(t *testing.T) {
	eng, p := newPlatform(t)
	b := newProg("q")
	out := b.dep()
	b.instr(InstrToken{Op: OpAdd, Dst: 15, L: Imm32(fixed.FromInt(1)), R: Imm32(fixed.FromInt(1)),
		Emit: true, EmitDep: out, Dependents: 1, ToCPM: true})
	b.output(out)
	if _, err := p.Run(b.build(t), 100000); err != nil {
		t.Fatal(err)
	}
	eng.Run(1000)
	if !p.Quiesced() {
		t.Fatal("platform did not quiesce after kernel completion")
	}
}

func TestSubmitWhileBusyIsRejected(t *testing.T) {
	eng, p := newPlatform(t)
	b := newProg("busy")
	out := b.dep()
	b.instr(InstrToken{Op: OpAdd, Dst: 15, L: Imm32(fixed.FromInt(1)), R: Imm32(fixed.FromInt(1)),
		Emit: true, EmitDep: out, Dependents: 1, ToCPM: true})
	b.output(out)
	prog := b.build(t)
	if !p.CPM.Submit(prog, eng.Cycle(), nil) {
		t.Fatal("first submit rejected")
	}
	if p.CPM.Submit(prog, eng.Cycle(), nil) {
		t.Fatal("second submit accepted while busy")
	}
	if p.CPM.BusyReplies() != 1 {
		t.Fatalf("busy replies = %d, want 1", p.CPM.BusyReplies())
	}
}

func TestKernelDeterminism(t *testing.T) {
	run := func() int64 {
		eng, p := newPlatform(t)
		_ = eng
		b := newProg("det")
		x := b.dep()
		b.data(x, 2, 4)
		for i := 0; i < 4; i++ {
			out := b.dep()
			b.instr(InstrToken{Op: OpMul, Dst: noc.NodeID(3 + i*4), L: Ref(x),
				R: Imm32(fixed.FromInt(i + 1)), Emit: true, EmitDep: out, Dependents: 1, ToCPM: true})
			b.output(out)
		}
		res, err := p.Run(b.build(t), 200000)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("kernel latency differs between identical runs: %d vs %d", a, b)
	}
}

func TestIssueRateIsOnePerCycle(t *testing.T) {
	// A long stream of independent single-instruction sub-blocks: the
	// kernel can't finish faster than one issue per cycle (§III-C).
	eng, p := newPlatform(t)
	_ = eng
	b := newProg("rate")
	n := 200
	for i := 0; i < n; i++ {
		out := b.dep()
		b.instr(InstrToken{Op: OpAdd, Dst: noc.NodeID(i % 16), L: Imm32(fixed.FromInt(i)),
			R: Imm32(fixed.FromInt(1)), Emit: true, EmitDep: out, Dependents: 1, ToCPM: true})
		b.output(out)
	}
	res, err := p.Run(b.build(t), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles() < int64(n) {
		t.Fatalf("%d instructions completed in %d cycles — faster than the 1 IPC issue bound", n, res.Cycles())
	}
	for i := 0; i < n; i++ {
		if got := res.Values[i].Int(); got != i+1 {
			t.Fatalf("slot %d = %d, want %d", i, got, i+1)
		}
	}
}

// TestTokenSizes pins the compiled-program layout: a program is one
// 56-byte token per instruction plus a 4-byte entry per command, so a
// new token field is a conscious choice, made here.
func TestTokenSizes(t *testing.T) {
	if n := unsafe.Sizeof(InstrToken{}); n != 56 {
		t.Errorf("InstrToken is %d bytes, want 56", n)
	}
	if n := unsafe.Sizeof(ProgEntry(0)); n != 4 {
		t.Errorf("ProgEntry is %d bytes, want 4", n)
	}
}
