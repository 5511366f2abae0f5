package core

import (
	"strings"
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
	nextSB  uint32
	nextDep DepID
}

func newProg(name string) *progBuilder {
	return &progBuilder{prog: &Program{Name: name, OutputSlot: map[DepID]int{}}}
}

func (b *progBuilder) dep() DepID { b.nextDep++; return b.nextDep }

// block opens a sub-block on dst under the next sub-block ID; the ops
// that follow belong to it. The block it returns takes the result
// disposition and stays valid until the next block.
func (b *progBuilder) block(dst noc.NodeID) *ProgBlock {
	b.nextSB++
	return b.prog.AddBlock(dst, b.nextSB)
}

// instr appends a one-instruction sub-block on dst.
func (b *progBuilder) instr(dst noc.NodeID, op Op, l, r Operand) *ProgBlock {
	blk := b.block(dst)
	b.prog.AddOp(op, l, r, false)
	return blk
}

// emit gives blk's result to n consumers as the loop token dep.
func emit(blk *ProgBlock, dep DepID, n int) {
	blk.Emit, blk.EmitDep, blk.Dependents = true, dep, uint16(n)
}

// result makes blk's result the kernel's next output, dep.
func (b *progBuilder) result(blk *ProgBlock, dep DepID) *ProgBlock {
	emit(blk, dep, 1)
	blk.ToCPM = true
	b.output(dep)
	return blk
}

func (b *progBuilder) data(dep DepID, v float64, n int) {
	b.prog.AddData(DataToken{Dep: dep, Dependents: uint16(n), V: fixed.FromFloat(v)})
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
	b.result(b.instr(5, OpAdd, Imm32(fixed.FromFloat(2)), Imm32(fixed.FromFloat(3))), out)
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
		b.result(b.instr(9, tc.op, Imm32(fixed.FromFloat(tc.l)), Imm32(fixed.FromFloat(tc.r))), out)
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
	blk := b.block(10)
	for i, v := range [][2]float64{{1, 2}, {3, 4}, {5, 6}} {
		b.prog.AddOp(OpMAC, Imm32(fixed.FromFloat(v[0])), Imm32(fixed.FromFloat(v[1])), i == 0)
	}
	b.result(blk, out)
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
	b.result(b.instr(12, OpMul, Ref(x), Imm32(fixed.FromFloat(6))), out)
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
		b.result(b.instr(node, OpMul, Ref(x), Imm32(fixed.FromFloat(float64(i+1)))), outs[i])
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
	emit(b.instr(6, OpMul, Imm32(fixed.FromFloat(3)), Imm32(fixed.FromFloat(4))), mid, 1)
	b.result(b.instr(11, OpAdd, Ref(mid), Imm32(fixed.FromFloat(1))), out)
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
	emit(b.instr(8, OpMul, Imm32(fixed.FromFloat(3)), Imm32(fixed.FromFloat(4))), mid, 1)
	b.result(b.instr(8, OpAdd, Ref(mid), Imm32(fixed.FromFloat(2))), out)
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

// TestChainWaitingOnColocatedProducer: RCU 5 holds an Add waiting on an
// input token and a two-op MAC chain whose second op consumes the Add's
// result. The chain's first op is ready and opens the accumulator; the
// Add, once its input arrives, must still run ahead of the open chain,
// or each would wait on the other forever.
func TestChainWaitingOnColocatedProducer(t *testing.T) {
	_, p := newPlatform(t)
	b := newProg("colocated")
	x, mid, out := b.dep(), b.dep(), b.dep()
	emit(b.instr(5, OpAdd, Ref(x), Imm32(fixed.FromFloat(1))), mid, 1)
	blk := b.block(5)
	b.prog.AddOp(OpMAC, Imm32(fixed.FromFloat(2)), Imm32(fixed.FromFloat(3)), true)
	b.prog.AddOp(OpMAC, Ref(mid), Imm32(fixed.FromFloat(10)), false)
	b.result(blk, out)
	b.data(x, 4, 1)
	res, err := p.Run(b.build(t), 100000)
	if err != nil {
		t.Fatal(err)
	}
	if got := int(res.Values[0].Float()); got != 2*3+(4+1)*10 {
		t.Fatalf("2·3 + (4+1)·10 = %d", got)
	}
}

func TestAccAddReduction(t *testing.T) {
	// Sum 1..6 on one RCU with the adder-only accumulator path.
	eng, p := newPlatform(t)
	_ = eng
	b := newProg("reduce")
	out := b.dep()
	blk := b.block(7)
	for i := 1; i <= 6; i++ {
		b.prog.AddOp(OpAccAdd, Imm32(fixed.FromFloat(float64(i))), Operand{}, i == 1)
	}
	b.result(blk, out)
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
	mk := func(out DepID, vals []float64) {
		blk := b.block(4)
		for i, v := range vals {
			b.prog.AddOp(OpAccAdd, Imm32(fixed.FromFloat(v)), Operand{}, i == 0)
		}
		b.result(blk, out)
	}
	mk(outA, []float64{1, 2, 3})
	mk(outB, []float64{10, 20, 30})
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
	b.result(b.instr(15, OpAdd, Imm32(fixed.FromFloat(1)), Imm32(fixed.FromFloat(1))), out)
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
	b.result(b.instr(15, OpAdd, Imm32(fixed.FromFloat(1)), Imm32(fixed.FromFloat(1))), out)
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
			b.result(b.instr(noc.NodeID(3+i*4), OpMul, Ref(x), Imm32(fixed.FromFloat(float64(i+1)))), out)
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
		b.result(b.instr(noc.NodeID(i%16), OpAdd, Imm32(fixed.FromFloat(float64(i))), Imm32(fixed.FromFloat(1))), out)
	}
	res, err := p.Run(b.build(t), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles() < int64(n) {
		t.Fatalf("%d instructions completed in %d cycles — faster than the 1 IPC issue bound", n, res.Cycles())
	}
	for i := 0; i < n; i++ {
		if got := int(res.Values[i].Float()); got != i+1 {
			t.Fatalf("slot %d = %d, want %d", i, got, i+1)
		}
	}
}

// TestTokenSizes pins the compiled-program layout — a 16-byte op per
// instruction (the InstrBytes the model charges), a block of at most 24
// bytes per sub-block and a 4-byte entry per command — and the 56-byte
// in-flight token the CPM builds from them, so a new field in any of
// them is a conscious choice, made here.
func TestTokenSizes(t *testing.T) {
	if n := unsafe.Sizeof(ProgOp{}); n != InstrBytes {
		t.Errorf("ProgOp is %d bytes, want %d", n, InstrBytes)
	}
	if n := unsafe.Sizeof(ProgBlock{}); n > 24 {
		t.Errorf("ProgBlock is %d bytes, want at most 24", n)
	}
	if n := unsafe.Sizeof(ProgEntry(0)); n != 4 {
		t.Errorf("ProgEntry is %d bytes, want 4", n)
	}
	if n := unsafe.Sizeof(InstrToken{}); n != 56 {
		t.Errorf("InstrToken is %d bytes, want 56", n)
	}
}

// TestRejectsUnreachableALOThreshold: at one VC per vnet the CPM's
// corner router offers at most four free communication VCs (two mesh
// outputs, two communication vnets), below the default ALO threshold of
// six, so the CPM would report congestion from the first cycle and never
// issue. The build fails instead; at two VCs per vnet it offers eight.
func TestRejectsUnreachableALOThreshold(t *testing.T) {
	cfg := DefaultPlatformConfig()
	_, err := NewStandaloneOn(sim.NewEngine(), noc.SnackPlatformCustom(4, 4, true, 1, 2, 16), cfg)
	if err == nil || !strings.Contains(err.Error(), "threshold 6") || !strings.Contains(err.Error(), "at most 4") {
		t.Fatalf("vc=1 build: err = %v, want the threshold 6 / at most 4 rejection", err)
	}
	if _, err := NewStandaloneOn(sim.NewEngine(), noc.SnackPlatformCustom(4, 4, true, 2, 2, 16), cfg); err != nil {
		t.Fatalf("vc=2 build: %v", err)
	}
}
