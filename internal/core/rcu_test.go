package core

import (
	"testing"

	"snacknoc/internal/fixed"
	"snacknoc/internal/noc"
)

// feedInstr delivers an instruction to the RCU as if its flit arrived at
// the given cycle.
func feedInstr(r *RCU, it *InstrToken, cycle int64) {
	consumed := r.OnArrival(&noc.Flit{Payload: it}, cycle)
	if !consumed {
		panic("rcu did not consume instruction flit")
	}
}

// step runs one RCU cycle without a network (no port attached: results
// queue in outQ).
func step(r *RCU, cycle int64) {
	r.Evaluate(cycle)
	// Advance would inject via the port; without one, outQ holds results.
}

func TestRCUReordersSubBlock(t *testing.T) {
	r := NewRCU(3, nil, 0)
	// Deliver a 3-MAC chain REVERSED: idx 2, 1, 0.
	mk := func(idx int, l, rr float64, last bool) *InstrToken {
		it := &InstrToken{
			Op: OpMAC, Dst: 3, Seq: uint32(10 + idx), SubBlock: 7, SBIdx: int32(idx),
			L: Imm32(fixed.FromFloat(l)), R: Imm32(fixed.FromFloat(rr)),
			AccInit: idx == 0,
		}
		if last {
			it.EndSB, it.Emit, it.EmitDep, it.Dependents, it.ToCPM = true, true, 99, 1, true
		}
		return it
	}
	feedInstr(r, mk(2, 5, 6, true), 0)
	feedInstr(r, mk(1, 3, 4, false), 0)
	feedInstr(r, mk(0, 1, 2, false), 0)
	for c := int64(1); c < 20; c++ {
		step(r, c)
	}
	if r.Executed() != 3 {
		t.Fatalf("executed %d instructions, want 3", r.Executed())
	}
	if r.outQ.Len() != 1 {
		t.Fatalf("outQ has %d tokens, want 1", r.outQ.Len())
	}
	// 1*2 + 3*4 + 5*6 = 44 — correct only if the chain ran in SBIdx order.
	if got := r.outQ.Pop().tok.V.Float(); got != 44 {
		t.Fatalf("chain result %v, want 44 (out-of-order execution?)", got)
	}
}

func TestRCUWaitsForMissingOperand(t *testing.T) {
	r := NewRCU(3, nil, 0)
	it := &InstrToken{Op: OpAdd, Dst: 3, Seq: 1, SubBlock: 1, SBIdx: 0, EndSB: true,
		L: Ref(42), R: Imm32(fixed.FromInt(1)),
		Emit: true, EmitDep: 50, Dependents: 1, ToCPM: true}
	feedInstr(r, it, 0)
	for c := int64(1); c < 10; c++ {
		step(r, c)
	}
	if r.Executed() != 0 {
		t.Fatal("fired without its dependency")
	}
	// The dependency arrives as a loop token; the RCU captures and fires.
	tok := &DataToken{Dep: 42, Dependents: 1, V: fixed.FromInt(9)}
	if !r.OnArrival(&noc.Flit{Payload: tok, Loop: true}, 10) {
		t.Fatal("token with one dependent should be consumed on capture")
	}
	for c := int64(11); c < 20; c++ {
		step(r, c)
	}
	if r.Executed() != 1 {
		t.Fatal("did not fire after capture")
	}
	if got := r.outQ.Pop().tok.V.Float(); got != 10 {
		t.Fatalf("9+1 = %v", got)
	}
}

func TestRCUForwardsUnwantedTokens(t *testing.T) {
	r := NewRCU(3, nil, 0)
	tok := &DataToken{Dep: 77, Dependents: 2, V: fixed.FromInt(1)}
	if r.OnArrival(&noc.Flit{Payload: tok, Loop: true}, 0) {
		t.Fatal("consumed a token nothing waits for")
	}
	if tok.Dependents != 2 {
		t.Fatalf("dependents mutated to %d", tok.Dependents)
	}
}

func TestRCUPartialCapture(t *testing.T) {
	r := NewRCU(3, nil, 0)
	it := &InstrToken{Op: OpAdd, Dst: 3, Seq: 1, SubBlock: 1, SBIdx: 0, EndSB: true,
		L: Ref(5), R: Imm32(fixed.FromInt(0)), Emit: true, EmitDep: 6, Dependents: 1, ToCPM: true}
	feedInstr(r, it, 0)
	step(r, 2) // drain inbox so the waiting index exists
	tok := &DataToken{Dep: 5, Dependents: 3, V: fixed.FromInt(4)}
	if r.OnArrival(&noc.Flit{Payload: tok, Loop: true}, 3) {
		t.Fatal("token with remaining dependents was consumed")
	}
	if tok.Dependents != 2 {
		t.Fatalf("dependents = %d after one capture, want 2", tok.Dependents)
	}
}

func TestRCUExecLatencyMatchesOps(t *testing.T) {
	// OpAdd completes in 1 cycle; OpMAC holds the ALU for 2.
	for _, tc := range []struct {
		op      Op
		latency int64
	}{{OpAdd, 1}, {OpSub, 1}, {OpMul, 2}, {OpMAC, 2}, {OpAccAdd, 1}} {
		if got := tc.op.Latency(); got != tc.latency {
			t.Errorf("%s latency = %d, want %d", tc.op, got, tc.latency)
		}
	}
}

func TestRCUEnqueueStageDelaysDispatch(t *testing.T) {
	r := NewRCU(3, nil, 0)
	it := &InstrToken{Op: OpAdd, Dst: 3, Seq: 1, SubBlock: 1, SBIdx: 0, EndSB: true,
		L: Imm32(fixed.FromInt(1)), R: Imm32(fixed.FromInt(1)),
		Emit: true, EmitDep: 9, Dependents: 1, ToCPM: true}
	feedInstr(r, it, 5)
	step(r, 5) // same cycle as arrival: still in the enqueue stage
	if r.Executed() != 0 || r.exec >= 0 {
		t.Fatal("instruction dispatched without the §III-D2 enqueue stage")
	}
	step(r, 6) // enqueue + dispatch
	step(r, 7) // complete
	if r.Executed() != 1 {
		t.Fatalf("executed = %d after latency elapsed", r.Executed())
	}
}

// TestAccAddFreesItsSlotOnTheLateFill: OpAccAdd ignores R, so it can
// complete while R still waits for its token. The slot stays reserved
// for that fill — which still consumes a dependent — and the fill frees
// it.
func TestAccAddFreesItsSlotOnTheLateFill(t *testing.T) {
	r := NewRCU(3, nil, 0)
	feedInstr(r, &InstrToken{Op: OpAccAdd, Dst: 3, Seq: 1, SubBlock: 1, EndSB: true, AccInit: true,
		L: Imm32(fixed.FromInt(5)), R: Ref(42)}, 0)
	for c := int64(1); c < 5; c++ {
		step(r, c)
	}
	if r.Executed() != 1 {
		t.Fatalf("executed %d, want 1", r.Executed())
	}
	if !r.instrs.at(0).retired || r.instrs.free >= 0 {
		t.Fatal("the slot was freed while a waiting-list cell still names it")
	}
	tok := &DataToken{Dep: 42, Dependents: 2, V: fixed.FromInt(1)}
	if r.OnArrival(&noc.Flit{Payload: tok, Loop: true}, 5) || tok.Dependents != 1 {
		t.Fatalf("the late fill left %d dependents, want 1", tok.Dependents)
	}
	if r.instrs.free != 0 || r.instrs.at(0).retired {
		t.Fatal("the late fill did not free the retired slot")
	}
}
