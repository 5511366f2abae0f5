package snacknoc

import (
	"strings"
	"testing"

	"snacknoc/internal/core"
	"snacknoc/internal/fixed"
)

// TestInvalidProgramIsAnErrorAtTheRuntime hands the runtime's kernel
// launch (the call Execute makes for every compiled graph) a program
// whose IDs overflow the CPM namespace. The compiler never emits one
// short of a 16.7 M-value graph, so the program is built by hand. The
// launch must return the error — not panic in CPM.Submit, nor later
// inside an engine event — and leave the platform usable.
func TestInvalidProgramIsAnErrorAtTheRuntime(t *testing.T) {
	p, err := NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	const out = core.DepID(1 << 24)
	bad := &core.Program{Name: "overflow", OutputSlot: map[core.DepID]int{out: 0}, NumOutputs: 1}
	blk := bad.AddBlock(3, 1)
	bad.AddOp(core.OpAdd, core.Imm32(fixed.FromInt(1)), core.Imm32(fixed.FromInt(2)), false)
	blk.Emit, blk.EmitDep, blk.Dependents, blk.ToCPM = true, out, 1, true
	res, err := p.core.Run(bad, maxKernelCycles(bad))
	if err == nil || res != nil || !strings.Contains(err.Error(), "exceeds the namespace") {
		t.Fatalf("Run = (%v, %v), want a namespace error", res, err)
	}
	if p.Cycle() != 0 {
		t.Fatalf("the rejected program ran %d cycles", p.Cycle())
	}

	ctx := p.NewContext()
	a, err := ctx.Input([]float64{1, 2, 3, 4}, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := ctx.Reduce(a)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 1)
	if err := ctx.GetValue(sum, got); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(ctx); err != nil {
		t.Fatalf("Execute after the rejected program: %v", err)
	}
	if got[0] != 10 {
		t.Fatalf("1+2+3+4 = %v after the rejected program", got[0])
	}
}
