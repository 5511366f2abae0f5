package snacknoc

import (
	"strings"
	"testing"

	"snacknoc/internal/core"
	"snacknoc/internal/fixed"
)

// onePlusTwo builds by hand a one-instruction program that adds 1 and 2
// on RCU 3 and sends the sum to the CPM as dependency out.
func onePlusTwo(name string, out core.DepID) *core.Program {
	prog := &core.Program{Name: name, OutputSlot: map[core.DepID]int{out: 0}, NumOutputs: 1}
	blk := prog.AddBlock(3, 1)
	prog.AddOp(core.OpAdd, core.Imm32(fixed.FromInt(1)), core.Imm32(fixed.FromInt(2)), false)
	blk.Emit, blk.EmitDep, blk.Dependents, blk.ToCPM = true, out, 1, true
	return prog
}

// TestInvalidProgramIsAnErrorAtTheRuntime hands the runtime's kernel
// launch (the call every Execute makes with its compiled graphs) a
// program whose IDs overflow the CPM namespace, behind a valid one. The
// compiler never emits one short of a 16.7 M-value graph, so the program
// is built by hand. The launch must return the error before it submits
// either program — not panic in CPM.Submit, nor later inside an engine
// event — and leave the platform usable.
func TestInvalidProgramIsAnErrorAtTheRuntime(t *testing.T) {
	p, err := NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	good, bad := onePlusTwo("good", 1), onePlusTwo("overflow", 1<<24)
	j := &job{cpm: p.core.CPM, progs: []*core.Program{good, bad}, outs: [][]float64{{0}, {0}}}
	if err := p.start([]*job{j}); err == nil || !strings.Contains(err.Error(), "exceeds the namespace") {
		t.Fatalf("start = %v, want a namespace error", err)
	}
	if p.core.CPM.Busy() || p.Cycle() != 0 {
		t.Fatalf("the rejected launch submitted its valid program (busy %v) or ran %d cycles",
			p.core.CPM.Busy(), p.Cycle())
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

// TestConcurrentInstructionsAreEachContexts: ExecuteConcurrent compiles
// context i onto the i-th slice of the RCUs, so the instructions the
// RCUs of that slice execute are the context's own, and its Stats must
// report exactly that many — whatever the other contexts hold.
func TestConcurrentInstructionsAreEachContexts(t *testing.T) {
	p, err := NewDecentralizedPlatform()
	if err != nil {
		t.Fatal(err)
	}
	ctxs := make([]*Context, 3)
	for i := range ctxs {
		ctxs[i] = p.NewContext()
		x, err := ctxs[i].Input(make([]float64, 100*(i+1)), 1, 100*(i+1))
		if err != nil {
			t.Fatal(err)
		}
		r, err := ctxs[i].Reduce(x)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctxs[i].GetValue(r, make([]float64, 1)); err != nil {
			t.Fatal(err)
		}
	}
	sts, err := p.ExecuteConcurrent(ctxs...)
	if err != nil {
		t.Fatal(err)
	}
	per := p.RCUs() / len(ctxs)
	for i, st := range sts {
		var executed int64
		for _, r := range p.core.RCUs[i*per : (i+1)*per] {
			executed += r.Executed()
		}
		if executed == 0 || st.Instructions != executed {
			t.Errorf("context %d: Stats.Instructions %d, its RCUs executed %d", i, st.Instructions, executed)
		}
	}
}

// TestBusyCPMIsAnError: a CPM still running a kernel, as a call that ran
// out of cycles leaves it, refuses the next call with an error before
// anything is submitted, not with a panic, and the call's contexts keep
// their requests for a retry once the CPM is free.
func TestBusyCPMIsAnError(t *testing.T) {
	p, err := NewDecentralizedPlatform()
	if err != nil {
		t.Fatal(err)
	}
	busy := p.core.CPMs[1]
	if !busy.Submit(onePlusTwo("left behind", 1), 0, nil) {
		t.Fatal("a fresh CPM refused a kernel")
	}
	ctxs := []*Context{p.NewContext(), p.NewContext()}
	outs := make([][]float64, len(ctxs))
	for i, c := range ctxs {
		x, err := c.Input([]float64{1, 2, float64(i)}, 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.Reduce(x)
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = make([]float64, 1)
		if err := c.GetValue(r, outs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.ExecuteConcurrent(ctxs...); err == nil || !strings.Contains(err.Error(), "still running") {
		t.Fatalf("a busy CPM: err = %v, want a still-running error", err)
	}
	if p.core.CPMs[0].Busy() || p.Cycle() != 0 {
		t.Fatalf("the refused call submitted to CPM 0 (busy %v) or ran %d cycles", p.core.CPMs[0].Busy(), p.Cycle())
	}
	if _, ok := p.eng.RunUntil(func() bool { return !busy.Busy() }, 100_000); !ok {
		t.Fatal("the kernel left behind did not finish")
	}
	if _, err := p.ExecuteConcurrent(ctxs...); err != nil {
		t.Fatalf("retry once the CPM is free: %v", err)
	}
	if outs[0][0] != 3 || outs[1][0] != 4 {
		t.Fatalf("retry computed %v and %v, want 3 and 4", outs[0][0], outs[1][0])
	}
}
