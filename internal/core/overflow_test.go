package core

import (
	"testing"

	"snacknoc/internal/fixed"
	"snacknoc/internal/noc"
	"snacknoc/internal/sim"
)

// buildTokenStorm builds a program that floods the loop with transient
// tokens whose consumers are issued at the very end, forcing the tokens
// to circulate — the §III-C2 overflow scenario.
func buildTokenStorm(nTokens int) *Program {
	b := newProg("storm")
	deps := make([]DepID, nTokens)
	// Consumers are held back: producers (data tokens) go first here, so
	// every token must survive on the NoC until its consumer arrives.
	for i := range deps {
		deps[i] = b.dep()
		b.data(deps[i], float64(i%13)+1, 1)
	}
	for i, d := range deps {
		out := b.dep()
		b.result(b.instr(noc.NodeID(i%16), OpMul, Ref(d), Imm32(fixed.FromInt(2))), out)
	}
	return b.prog
}

// TestOverflowManagementSpillsAndRecovers saturates the snack vnet with
// circulating tokens: the CPM must engage the Offload Data Memory Buffer
// (tokens spilled to main memory and re-injected) and the kernel must
// still produce exact results.
func TestOverflowManagementSpillsAndRecovers(t *testing.T) {
	eng := sim.NewEngine()
	p, err := NewStandalone(eng, 4, 4, true, DefaultPlatformConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := 600 // far beyond the loop's in-flight token capacity
	prog := buildTokenStorm(n)
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(prog, 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := float64(i%13+1) * 2
		if got := res.Values[i].Float(); got != want {
			t.Fatalf("token %d result %v, want %v", i, got, want)
		}
	}
	if p.CPM.Offloaded() == 0 {
		t.Error("token storm did not exercise the offload buffer")
	}
	t.Logf("storm of %d tokens: %d cycles, %d offloaded to memory, %d congested cycles",
		n, res.Cycles(), p.CPM.Offloaded(), p.CPM.CongestedCycles())
	eng.Run(2000)
	if !p.Quiesced() {
		t.Error("platform did not quiesce after the storm")
	}
}

// TestOverflowDisabledOnQuietKernels checks the detector's specificity:
// a well-behaved kernel (consumers issued before producers) should not
// trigger spills.
func TestOverflowDisabledOnQuietKernels(t *testing.T) {
	eng := sim.NewEngine()
	p, err := NewStandalone(eng, 4, 4, true, DefaultPlatformConfig())
	if err != nil {
		t.Fatal(err)
	}
	b := newProg("quiet")
	// Consumer-first ordering: each token is captured on its first lap.
	type pair struct {
		dep, out DepID
		val      float64
	}
	pairs := make([]pair, 64)
	for i := range pairs {
		pairs[i] = pair{dep: b.dep(), out: b.dep(), val: float64(i + 1)}
		b.result(b.instr(noc.NodeID(i%16), OpMul, Ref(pairs[i].dep), Imm32(fixed.FromInt(3))), pairs[i].out)
	}
	for _, pr := range pairs {
		b.data(pr.dep, pr.val, 1)
	}
	res, err := p.Run(b.build(t), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range pairs {
		if got := res.Values[i].Float(); got != pr.val*3 {
			t.Fatalf("result %d = %v, want %v", i, got, pr.val*3)
		}
	}
	if off := p.CPM.Offloaded(); off > 8 {
		t.Errorf("quiet kernel spilled %d tokens; overflow should stay mostly idle", off)
	}
}
