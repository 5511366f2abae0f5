package core

import (
	"testing"

	"snacknoc/internal/fixed"
	"snacknoc/internal/noc"
	"snacknoc/internal/sim"
)

// buildReduce constructs a small reduction program over the given RCUs.
func buildReduce(vals []float64, rcus []noc.NodeID) *Program {
	b := newProg("reduce")
	out := b.dep()
	final := rcus[0]
	chunk := (len(vals) + len(rcus) - 2) / (len(rcus) - 1)
	var partialDeps []DepID
	for range rcus[1:] {
		partialDeps = append(partialDeps, b.dep())
	}
	// Final chain first (consumers before producers).
	blk := b.block(final)
	for i, d := range partialDeps {
		b.prog.AddOp(OpAccAdd, Ref(d), Operand{}, i == 0)
	}
	b.result(blk, out)
	for ci, rcu := range rcus[1:] {
		lo := ci * chunk
		hi := lo + chunk
		if hi > len(vals) {
			hi = len(vals)
		}
		blk := b.block(rcu)
		for i := lo; i < hi; i++ {
			b.prog.AddOp(OpAccAdd, Imm32(fixed.FromFloat(vals[i])), Operand{}, i == lo)
		}
		emit(blk, partialDeps[ci], 1)
	}
	return b.prog
}

func TestDecentralizedCPMsRunConcurrently(t *testing.T) {
	eng := sim.NewEngine()
	corners := []noc.NodeID{0, 3, 12, 15}
	p, err := NewStandaloneMulti(eng, 4, 4, true, corners)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.CPMs) != 4 {
		t.Fatalf("got %d CPMs", len(p.CPMs))
	}

	// Four kernels, one per CPM, sharing the 16 RCUs and the loop.
	type job struct {
		want float64
		res  *Result
	}
	jobs := make([]job, 4)
	for i, cpm := range p.CPMs {
		vals := make([]float64, 64)
		sum := 0.0
		for j := range vals {
			vals[j] = float64((i+1)*(j%7)) * 0.25
			sum += vals[j]
		}
		jobs[i].want = sum
		// Each kernel owns a disjoint RCU partition. Concurrent kernels
		// must not share accumulator-chain RCUs: an open chain waiting on
		// another kernel's partial would block that kernel's co-located
		// producer — a cross-kernel deadlock no single compiler can see.
		rcus := []noc.NodeID{noc.NodeID(i * 4), noc.NodeID(i*4 + 1), noc.NodeID(i*4 + 2), noc.NodeID(i*4 + 3)}
		prog := buildReduce(vals, rcus)
		if err := prog.Validate(); err != nil {
			t.Fatalf("cpm %d program: %v", i, err)
		}
		idx := i
		if !cpm.Submit(prog, eng.Cycle(), func(r *Result) { jobs[idx].res = r }) {
			t.Fatalf("cpm %d rejected submit", i)
		}
	}
	eng.RunUntil(func() bool {
		for i := range jobs {
			if jobs[i].res == nil {
				return false
			}
		}
		return true
	}, 2_000_000)
	for i := range jobs {
		if jobs[i].res == nil {
			t.Fatalf("kernel %d never completed (cpm state %s)", i, p.CPMs[i].State())
		}
		if got := jobs[i].res.Values[0].Float(); got != jobs[i].want {
			t.Errorf("kernel %d = %v, want %v", i, got, jobs[i].want)
		}
	}
}

func TestDecentralizedThroughputScales(t *testing.T) {
	// Aggregate issue bandwidth should grow with CPM count: four CPMs
	// streaming concurrently finish ~4 kernels in much less than 4x one
	// kernel's time.
	mkProg := func(n int, rcus []noc.NodeID) *Program {
		vals := make([]float64, n)
		for j := range vals {
			vals[j] = 1
		}
		return buildReduce(vals, rcus)
	}
	groups := [][]noc.NodeID{
		{1, 2, 5, 6}, {4, 8, 9, 13}, {7, 11, 14, 10}, {0, 3, 12, 15},
	}

	single := func() int64 {
		eng := sim.NewEngine()
		p, _ := NewStandalone(eng, 4, 4, true, DefaultPlatformConfig())
		start := eng.Cycle()
		for i := 0; i < 4; i++ {
			if _, err := p.Run(mkProg(2000, groups[i]), 10_000_000); err != nil {
				t.Fatal(err)
			}
		}
		return eng.Cycle() - start
	}()

	multi := func() int64 {
		eng := sim.NewEngine()
		p, err := NewStandaloneMulti(eng, 4, 4, true, []noc.NodeID{0, 3, 12, 15})
		if err != nil {
			t.Fatal(err)
		}
		done := 0
		for i, cpm := range p.CPMs {
			if !cpm.Submit(mkProg(2000, groups[i]), 0, func(*Result) { done++ }) {
				t.Fatal("submit rejected")
			}
		}
		eng.RunUntil(func() bool { return done == 4 }, 10_000_000)
		if done != 4 {
			t.Fatal("not all kernels completed")
		}
		return eng.Cycle()
	}()

	t.Logf("4 kernels: sequential single-CPM %d cycles, concurrent 4-CPM %d cycles (%.2fx)",
		single, multi, float64(single)/float64(multi))
	if float64(single)/float64(multi) < 2.0 {
		t.Errorf("decentralized CPMs speedup %.2fx, want >= 2x", float64(single)/float64(multi))
	}
}
