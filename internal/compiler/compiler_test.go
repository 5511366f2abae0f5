package compiler

import (
	"testing"

	"snacknoc/internal/core"
	"snacknoc/internal/dataflow"
	"snacknoc/internal/fixed"
	"snacknoc/internal/sim"
	"snacknoc/internal/traffic"
)

// runGraph compiles g and executes it on a fresh 4x4 standalone platform,
// returning the result values.
func runGraph(t *testing.T, g *dataflow.Graph, maxCycles int64) []fixed.Q {
	t.Helper()
	prog, err := Compile(g, DefaultConfig(16))
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	eng := sim.NewEngine()
	p, err := core.NewStandalone(eng, 4, 4, true, core.DefaultPlatformConfig())
	if err != nil {
		t.Fatalf("NewStandalone: %v", err)
	}
	res, err := p.Run(prog, maxCycles)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res.Values
}

// checkAgainstEval asserts platform output equals the functional
// reference bit-for-bit (both use the same fixed-point semantics).
func checkAgainstEval(t *testing.T, g *dataflow.Graph, got []fixed.Q) {
	t.Helper()
	want := g.Eval()
	if len(got) != len(want) {
		t.Fatalf("got %d values, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d: platform %v, reference %v", i, got[i].Float(), want[i].Float())
		}
	}
}

func vec(vals ...float64) []fixed.Q {
	out := make([]fixed.Q, len(vals))
	for i, v := range vals {
		out[i] = fixed.FromFloat(v)
	}
	return out
}

func seqVec(n int, f func(i int) float64) []fixed.Q {
	out := make([]fixed.Q, n)
	for i := range out {
		out[i] = fixed.FromFloat(f(i))
	}
	return out
}

func TestCompileMatMul2x2(t *testing.T) {
	b := dataflow.NewBuilder()
	a, _ := b.Input(vec(1, 2, 3, 4), 2, 2)
	x, _ := b.Input(vec(5, 6, 7, 8), 2, 2)
	ab, _ := b.MatMul(a, x)
	g, _ := b.Build(ab)
	got := runGraph(t, g, 500_000)
	checkAgainstEval(t, g, got)
	if got[0].Float() != 19 || got[3].Float() != 50 {
		t.Fatalf("2x2 matmul wrong: %v", got)
	}
}

func TestCompileMatMulRectangular(t *testing.T) {
	b := dataflow.NewBuilder()
	a, _ := b.Input(seqVec(3*5, func(i int) float64 { return float64(i%7) - 3 }), 3, 5)
	x, _ := b.Input(seqVec(5*2, func(i int) float64 { return float64(i%5) * 0.5 }), 5, 2)
	ab, _ := b.MatMul(a, x)
	g, _ := b.Build(ab)
	checkAgainstEval(t, g, runGraph(t, g, 500_000))
}

func TestCompileGEMMExpression(t *testing.T) {
	// The paper's Fig 8 example: D = alpha*A*B + C, intermediates
	// entirely in-network.
	b := dataflow.NewBuilder()
	a, _ := b.Input(seqVec(4*4, func(i int) float64 { return float64(i) * 0.25 }), 4, 4)
	bb, _ := b.Input(seqVec(4*4, func(i int) float64 { return float64(15-i) * 0.5 }), 4, 4)
	cc, _ := b.Input(seqVec(4*4, func(i int) float64 { return float64(i % 3) }), 4, 4)
	alpha := b.Scalar(fixed.FromFloat(1.5))
	ab, _ := b.MatMul(a, bb)
	scaled, _ := b.Scale(alpha, ab)
	d, _ := b.Add(scaled, cc)
	g, _ := b.Build(d)
	checkAgainstEval(t, g, runGraph(t, g, 2_000_000))
}

func TestCompileSub(t *testing.T) {
	b := dataflow.NewBuilder()
	x, _ := b.Input(vec(10, 20, 30), 1, 3)
	y, _ := b.Input(vec(1, 2, 3), 1, 3)
	d, _ := b.Sub(x, y)
	g, _ := b.Build(d)
	got := runGraph(t, g, 200_000)
	checkAgainstEval(t, g, got)
	if got[2].Float() != 27 {
		t.Fatalf("sub wrong: %v", got[2].Float())
	}
}

func TestCompileReduceSingleChunk(t *testing.T) {
	b := dataflow.NewBuilder()
	x, _ := b.Input(vec(1, 2, 3, 4, 5), 1, 5)
	r, _ := b.Reduce(x)
	g, _ := b.Build(r)
	got := runGraph(t, g, 200_000)
	if got[0].Float() != 15 {
		t.Fatalf("reduce = %v, want 15", got[0].Float())
	}
}

func TestCompileReduceChunked(t *testing.T) {
	// 200 elements across 16 RCUs: partial chains + final reduce.
	b := dataflow.NewBuilder()
	n := 200
	x, _ := b.Input(seqVec(n, func(i int) float64 { return float64(i + 1) }), 1, n)
	r, _ := b.Reduce(x)
	g, _ := b.Build(r)
	got := runGraph(t, g, 1_000_000)
	if want := float64(n * (n + 1) / 2); got[0].Float() != want {
		t.Fatalf("reduce = %v, want %v", got[0].Float(), want)
	}
}

func TestCompileDot(t *testing.T) {
	b := dataflow.NewBuilder()
	n := 100
	x, _ := b.Input(seqVec(n, func(i int) float64 { return float64(i%10) * 0.5 }), 1, n)
	y, _ := b.Input(seqVec(n, func(i int) float64 { return float64(i%7) - 3 }), 1, n)
	d, _ := b.Dot(x, y)
	g, _ := b.Build(d)
	checkAgainstEval(t, g, runGraph(t, g, 1_000_000))
}

// randomSparse builds a deterministic CSR matrix with the given density.
func randomSparse(rows, cols int, density float64, seed uint64) *dataflow.Sparse {
	rng := traffic.NewRNG(seed)
	sp := &dataflow.Sparse{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float() < density {
				sp.ColIdx = append(sp.ColIdx, j)
				sp.Val = append(sp.Val, fixed.FromFloat(rng.Float()*4-2))
			}
		}
		sp.RowPtr[i+1] = len(sp.Val)
	}
	return sp
}

func TestCompileSpMV(t *testing.T) {
	b := dataflow.NewBuilder()
	sp := randomSparse(24, 24, 0.3, 11)
	x, _ := b.Input(seqVec(24, func(i int) float64 { return float64(i%5) - 2 }), 24, 1)
	y, _ := b.SpMV(sp, x)
	g, _ := b.Build(y)
	checkAgainstEval(t, g, runGraph(t, g, 2_000_000))
}

func TestCompileSpMVWithEmptyRowsAndColumns(t *testing.T) {
	sp := &dataflow.Sparse{
		Rows: 4, Cols: 4,
		RowPtr: []int{0, 2, 2, 3, 3}, // rows 1 and 3 empty
		ColIdx: []int{0, 2, 2},       // columns 1 and 3 never used
		Val:    vec(2, 3, 4),
	}
	b := dataflow.NewBuilder()
	x, _ := b.Input(vec(1, 9, 2, 9), 4, 1)
	y, _ := b.SpMV(sp, x)
	g, _ := b.Build(y)
	got := runGraph(t, g, 500_000)
	want := []float64{8, 0, 8, 0}
	for i, w := range want {
		if got[i].Float() != w {
			t.Fatalf("row %d = %v, want %v", i, got[i].Float(), w)
		}
	}
}

func TestCompileRejectsBadInput(t *testing.T) {
	b := dataflow.NewBuilder()
	x, _ := b.Input(vec(1, 2), 1, 2)
	y, _ := b.Input(vec(1, 2), 1, 2)
	d, _ := b.Add(x, y)
	g, _ := b.Build(d)
	if _, err := Compile(g, Config{}); err == nil {
		t.Fatal("compile with no RCUs should fail")
	}
}

func TestLivenessCountsMatMulReuse(t *testing.T) {
	// In C = A×B with B 2x3, each element of A is referenced 3 times.
	b := dataflow.NewBuilder()
	a, _ := b.Input(vec(1, 2), 1, 2)
	x, _ := b.Input(vec(1, 2, 3, 4, 5, 6), 2, 3)
	ab, _ := b.MatMul(a, x)
	g, _ := b.Build(ab)
	prog, err := Compile(g, DefaultConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	// 1x3 output × 2-deep chains = 6 MACs, all operands immediate.
	if got := prog.Instructions(); got != 6 {
		t.Fatalf("instructions = %d, want 6", got)
	}
	if prog.NumOutputs != 3 {
		t.Fatalf("outputs = %d, want 3", prog.NumOutputs)
	}
}

func TestIntermediateTokensCarryDependentCounts(t *testing.T) {
	// (A×B)×Z where Z is 2x4: every element of the intermediate A×B
	// must be emitted with 4 dependents (the paper's §III-A example).
	b := dataflow.NewBuilder()
	a, _ := b.Input(vec(1, 0, 0, 1), 2, 2)
	x, _ := b.Input(vec(1, 2, 3, 4), 2, 2)
	z, _ := b.Input(seqVec(8, func(i int) float64 { return float64(i) }), 2, 4)
	ab, _ := b.MatMul(a, x)
	abz, _ := b.MatMul(ab, z)
	g, _ := b.Build(abz)
	prog, err := Compile(g, DefaultConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, e := range prog.Entries {
		if e.Instr != nil && e.Instr.Emit && !e.Instr.ToCPM {
			if e.Instr.Dependents != 4 {
				t.Fatalf("intermediate dependents = %d, want 4", e.Instr.Dependents)
			}
			found++
		}
	}
	if found != 4 {
		t.Fatalf("found %d intermediate emissions, want 4", found)
	}
	checkAgainstEval(t, g, runGraph(t, g, 2_000_000))
}

func TestRoundRobinSpreadsLoad(t *testing.T) {
	b := dataflow.NewBuilder()
	n := 8
	a, _ := b.Input(seqVec(n*n, func(i int) float64 { return float64(i % 9) }), n, n)
	x, _ := b.Input(seqVec(n*n, func(i int) float64 { return float64(i % 7) }), n, n)
	ab, _ := b.MatMul(a, x)
	g, _ := b.Build(ab)
	prog, err := Compile(g, DefaultConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	perRCU := map[int]int{}
	for _, e := range prog.Entries {
		if e.Instr != nil {
			perRCU[int(e.Instr.Dst)]++
		}
	}
	if len(perRCU) != 16 {
		t.Fatalf("mapped to %d RCUs, want all 16", len(perRCU))
	}
	// 64 sub-blocks of 8 MACs over 16 RCUs: exactly 32 instructions each.
	for rcu, cnt := range perRCU {
		if cnt != 32 {
			t.Fatalf("rcu %d got %d instructions, want 32", rcu, cnt)
		}
	}
}

// sgemmGraph is the SGEMM kernel graph (one n×n by n×n MatMul), the
// shape experiments.BuildKernelGraph builds; n = 12 is the smoke size.
func sgemmGraph(t *testing.T, n int) *dataflow.Graph {
	t.Helper()
	b := dataflow.NewBuilder()
	a, _ := b.Input(seqVec(n*n, func(i int) float64 { return float64(i%7) - 3 }), n, n)
	x, _ := b.Input(seqVec(n*n, func(i int) float64 { return float64(i%5) * 0.5 }), n, n)
	ab, err := b.MatMul(a, x)
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.Build(ab)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCompileAllocatesPerChunkNotPerToken pins the slab-compiled
// command stream: tokens come from fixed-size chunks and Entries is
// sized once, so a program costs about one allocation per slabChunk
// entries plus a constant for the per-node bookkeeping — not one per
// instruction, and nothing that grows with how often append regrows.
func TestCompileAllocatesPerChunkNotPerToken(t *testing.T) {
	for _, n := range []int{12, 24} {
		g := sgemmGraph(t, n)
		var prog *core.Program
		allocs := testing.AllocsPerRun(3, func() {
			var err error
			if prog, err = Compile(g, DefaultConfig(16)); err != nil {
				t.Fatal(err)
			}
		})
		entries := len(prog.Entries)
		if entries != n*n*n {
			t.Fatalf("SGEMM %d compiled to %d entries, want %d", n, entries, n*n*n)
		}
		if limit := float64(entries/slabChunk + 32); allocs > limit {
			t.Errorf("compiling %d entries allocated %.0f objects, want <= entries/%d + 32 = %.0f",
				entries, allocs, slabChunk, limit)
		}
		if cap(prog.Entries) != entries {
			t.Errorf("Entries has capacity %d for %d entries: the bound is exact for a MatMul", cap(prog.Entries), entries)
		}
		t.Logf("SGEMM %d: %d entries, %.0f allocations", n, entries, allocs)
	}
}

// TestCompiledTokensKeepTheirAddresses checks the slab contract the
// CPM relies on: starting a new chunk never moves an earlier token, so
// every ProgEntry pointer stays valid and distinct.
func TestCompiledTokensKeepTheirAddresses(t *testing.T) {
	prog, err := Compile(sgemmGraph(t, 16), DefaultConfig(16)) // 4096 entries, several chunks
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[*core.InstrToken]bool, len(prog.Entries))
	for i, e := range prog.Entries {
		if e.Instr == nil || seen[e.Instr] {
			t.Fatalf("entry %d: missing or aliased instruction token", i)
		}
		seen[e.Instr] = true
		if e.Instr.Seq != uint32(i+1) {
			t.Fatalf("entry %d carries sequence %d: a chunk was overwritten or regrown", i, e.Instr.Seq)
		}
	}
}
