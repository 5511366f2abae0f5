package compiler

import (
	"strings"
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
	for _, b := range prog.Blocks {
		if b.Emit && !b.ToCPM {
			if b.Dependents != 4 {
				t.Fatalf("intermediate dependents = %d, want 4", b.Dependents)
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
	for _, o := range prog.Ops {
		perRCU[int(prog.Blocks[o.Block].Dst)]++
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

// TestCompileAllocatesPerGraphNotPerToken pins the value-array command
// stream: Entries, Ops, Blocks and Datas are each allocated once at their
// bound, so a program's object count depends on its graph's shape, not
// its size — an SGEMM 24 costs what an SGEMM 12 does — and, the bounds
// being exact for a MatMul, nothing is left over.
func TestCompileAllocatesPerGraphNotPerToken(t *testing.T) {
	var allocs [2]float64
	for k, n := range []int{12, 24} {
		g := sgemmGraph(t, n)
		var prog *core.Program
		// Ten runs: AllocsPerRun rounds the mean down, so a stray
		// runtime allocation in one run cannot tip the count.
		allocs[k] = testing.AllocsPerRun(10, func() {
			var err error
			if prog, err = Compile(g, DefaultConfig(16)); err != nil {
				t.Fatal(err)
			}
		})
		entries := len(prog.Entries)
		if entries != n*n*n || len(prog.Ops) != entries || len(prog.Blocks) != n*n || len(prog.Datas) != 0 {
			t.Fatalf("SGEMM %d compiled to %d entries, %d instructions, %d sub-blocks and %d input tokens, want %d, %d, %d and 0",
				n, entries, len(prog.Ops), len(prog.Blocks), len(prog.Datas), n*n*n, n*n*n, n*n)
		}
		if cap(prog.Entries) != entries || cap(prog.Ops) != entries || cap(prog.Blocks) != n*n {
			t.Errorf("SGEMM %d: capacities %d entries, %d instructions and %d sub-blocks for %d and %d: the bounds are exact for a MatMul",
				n, cap(prog.Entries), cap(prog.Ops), cap(prog.Blocks), entries, n*n)
		}
		for i, e := range prog.Entries {
			if seq := prog.Token(i).Seq; e != core.ProgEntry(i) || seq != uint32(i+1) {
				t.Fatalf("entry %d names %d, sequence %d: want instruction %d, sequence %d",
					i, e, seq, i, i+1)
			}
		}
		t.Logf("SGEMM %d: %d entries, %.0f allocations", n, entries, allocs[k])
	}
	if allocs[0] != allocs[1] {
		t.Errorf("SGEMM 12 allocated %.0f objects and SGEMM 24 %.0f: a program should cost the same objects at any size",
			allocs[0], allocs[1])
	}
}

// outerGraph is the rows×1 · 1×cols outer product: rows·cols entries
// from two small inputs.
func outerGraph(t *testing.T, b *dataflow.Builder, rows, cols int) *dataflow.Node {
	t.Helper()
	x, _ := b.Input(make([]fixed.Q, rows), rows, 1)
	y, _ := b.Input(make([]fixed.Q, cols), 1, cols)
	xy, err := b.MatMul(x, y)
	if err != nil {
		t.Fatal(err)
	}
	return xy
}

// TestCompileRejectsGraphsPastTheEntryIndex: a ProgEntry is an int32, so
// a graph whose entry bound passes math.MaxInt32 is an error before
// anything is sized from it.
func TestCompileRejectsGraphsPastTheEntryIndex(t *testing.T) {
	cases := []struct {
		name  string
		build func(b *dataflow.Builder) *dataflow.Node
		fails bool
	}{
		{"smoke outer product", func(b *dataflow.Builder) *dataflow.Node { return outerGraph(t, b, 12, 12) }, false},
		{"2^31 entries", func(b *dataflow.Builder) *dataflow.Node { return outerGraph(t, b, 1<<16, 1<<15) }, true},
		{"2^32 entries", func(b *dataflow.Builder) *dataflow.Node { return outerGraph(t, b, 1<<16, 1<<16) }, true},
		{"two nodes of 2^30", func(b *dataflow.Builder) *dataflow.Node {
			xy := outerGraph(t, b, 1<<15, 1<<15)
			sum, _ := b.Add(xy, xy)
			return sum
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := dataflow.NewBuilder()
			g, err := b.Build(tc.build(b))
			if err != nil {
				t.Fatal(err)
			}
			_, err = Compile(g, DefaultConfig(16))
			if tc.fails != (err != nil) || (err != nil && !strings.Contains(err.Error(), "ProgEntry")) {
				t.Fatalf("Compile = %v, want a ProgEntry index error: %v", err, tc.fails)
			}
		})
	}
}
