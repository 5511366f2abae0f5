package snacknoc_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"snacknoc"
)

func almostEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func TestQuickstartMatMul(t *testing.T) {
	p, err := snacknoc.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	ctx := p.NewContext()
	a, err := ctx.Input([]float64{1, 2, 3, 4}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctx.Input([]float64{5, 6, 7, 8}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := ctx.MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 4)
	if err := ctx.GetValue(ab, out); err != nil {
		t.Fatal(err)
	}
	st, err := p.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(out, []float64{19, 22, 43, 50}, 1e-3) {
		t.Fatalf("matmul = %v", out)
	}
	if st.Cycles <= 0 || st.Instructions != 8 {
		t.Fatalf("stats = %+v, want positive cycles and 8 MACs", st)
	}
}

func TestGEMMExpression(t *testing.T) {
	// The paper's Fig 8: D = alpha*A*B + C with in-network intermediates.
	p, _ := snacknoc.NewPlatform()
	ctx := p.NewContext()
	n := 4
	av := make([]float64, n*n)
	bv := make([]float64, n*n)
	cv := make([]float64, n*n)
	for i := range av {
		av[i] = float64(i%5) * 0.5
		bv[i] = float64((i+3)%7) - 2
		cv[i] = float64(i % 3)
	}
	a, _ := ctx.Input(av, n, n)
	b, _ := ctx.Input(bv, n, n)
	c, _ := ctx.Input(cv, n, n)
	alpha := ctx.Scalar(1.5)
	ab, err := ctx.MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := ctx.Scale(alpha, ab)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ctx.Add(scaled, c)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, n*n)
	if err := ctx.GetValue(d, out); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	// Reference in float64 (fixed-point tolerance).
	want := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			acc := 0.0
			for k := 0; k < n; k++ {
				acc += av[i*n+k] * bv[k*n+j]
			}
			want[i*n+j] = 1.5*acc + cv[i*n+j]
		}
	}
	if !almostEqual(out, want, 1e-2) {
		t.Fatalf("gemm = %v, want %v", out, want)
	}
}

func TestReduceAndDot(t *testing.T) {
	p, _ := snacknoc.NewPlatform()
	ctx := p.NewContext()
	n := 100
	xs := make([]float64, n)
	ys := make([]float64, n)
	sum, dot := 0.0, 0.0
	for i := range xs {
		xs[i] = float64(i%7) * 0.25
		ys[i] = float64(i%4) - 1.5
		sum += xs[i]
		dot += xs[i] * ys[i]
	}
	x, _ := ctx.Input(xs, 1, n)
	y, _ := ctx.Input(ys, 1, n)
	r, _ := ctx.Reduce(x)
	d, _ := ctx.Dot(x, y)
	outR := make([]float64, 1)
	outD := make([]float64, 1)
	ctx.GetValue(r, outR)
	ctx.GetValue(d, outD)
	st, err := p.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(outR[0]-sum) > 0.01 || math.Abs(outD[0]-dot) > 0.05 {
		t.Fatalf("reduce=%v (want %v) dot=%v (want %v)", outR[0], sum, outD[0], dot)
	}
	if st.Graphs != 2 {
		t.Fatalf("graphs executed = %d, want 2", st.Graphs)
	}
}

func TestSpMVKernel(t *testing.T) {
	p, _ := snacknoc.NewPlatform()
	ctx := p.NewContext()
	a := snacknoc.CSR{
		Rows: 3, Cols: 3,
		RowPtr: []int{0, 2, 3, 5},
		ColIdx: []int{0, 2, 1, 0, 2},
		Val:    []float64{2, 1, 3, 4, 5},
	}
	x, _ := ctx.Input([]float64{1, 2, 3}, 3, 1)
	y, err := ctx.SpMV(a, x)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 3)
	ctx.GetValue(y, out)
	st, err := p.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(out, []float64{5, 6, 19}, 1e-3) {
		t.Fatalf("spmv = %v", out)
	}
	if st.TokensCaptured == 0 {
		t.Fatal("SpMV should exercise transient token capture")
	}
}

func TestExecuteAllHonorsPriority(t *testing.T) {
	p, _ := snacknoc.NewPlatform()
	lo := p.NewContext()
	lo.SetName("low")
	lo.SetPriority(1)
	hi := p.NewContext()
	hi.SetName("high")
	hi.SetPriority(9)
	mk := func(ctx *snacknoc.Context) []float64 {
		a, _ := ctx.Input([]float64{1, 2}, 1, 2)
		r, _ := ctx.Reduce(a)
		out := make([]float64, 1)
		ctx.GetValue(r, out)
		return out
	}
	outLo := mk(lo)
	outHi := mk(hi)
	stats, err := p.ExecuteAll(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if outLo[0] != 3 || outHi[0] != 3 {
		t.Fatalf("results: lo=%v hi=%v", outLo[0], outHi[0])
	}
	if len(stats) != 2 || stats[0] == nil || stats[1] == nil {
		t.Fatalf("stats = %v", stats)
	}
}

func TestAPIErrors(t *testing.T) {
	p, _ := snacknoc.NewPlatform()
	ctx := p.NewContext()
	if _, err := ctx.Input([]float64{1, 2, 3}, 2, 2); err == nil {
		t.Error("shape mismatch accepted")
	}
	a, _ := ctx.Input([]float64{1, 2}, 1, 2)
	b, _ := ctx.Input([]float64{1, 2, 3}, 1, 3)
	if _, err := ctx.Add(a, b); err == nil {
		t.Error("mismatched Add accepted")
	}
	if _, err := ctx.MatMul(a, a); err == nil {
		t.Error("invalid MatMul shapes accepted")
	}
	if err := ctx.GetValue(a, make([]float64, 2)); err == nil {
		t.Error("GetValue of plain input accepted")
	}
	sum, _ := ctx.Reduce(a)
	if err := ctx.GetValue(sum, nil); err == nil {
		t.Error("undersized output buffer accepted")
	}
	if _, err := p.Execute(ctx); err == nil {
		t.Error("Execute with no requests accepted")
	}
	other := p.NewContext()
	if _, err := other.Reduce(a); err == nil {
		t.Error("cross-context value accepted")
	}
}

func TestPlatformOptions(t *testing.T) {
	p, err := snacknoc.NewPlatform(
		snacknoc.WithMesh(4, 8),
		snacknoc.WithPriorityArbitration(false),
		snacknoc.WithCPMNode(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	if p.RCUs() != 32 {
		t.Fatalf("RCUs = %d, want 32", p.RCUs())
	}
	ctx := p.NewContext()
	a, _ := ctx.Input([]float64{2, 3}, 1, 2)
	r, _ := ctx.Reduce(a)
	out := make([]float64, 1)
	ctx.GetValue(r, out)
	if _, err := p.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if out[0] != 5 {
		t.Fatalf("reduce on 4x8 mesh = %v", out[0])
	}
}

func TestContextReusableAfterExecute(t *testing.T) {
	p, _ := snacknoc.NewPlatform()
	ctx := p.NewContext()
	a, _ := ctx.Input([]float64{1, 2, 3}, 1, 3)
	r, _ := ctx.Reduce(a)
	out := make([]float64, 1)
	ctx.GetValue(r, out)
	if _, err := p.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	// New request on the same context, including reuse of prior values.
	r2, _ := ctx.Reduce(a)
	out2 := make([]float64, 1)
	ctx.GetValue(r2, out2)
	if _, err := p.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if out2[0] != 6 {
		t.Fatalf("second execute = %v", out2[0])
	}
}

// TestNewPlatformRejectsCPMNodeOutsideMesh: a CPM node outside the mesh
// is an error at the public API, not an index panic while the platform
// is wired.
func TestNewPlatformRejectsCPMNodeOutsideMesh(t *testing.T) {
	for _, node := range []int{-1, 16, 99} {
		if _, err := snacknoc.NewPlatform(snacknoc.WithCPMNode(node)); err == nil ||
			!strings.Contains(err.Error(), "outside mesh") {
			t.Errorf("CPM node %d on a 4x4: err = %v, want an outside-mesh error", node, err)
		}
	}
	if _, err := snacknoc.NewPlatform(snacknoc.WithCPMNode(15)); err != nil {
		t.Fatalf("CPM node 15 on a 4x4: %v", err)
	}
}

// buildThreeGraphs registers three graphs in ctx — D = 1.5·A·B + C on
// 6×6 matrices, a 40-element reduction and a 4×4 SpMV — with inputs
// shifted by k, and returns their output buffers.
func buildThreeGraphs(t *testing.T, ctx *snacknoc.Context, k int) [][]float64 {
	t.Helper()
	const n = 6
	a, b, c := make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
	for i := range a {
		a[i] = float64((i*7+k)%5) * 0.5
		b[i] = float64((i*3+2*k)%7) * 0.25
		c[i] = float64(i%4) - 1
	}
	v := make([]float64, 40)
	for i := range v {
		v[i] = float64(i%9+k) * 0.125
	}
	must := func(x *snacknoc.Value, err error) *snacknoc.Value {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	A, B, C := must(ctx.Input(a, n, n)), must(ctx.Input(b, n, n)), must(ctx.Input(c, n, n))
	d := must(ctx.Add(must(ctx.Scale(ctx.Scalar(1.5), must(ctx.MatMul(A, B)))), C))
	r := must(ctx.Reduce(must(ctx.Input(v, 1, 40))))
	csr := snacknoc.CSR{Rows: 4, Cols: 4, RowPtr: []int{0, 2, 3, 5, 6},
		ColIdx: []int{0, 3, 1, 0, 2, 3}, Val: []float64{1, 2, 3, 4, 5, 6}}
	y := must(ctx.SpMV(csr, must(ctx.Input([]float64{1, 2, 3, float64(k)}, 4, 1))))
	outs := [][]float64{make([]float64, n*n), make([]float64, 1), make([]float64, 4)}
	for i, root := range []*snacknoc.Value{d, r, y} {
		if err := ctx.GetValue(root, outs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return outs
}

// TestMultiGraphContextRecorded pins a three-graph context end to end:
// on one CPM through Execute, and three such contexts at once through
// ExecuteConcurrent on the four-corner platform. Every Stats field, every
// output and the end cycle were recorded from the runtime that ran
// Execute and ExecuteConcurrent as two separate loops, with two
// exceptions. That runtime left a concurrent context's Instructions,
// TokensCaptured, TokensOffloaded and CongestedCycles at zero, so those
// expectations are its platform-wide counts over the call (1 017
// instructions executed, 249 tokens captured). And it left RCU 15 idle
// under three contexts; with it handed to context 0 the concurrent
// cycles and offloads were re-recorded (818/832/833 cycles, end cycle
// 836 and 135 offloaded before).
func TestMultiGraphContextRecorded(t *testing.T) {
	p, err := snacknoc.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	ctx := p.NewContext()
	outs := buildThreeGraphs(t, ctx, 1)
	st, err := p.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := snacknoc.Stats{Cycles: 802, Instructions: 339, TokensCaptured: 83, Graphs: 3}
	if *st != want || p.Cycle() != 805 {
		t.Errorf("Execute: stats %+v, end cycle %d; want %+v, end cycle 805", *st, p.Cycle(), want)
	}
	wantOuts := [][]float64{
		{5.9375, 3.9375, 8.5, 9.125, 5.75, 5.0625, 4.5625, 11.5625, 5.375, 8.4375, 8.875, 8,
			5.75, 5.8125, 7.1875, 9.875, 3.3125, 6, 7.1875, 9.6875, 6.875, 5.4375, 9.25, 5.1875,
			5.5625, 10.5, 4.9375, 12.5, 5.5625, 7.875, 7.9375, 5.9375, 6.5, 7.125, 7.75, 7.0625},
		{23.75}, {3, 6, 19, 6},
	}
	if !reflect.DeepEqual(outs, wantOuts) {
		t.Errorf("Execute outputs %v, want %v", outs, wantOuts)
	}

	dp, err := snacknoc.NewDecentralizedPlatform()
	if err != nil {
		t.Fatal(err)
	}
	ctxs := []*snacknoc.Context{dp.NewContext(), dp.NewContext(), dp.NewContext()}
	var couts [][][]float64
	for i, c := range ctxs {
		couts = append(couts, buildThreeGraphs(t, c, i+2))
	}
	sts, err := dp.ExecuteConcurrent(ctxs...)
	if err != nil {
		t.Fatal(err)
	}
	var instrs int64
	for i, cycles := range []int64{852, 863, 868} {
		s := *sts[i]
		instrs += s.Instructions
		if s.Cycles != cycles || s.Graphs != 3 || s.TokensCaptured != 249 ||
			s.TokensOffloaded != 160 || s.CongestedCycles != 0 {
			t.Errorf("context %d: stats %+v, want %d cycles, 3 graphs, 249 captured, 160 offloaded, 0 congested",
				i, s, cycles)
		}
	}
	if instrs != 1017 || dp.Cycle() != 871 {
		t.Errorf("ExecuteConcurrent: %d instructions, end cycle %d; want 1017, end cycle 871", instrs, dp.Cycle())
	}
	wantCouts := [][][]float64{
		{{4.4375, 8.25, 4.1875, 10.625, 5.1875, 7.6875, 11.5, 8.5625, 6.875, 9.1875, 7.5625, 12.5,
			6.125, 6.75, 6.0625, 8, 5.9375, 3.9375, 9.4375, 9.875, 5, 9.375, 4.5625, 11.5625,
			6.875, 4.3125, 7, 4.4375, 5.75, 5.8125, 6.4375, 10.25, 2.1875, 8.625, 7.1875, 9.6875},
			{28.75}, {5, 6, 19, 12}},
		{{8.375, 3.5625, 10.5625, 8.375, 7.4375, 7.875, 3.4375, 8.75, 4.8125, 6.1875, 8.875, 6.3125,
			7.625, 6.1875, 8.6875, 9.875, 4.4375, 8.25, 10.1875, 8.5625, 9.5, 3.9375, 11.5, 8.5625,
			5, 6.9375, 4.9375, 9.5, 6.125, 6.75, 10.375, 5.5625, 8.5625, 6.375, 9.4375, 9.875},
			{33.75}, {7, 6, 19, 18}},
		{{2.9375, 10.5, 7.5625, 9.875, 8.1875, 6.5625, 8.5, 9.125, 5.75, 5.0625, 7, 8.9375,
			5.375, 8.4375, 8.875, 8, 8.375, 3.5625, 7.1875, 9.875, 3.3125, 6, 3.4375, 8.75,
			6.875, 5.4375, 9.25, 5.1875, 7.625, 6.1875, 4.9375, 12.5, 5.5625, 7.875, 10.1875, 8.5625},
			{38.75}, {9, 6, 19, 24}},
	}
	if !reflect.DeepEqual(couts, wantCouts) {
		t.Errorf("ExecuteConcurrent outputs %v, want %v", couts, wantCouts)
	}
}
