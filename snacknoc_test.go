package snacknoc_test

import (
	"math"
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
