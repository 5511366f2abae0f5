package snacknoc_test

import (
	"math"
	"strings"
	"testing"

	"snacknoc"
)

func TestDecentralizedConcurrentContexts(t *testing.T) {
	p, err := snacknoc.NewDecentralizedPlatform()
	if err != nil {
		t.Fatal(err)
	}
	if p.CPMs() != 4 {
		t.Fatalf("CPMs = %d, want 4 (mesh corners)", p.CPMs())
	}

	n := 60
	ctxs := make([]*snacknoc.Context, 4)
	outs := make([][]float64, 4)
	wants := make([]float64, 4)
	for i := range ctxs {
		ctxs[i] = p.NewContext()
		vals := make([]float64, n)
		for j := range vals {
			vals[j] = float64((i+1)*(j%5)) * 0.5
			wants[i] += vals[j]
		}
		x, err := ctxs[i].Input(vals, 1, n)
		if err != nil {
			t.Fatal(err)
		}
		r, err := ctxs[i].Reduce(x)
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = make([]float64, 1)
		if err := ctxs[i].GetValue(r, outs[i]); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := p.ExecuteConcurrent(ctxs...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ctxs {
		if math.Abs(outs[i][0]-wants[i]) > 0.01 {
			t.Errorf("context %d = %v, want %v", i, outs[i][0], wants[i])
		}
		if stats[i].Cycles <= 0 || stats[i].Graphs != 1 {
			t.Errorf("context %d stats %+v", i, stats[i])
		}
	}
}

func TestDecentralizedBeatsSerialLatency(t *testing.T) {
	// Four identical reductions: executing them concurrently on four
	// CPMs should take well under four times one kernel's latency.
	build := func(ctx *snacknoc.Context) []float64 {
		n := 2000
		vals := make([]float64, n)
		for j := range vals {
			vals[j] = 1
		}
		x, _ := ctx.Input(vals, 1, n)
		r, _ := ctx.Reduce(x)
		out := make([]float64, 1)
		ctx.GetValue(r, out)
		return out
	}

	single, _ := snacknoc.NewPlatform()
	sctx := single.NewContext()
	sout := build(sctx)
	sStats, err := single.Execute(sctx)
	if err != nil {
		t.Fatal(err)
	}
	if sout[0] != 2000 {
		t.Fatalf("single result %v", sout[0])
	}

	dp, _ := snacknoc.NewDecentralizedPlatform()
	ctxs := make([]*snacknoc.Context, 4)
	outs := make([][]float64, 4)
	for i := range ctxs {
		ctxs[i] = dp.NewContext()
		outs[i] = build(ctxs[i])
	}
	start := dp.Cycle()
	if _, err := dp.ExecuteConcurrent(ctxs...); err != nil {
		t.Fatal(err)
	}
	wall := dp.Cycle() - start
	for i := range outs {
		if outs[i][0] != 2000 {
			t.Fatalf("concurrent result %d = %v", i, outs[i][0])
		}
	}
	t.Logf("one kernel: %d cycles; four concurrent kernels: %d cycles wall", sStats.Cycles, wall)
	if wall > sStats.Cycles*3 {
		t.Errorf("4 concurrent kernels took %d cycles vs %d for one — no issue parallelism", wall, sStats.Cycles)
	}
}

func TestDecentralizedRejectsTooManyContexts(t *testing.T) {
	p, _ := snacknoc.NewDecentralizedPlatform()
	ctxs := make([]*snacknoc.Context, 5)
	for i := range ctxs {
		ctxs[i] = p.NewContext()
		x, _ := ctxs[i].Input([]float64{1, 2}, 1, 2)
		r, _ := ctxs[i].Reduce(x)
		ctxs[i].GetValue(r, make([]float64, 1))
	}
	if _, err := p.ExecuteConcurrent(ctxs...); err == nil {
		t.Fatal("5 contexts on 4 CPMs accepted")
	}
}

// TestExecuteConcurrentFailureKeepsRequests: a call rejected before it
// submits anything — a context given twice, or a later context that
// does not compile — leaves every context's requests in place, and a
// retry runs them.
func TestExecuteConcurrentFailureKeepsRequests(t *testing.T) {
	p, err := snacknoc.NewDecentralizedPlatform()
	if err != nil {
		t.Fatal(err)
	}
	reduce := func(vals []float64) (*snacknoc.Context, []float64) {
		c := p.NewContext()
		x, err := c.Input(vals, 1, len(vals))
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.Reduce(x)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, 1)
		if err := c.GetValue(r, out); err != nil {
			t.Fatal(err)
		}
		return c, out
	}
	c, out := reduce([]float64{1, 2, 3, 4})
	if _, err := p.ExecuteConcurrent(c, c); err == nil || !strings.Contains(err.Error(), "repeats") {
		t.Fatalf("a repeated context: err = %v, want a repeat error", err)
	}
	// A 65536x1 by 1x32768 outer product needs 2^31 entries: past a
	// ProgEntry's index, so it fails to compile.
	big := p.NewContext()
	x, _ := big.Input(make([]float64, 1<<16), 1<<16, 1)
	y, _ := big.Input(make([]float64, 1<<15), 1, 1<<15)
	xy, err := big.MatMul(x, y)
	if err != nil {
		t.Fatal(err)
	}
	r, err := big.Reduce(xy)
	if err != nil {
		t.Fatal(err)
	}
	if err := big.GetValue(r, make([]float64, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ExecuteConcurrent(c, big); err == nil || !strings.Contains(err.Error(), "ProgEntry") {
		t.Fatalf("a context past the entry index: err = %v, want a compile error", err)
	}
	if _, err := p.ExecuteConcurrent(c); err != nil {
		t.Fatalf("retry after the failed calls: %v", err)
	}
	if out[0] != 10 {
		t.Fatalf("retry computed %v, want 10", out[0])
	}
	if _, err := p.ExecuteConcurrent(c); err == nil {
		t.Fatal("a context ran twice: its requests were not consumed by the successful call")
	}
}

// TestExecuteConcurrentRejectsAnotherPlatformsContext: a context runs
// only on the platform that made it, through ExecuteConcurrent as
// through Execute, and the refusal leaves its requests in place.
func TestExecuteConcurrentRejectsAnotherPlatformsContext(t *testing.T) {
	p, err := snacknoc.NewDecentralizedPlatform()
	if err != nil {
		t.Fatal(err)
	}
	other, err := snacknoc.NewDecentralizedPlatform()
	if err != nil {
		t.Fatal(err)
	}
	reduce := func(c *snacknoc.Context) []float64 {
		x, _ := c.Input([]float64{1, 2, 3}, 1, 3)
		r, _ := c.Reduce(x)
		out := make([]float64, 1)
		if err := c.GetValue(r, out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	mine, foreign := p.NewContext(), other.NewContext()
	reduce(mine)
	out := reduce(foreign)
	if _, err := p.ExecuteConcurrent(mine, foreign); err == nil || !strings.Contains(err.Error(), "different platform") {
		t.Fatalf("another platform's context: err = %v, want a different-platform error", err)
	}
	if p.Cycle() != 0 {
		t.Fatalf("the refused call ran %d cycles", p.Cycle())
	}
	if _, err := other.ExecuteConcurrent(foreign); err != nil || out[0] != 6 {
		t.Fatalf("on its own platform: err = %v, result %v, want 6", err, out[0])
	}
}
