package compiler

import (
	"fmt"
	"testing"

	"snacknoc/internal/core"
	"snacknoc/internal/dataflow"
	"snacknoc/internal/fixed"
	"snacknoc/internal/noc"
	"snacknoc/internal/sim"
	"snacknoc/internal/traffic"
)

// randomGraph builds a random dataflow DAG of array operations with
// shapes small enough to execute quickly.
func randomGraph(rng *traffic.RNG) (*dataflow.Graph, error) {
	b := dataflow.NewBuilder()
	randInput := func(rows, cols int) *dataflow.Node {
		data := make([]fixed.Q, rows*cols)
		for i := range data {
			data[i] = fixed.FromFloat(rng.Float()*4 - 2)
		}
		n, err := b.Input(data, rows, cols)
		if err != nil {
			panic(err)
		}
		return n
	}
	dims := []int{1, 2, 3, 4}
	d := func() int { return dims[rng.Intn(len(dims))] }

	// Seed pool of inputs, then stack random ops.
	rows, cols := d(), d()
	pool := []*dataflow.Node{randInput(rows, cols)}
	nOps := 1 + rng.Intn(6)
	for i := 0; i < nOps; i++ {
		x := pool[rng.Intn(len(pool))]
		var n *dataflow.Node
		var err error
		switch rng.Intn(6) {
		case 0: // matmul with a fresh right operand
			y := randInput(x.Cols, d())
			n, err = b.MatMul(x, y)
		case 1:
			y := randInput(x.Rows, x.Cols)
			n, err = b.Add(x, y)
		case 2:
			y := randInput(x.Rows, x.Cols)
			n, err = b.Sub(x, y)
		case 3:
			n, err = b.Scale(b.Scalar(fixed.FromFloat(rng.Float()*2)), x)
		case 4:
			n, err = b.Reduce(x)
		case 5: // reuse an existing node twice via add-with-self
			n, err = b.Add(x, x)
		}
		if err != nil {
			return nil, err
		}
		pool = append(pool, n)
	}
	root := pool[len(pool)-1]
	if root.Kind == dataflow.KindInput {
		r, err := b.Reduce(root)
		if err != nil {
			return nil, err
		}
		root = r
	}
	return b.Build(root)
}

// TestRandomGraphsMatchReference is the compiler's end-to-end property
// test: any random graph, compiled and executed on the simulated
// platform, must produce results bit-identical to the functional
// evaluation of the same graph.
func TestRandomGraphsMatchReference(t *testing.T) {
	iterations := 60
	if testing.Short() {
		iterations = 10
	}
	for seed := 0; seed < iterations; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkRandomGraph(t, uint64(seed)+1000)
		})
	}
}

// FuzzCompile runs TestRandomGraphsMatchReference's property on the
// seeds the fuzzer picks: go test -fuzz FuzzCompile ./internal/compiler.
// Its corpus is in testdata/fuzz/FuzzCompile.
func FuzzCompile(f *testing.F) {
	f.Add(uint64(1000))
	f.Fuzz(checkRandomGraph)
}

// checkRandomGraph compiles the random graph seed picks onto 16 RCUs,
// runs it on a 4×4 platform (with the priority arbiter on even seeds),
// and requires results bit-equal to Graph.Eval and a quiesced platform
// afterwards.
func checkRandomGraph(t *testing.T, seed uint64) {
	g, err := randomGraph(traffic.NewRNG(seed))
	if err != nil {
		t.Fatalf("graph construction: %v", err)
	}
	prog, err := Compile(g, DefaultConfig(16))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if bound, _, blocks := entryBound(g.PostOrder(), 16); len(prog.Entries) > bound || len(prog.Blocks) > blocks {
		t.Fatalf("%d entries and %d sub-blocks emitted, entryBound said at most %d and %d",
			len(prog.Entries), len(prog.Blocks), bound, blocks)
	}
	eng := sim.NewEngine()
	plat, err := core.NewStandalone(eng, 4, 4, seed%2 == 0, core.DefaultPlatformConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := plat.Run(prog, 5_000_000)
	if err != nil {
		t.Fatalf("run (%d entries): %v", len(prog.Entries), err)
	}
	checkEqual(t, "platform", res.Values, g.Eval())
	eng.Run(2000)
	if !plat.Quiesced() {
		t.Fatal("platform left residual state after the kernel")
	}
}

// TestRandomGraphsOnMultiCPM runs random graphs through two decentralized
// CPMs concurrently, each compiled onto a disjoint RCU partition, and
// checks both results.
func TestRandomGraphsOnMultiCPM(t *testing.T) {
	left := DefaultConfig(16)
	left.RCUs = left.RCUs[:8]
	right := DefaultConfig(16)
	right.RCUs = right.RCUs[8:]

	for seed := 0; seed < 12; seed++ {
		rngA := traffic.NewRNG(uint64(seed) + 7000)
		rngB := traffic.NewRNG(uint64(seed) + 9000)
		ga, err := randomGraph(rngA)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := randomGraph(rngB)
		if err != nil {
			t.Fatal(err)
		}
		pa, err := Compile(ga, left)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := Compile(gb, right)
		if err != nil {
			t.Fatal(err)
		}

		eng := sim.NewEngine()
		plat, err := core.NewStandaloneMulti(eng, 4, 4, true, []noc.NodeID{0, 15})
		if err != nil {
			t.Fatal(err)
		}
		var ra, rb *core.Result
		if !plat.CPMs[0].Submit(pa, 0, func(r *core.Result) { ra = r }) {
			t.Fatal("cpm0 rejected")
		}
		if !plat.CPMs[1].Submit(pb, 0, func(r *core.Result) { rb = r }) {
			t.Fatal("cpm1 rejected")
		}
		eng.RunUntil(func() bool { return ra != nil && rb != nil }, 5_000_000)
		if ra == nil || rb == nil {
			t.Fatalf("seed %d: concurrent kernels incomplete (a=%v b=%v)", seed, ra != nil, rb != nil)
		}
		checkEqual(t, "A", ra.Values, ga.Eval())
		checkEqual(t, "B", rb.Values, gb.Eval())
	}
}

func checkEqual(t *testing.T, label string, got, want []fixed.Q) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s element %d: %v vs %v", label, i, got[i].Float(), want[i].Float())
		}
	}
}
