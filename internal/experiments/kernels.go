// Package experiments contains one runner per table and figure of the
// paper's evaluation (§V), plus the workload builders they share. Each
// runner returns a typed result that cmd/snackbench renders in the same
// rows/series the paper reports, and that bench_test.go regenerates under
// `go test -bench`.
package experiments

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"snacknoc/internal/compiler"
	"snacknoc/internal/core"
	"snacknoc/internal/cpu"
	"snacknoc/internal/dataflow"
	"snacknoc/internal/fixed"
	"snacknoc/internal/traffic"
)

// KernelDims sizes the four Table III kernels at the reproduction scale.
// The paper's full inputs (4K×4K SGEMM, 640M reduction…) are scaled down
// so kernels complete in seconds of simulation; EXPERIMENTS.md records
// both sizes.
type KernelDims struct {
	SGEMMDim    int     // matrix dimension (paper: 4096)
	ReduceLen   int     // vector length (paper: 640M)
	MACLen      int     // vector length (paper: 640K)
	SPMVDim     int     // matrix dimension (paper: 4096)
	SPMVDensity float64 // stored fraction (paper: 30% at "70% sparsity")
}

// DefaultKernelDims returns the reproduction scale.
func DefaultKernelDims() KernelDims {
	return KernelDims{
		SGEMMDim:    48,
		ReduceLen:   20000,
		MACLen:      20000,
		SPMVDim:     96,
		SPMVDensity: 0.30,
	}
}

// PaperKernelDims returns the paper's full Table III input sizes, used
// by the analytic CPU model for the core-count scaling bars (the
// simulated SnackNoC side runs at DefaultKernelDims; see EXPERIMENTS.md).
func PaperKernelDims() KernelDims {
	return KernelDims{
		SGEMMDim:    4096,
		ReduceLen:   640_000_000,
		MACLen:      640_000,
		SPMVDim:     4096,
		SPMVDensity: 0.30, // "70% sparsity"
	}
}

// KernelDimsByName returns the sizes a command's -dims flag names:
// default, paper or smoke.
func KernelDimsByName(name string) (KernelDims, error) {
	switch name {
	case "default":
		return DefaultKernelDims(), nil
	case "paper":
		return PaperKernelDims(), nil
	case "smoke":
		return DSESmokeDims(), nil
	}
	return KernelDims{}, fmt.Errorf("unknown -dims %q (want default, paper, or smoke)", name)
}

// ParseMesh parses a mesh shape written WxH (or Wxh), each side at least
// 2; anything else, trailing input included, is an error.
func ParseMesh(s string) (w, h int, err error) {
	ws, hs, _ := strings.Cut(strings.ToLower(s), "x")
	w, werr := strconv.Atoi(ws)
	h, herr := strconv.Atoi(hs)
	if werr != nil || herr != nil || w < 2 || h < 2 {
		return 0, 0, fmt.Errorf("bad mesh %q (want e.g. 4x4)", s)
	}
	return w, h, nil
}

// KernelByName resolves a command's kernel name, in any letter case, to
// one of the four Table III kernels.
func KernelByName(name string) (cpu.KernelName, error) {
	for _, k := range cpu.Kernels() {
		if strings.EqualFold(string(k), name) {
			return k, nil
		}
	}
	return "", fmt.Errorf("unknown kernel %q (want one of %v)", name, cpu.Kernels())
}

// ParseGrid decodes a -grid spec such as "buf=1,2:chan=16,32:vc=2:rcu=16"
// into DSE axes. An axis left out keeps its DefaultDSEAxes values; an
// axis named twice, or a value repeated within an axis, is an error.
func ParseGrid(s string) (DSEAxes, error) {
	axes := DefaultDSEAxes()
	byName := map[string]*[]int{
		"buf": &axes.BufDepths, "chan": &axes.ChanWidths,
		"vc": &axes.VCCounts, "rcu": &axes.RCUCounts,
	}
	seen := make(map[string]bool)
	for _, part := range strings.Split(s, ":") {
		name, list, ok := strings.Cut(part, "=")
		if !ok {
			return axes, fmt.Errorf("bad -grid segment %q (want axis=v1,v2,...)", part)
		}
		var vals []int
		for _, f := range strings.Split(list, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n <= 0 {
				return axes, fmt.Errorf("bad -grid value %q in %q", f, part)
			}
			if slices.Contains(vals, n) {
				return axes, fmt.Errorf("-grid value %d repeated in %q", n, part)
			}
			vals = append(vals, n)
		}
		axis := byName[name]
		switch {
		case axis == nil:
			return axes, fmt.Errorf("unknown -grid axis %q (want buf, chan, vc, rcu)", name)
		case seen[name]:
			return axes, fmt.Errorf("-grid axis %q given twice", name)
		}
		seen[name] = true
		*axis = vals
	}
	return axes, nil
}

// CPUDims exposes the CPU-model sizing conversion for a kernel.
func (d KernelDims) CPUDims(k cpu.KernelName) cpu.KernelDims { return d.cpuDims(k) }

// cpuDims converts to the CPU-model sizing for the same kernel instance.
func (d KernelDims) cpuDims(k cpu.KernelName) cpu.KernelDims {
	switch k {
	case cpu.KernelSGEMM:
		return cpu.KernelDims{N: d.SGEMMDim}
	case cpu.KernelReduction:
		return cpu.KernelDims{N: d.ReduceLen}
	case cpu.KernelMAC:
		return cpu.KernelDims{N: d.MACLen}
	case cpu.KernelSPMV:
		nnz := int(float64(d.SPMVDim*d.SPMVDim) * d.SPMVDensity)
		return cpu.KernelDims{N: d.SPMVDim, NNZ: nnz}
	}
	panic("experiments: unknown kernel " + string(k))
}

// BuildKernelGraph constructs the dataflow graph for one Table III
// kernel with deterministic pseudo-random data.
func BuildKernelGraph(k cpu.KernelName, d KernelDims, seed uint64) (*dataflow.Graph, error) {
	rng := traffic.NewRNG(seed)
	val := func() fixed.Q { return fixed.FromFloat(rng.Float()*2 - 1) }
	vecOf := func(n int) []fixed.Q {
		out := make([]fixed.Q, n)
		for i := range out {
			out[i] = val()
		}
		return out
	}
	b := dataflow.NewBuilder()
	switch k {
	case cpu.KernelSGEMM:
		n := d.SGEMMDim
		a, err := b.Input(vecOf(n*n), n, n)
		if err != nil {
			return nil, err
		}
		x, err := b.Input(vecOf(n*n), n, n)
		if err != nil {
			return nil, err
		}
		ab, err := b.MatMul(a, x)
		if err != nil {
			return nil, err
		}
		return b.Build(ab)
	case cpu.KernelReduction:
		v, err := b.Input(vecOf(d.ReduceLen), 1, d.ReduceLen)
		if err != nil {
			return nil, err
		}
		r, err := b.Reduce(v)
		if err != nil {
			return nil, err
		}
		return b.Build(r)
	case cpu.KernelMAC:
		x, err := b.Input(vecOf(d.MACLen), 1, d.MACLen)
		if err != nil {
			return nil, err
		}
		y, err := b.Input(vecOf(d.MACLen), 1, d.MACLen)
		if err != nil {
			return nil, err
		}
		dot, err := b.Dot(x, y)
		if err != nil {
			return nil, err
		}
		return b.Build(dot)
	case cpu.KernelSPMV:
		n := d.SPMVDim
		sp := &dataflow.Sparse{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float() < d.SPMVDensity {
					sp.ColIdx = append(sp.ColIdx, j)
					sp.Val = append(sp.Val, val())
				}
			}
			sp.RowPtr[i+1] = len(sp.Val)
		}
		x, err := b.Input(vecOf(n), n, 1)
		if err != nil {
			return nil, err
		}
		y, err := b.SpMV(sp, x)
		if err != nil {
			return nil, err
		}
		return b.Build(y)
	}
	return nil, fmt.Errorf("experiments: unknown kernel %q", k)
}

// CompileKernel builds and compiles one kernel for an nRCU-node
// platform, memoized on (kernel, dims, nRCU, seed) — see
// compilecache.go. The returned program is shared between callers and
// immutable; every CPM that runs it streams the same instance.
func CompileKernel(k cpu.KernelName, d KernelDims, nRCU int, seed uint64) (*core.Program, error) {
	key := compileKey{kernel: k, dims: d, nRCU: nRCU, seed: seed}
	if v, ok := compileCache.Load(key); ok {
		compileHits.Add(1)
		return v.(*core.Program), nil
	}
	compileMisses.Add(1)
	g, err := BuildKernelGraph(k, d, seed)
	if err != nil {
		return nil, err
	}
	prog, err := compiler.Compile(g, compiler.DefaultConfig(nRCU))
	if err != nil {
		return nil, err
	}
	prog.Name = string(k)
	// Concurrent cells may race to compile the same key; converge on a
	// single stored program so every caller shares one instance.
	v, _ := compileCache.LoadOrStore(key, prog)
	return v.(*core.Program), nil
}
