package core_test

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"

	"snacknoc/internal/core"
	"snacknoc/internal/cpu"
)

// reset rewinds the whole standalone simulation: engine, network and
// compute layer.
func (s *rcuSim) reset() {
	s.eng.Reset()
	s.plat.Net.Reset()
	s.plat.Reset()
}

// runAll runs prog to completion and returns its cycles, its values and
// every metric of the platform — network, RCUs, CPM, engine — and every
// attribution count.
func (s *rcuSim) runAll(t *testing.T, prog *core.Program) string {
	t.Helper()
	res, err := s.plat.Run(prog, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d start=%d end=%d values=%v\n", res.Cycles(), res.StartCycle, s.eng.Cycle(), res.Values)
	s.writeCounts(&b)
	snap := s.reg.Snapshot("")
	for _, k := range snap.Keys() {
		fmt.Fprintf(&b, "%s %v\n", k, snap.Values[k])
	}
	attrib := s.attribCounts()
	for _, k := range sortedKeys(attrib) {
		fmt.Fprintf(&b, "%s %v\n", k, attrib[k])
	}
	return b.String()
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestPlatformResetMatchesFreshBuild: one platform runs the Fig 9
// kernels in turn, reset after each, and every kernel runs to the
// cycles, values and per-component counters of a freshly built
// platform. With attribution attached, every count reads zero after
// each Reset. Then each kernel is reset 97, 211 and 389 cycles in, with
// instructions buffered at the RCUs and the CPM and tokens in flight,
// and run again from the reset to the same counts.
func TestPlatformResetMatchesFreshBuild(t *testing.T) {
	for _, m := range meshes {
		reused := newStandalone(t, m[0], m[1])
		want := map[cpu.KernelName]string{}
		for i, k := range cpu.Kernels() {
			prog := compile(t, k, m[0]*m[1])
			want[k] = newStandalone(t, m[0], m[1]).runAll(t, prog)
			if i > 0 {
				reused.reset()
				for key, v := range reused.attribCounts() {
					if v != 0 {
						t.Fatalf("%s %dx%d: attribution count %s reads %v after Reset", k, m[0], m[1], key, v)
					}
				}
			}
			if got := reused.runAll(t, prog); got != want[k] {
				t.Fatalf("%s %dx%d after %d kernels and resets: got\n%s\na fresh platform\n%s", k, m[0], m[1], i, got, want[k])
			}
		}
		if err := reused.plat.CheckDrained(); err != nil {
			t.Fatalf("%dx%d: %v", m[0], m[1], err)
		}
		for _, k := range cpu.Kernels() {
			prog := compile(t, k, m[0]*m[1])
			for _, cut := range []int64{97, 211, 389} {
				reused.plat.CPM.Submit(prog, reused.eng.Cycle(), func(*core.Result) {})
				reused.eng.Run(cut)
				if reused.plat.Quiesced() {
					t.Fatalf("%s %dx%d: want the kernel mid-flight at cycle %d", k, m[0], m[1], cut)
				}
				reused.reset()
				if _, _, _, err := reused.plat.CheckGroups(); err != nil {
					t.Fatalf("%s %dx%d reset at cycle %d: %v", k, m[0], m[1], cut, err)
				}
				if got := reused.runAll(t, prog); got != want[k] {
					t.Fatalf("%s %dx%d reset at cycle %d: got\n%s\na fresh platform\n%s", k, m[0], m[1], cut, got, want[k])
				}
			}
		}
	}
}

// TestPlatformResetAllocatesNothing: rewinding a platform that has run a
// kernel — engine, network and compute layer — allocates nothing. The
// count is the fewest of three tries, each a fresh platform that ran
// SGEMM, measured with runtime.ReadMemStats around the one Reset that
// follows the run (testing.AllocsPerRun would measure later resets of
// an already reset platform).
func TestPlatformResetAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fewest := uint64(math.MaxUint64)
	for range 3 {
		s := newStandalone(t, 4, 4)
		if _, err := s.plat.Run(compile(t, cpu.KernelSGEMM, 16), 1_000_000); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.reset()
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	if fewest != 0 {
		t.Fatalf("resetting a platform that ran a kernel allocated %d objects, want 0", fewest)
	}
}
