package cpu

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"snacknoc/internal/cache"
	"snacknoc/internal/noc"
	"snacknoc/internal/sim"
	"snacknoc/internal/traffic"
)

// perCoreSeed is the workload seed testdata/percore.golden was recorded
// with.
const perCoreSeed = 2020

func buildWorkload(t *testing.T, w, h int, prof *traffic.Profile) (*sim.Engine, *Workload) {
	t.Helper()
	eng := sim.NewEngine()
	net, err := noc.New(eng, noc.DAPPER(w, h))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := cache.NewSystem(eng, net, cache.DefaultSystemConfig())
	if err != nil {
		t.Fatal(err)
	}
	work, err := NewWorkload(eng, sys, prof, perCoreSeed)
	if err != nil {
		t.Fatal(err)
	}
	return eng, work
}

// perCoreProfiles are the recorded legs: Graph500 and CoMD block on
// misses only at this size; Cholesky also idles across synchronization
// stalls (one every ~4000 instructions).
func perCoreProfiles() []*traffic.Profile {
	return []*traffic.Profile{
		traffic.Scale(traffic.Graph500(), 0.02),
		traffic.Scale(traffic.CoMD(), 0.02),
		traffic.Scale(traffic.Cholesky(), 0.05),
	}
}

// TestPerCoreCountsMatchRecorded holds every core's retired count, stall
// cycles and finish cycle to testdata/percore.golden, which was recorded
// when each core was an engine component of its own that counted one
// stall per blocked or idle cycle (commit 504ce1e). Stepping the cores
// as a group and adding stall spans at the transitions must reproduce it
// exactly, on a single-word runnable set (4x4) and a multi-word one
// (16x8, 128 cores). On a mismatch the test logs what it measured in the
// file's format.
func TestPerCoreCountsMatchRecorded(t *testing.T) {
	var got strings.Builder
	for _, mesh := range [][2]int{{4, 4}, {16, 8}} {
		if testing.Short() && mesh[0] > 4 {
			continue
		}
		for _, prof := range perCoreProfiles() {
			eng, work := buildWorkload(t, mesh[0], mesh[1], prof)
			if _, ok := Run(eng, work, 50_000_000); !ok {
				t.Fatalf("%s on %dx%d did not complete", prof.Name, mesh[0], mesh[1])
			}
			fmt.Fprintf(&got, "%s %dx%d\n", prof.Name, mesh[0], mesh[1])
			for i, c := range work.Cores {
				fmt.Fprintf(&got, "core%d retired=%d stalls=%d finish=%d\n",
					i, c.Retired(), c.StallCycles(), c.FinishCycle())
			}
		}
	}
	want, err := os.ReadFile("testdata/percore.golden")
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		// The 4x4 legs come first in the file.
		want = want[:min(len(want), got.Len())]
	}
	if got.String() != string(want) {
		t.Errorf("per-core counts differ from testdata/percore.golden; measured:\n%s", got.String())
	}
}

// TestStallCyclesMidRun reads every core's StallCycles after every cycle
// and holds it to a count made one cycle at a time from outside: a core
// that has not finished, retired nothing this cycle and did not start a
// synchronization stall this cycle was stalled in it.
func TestStallCyclesMidRun(t *testing.T) {
	eng, work := buildWorkload(t, 4, 4, traffic.Scale(traffic.Cholesky(), 0.05))
	n := len(work.Cores)
	stalled := make([]int64, n)
	retired := make([]int64, n)
	idleUntil := make([]int64, n)
	sawBlocked, sawIdle := false, false
	for cycle := 0; !work.Done(); cycle++ {
		if cycle > 5_000_000 {
			t.Fatal("workload did not complete")
		}
		var wasFinished [16]bool
		for i, c := range work.Cores {
			wasFinished[i] = c.Finished()
		}
		eng.Step()
		for i, c := range work.Cores {
			st := c.State()
			if !wasFinished[i] && c.Retired() == retired[i] && st.idleUntil == idleUntil[i] {
				stalled[i]++
			}
			retired[i], idleUntil[i] = c.Retired(), st.idleUntil
			sawBlocked = sawBlocked || st.blocked
			sawIdle = sawIdle || st.Idle
			if c.StallCycles() != stalled[i] {
				t.Fatalf("after cycle %d: %s reports %d stall cycles, counted %d",
					cycle, c.Name(), c.StallCycles(), stalled[i])
			}
		}
	}
	if !sawBlocked || !sawIdle {
		t.Fatalf("run never had a core blocked (%v) and a core idling (%v)", sawBlocked, sawIdle)
	}
}
