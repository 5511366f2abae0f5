package cpu

import (
	"math"
	"runtime"
	"testing"

	"snacknoc/internal/cache"
	"snacknoc/internal/noc"
	"snacknoc/internal/sim"
	"snacknoc/internal/traffic"
)

// TestCMPBuildAllocatesPerLayer pins the CMP layers' value slabs:
// building the cache hierarchy and a workload allocates a fixed number
// of objects per layer, so an 8×8 mesh costs what a 4×4 one does, not
// several objects more per node. Each count is the fewest over three
// builds (an allocation elsewhere in the process only adds).
func TestCMPBuildAllocatesPerLayer(t *testing.T) {
	small, large := cmpBuildMallocs(t, 4, 4), cmpBuildMallocs(t, 8, 8)
	if small != large {
		t.Fatalf("NewSystem+NewWorkload allocated %d objects on a 4×4 mesh and %d on an 8×8 one, want the same",
			small, large)
	}
}

// cmpBuildMallocs returns the objects cache.NewSystem and NewWorkload
// allocate on a fresh w×h DAPPER network, the fewest over three builds.
func cmpBuildMallocs(t *testing.T, w, h int) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fewest := uint64(math.MaxUint64)
	for range 3 {
		eng := sim.NewEngine()
		net, err := noc.New(eng, noc.DAPPER(w, h))
		if err != nil {
			t.Fatal(err)
		}
		prof := traffic.CoMD()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sys, err := cache.NewSystem(eng, net, cache.DefaultSystemConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewWorkload(eng, sys, prof, perCoreSeed); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	return fewest
}
