package checkpoint_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"snacknoc/internal/cache"
	"snacknoc/internal/checkpoint"
	"snacknoc/internal/core"
	"snacknoc/internal/cpu"
	"snacknoc/internal/experiments"
	"snacknoc/internal/noc"
	"snacknoc/internal/sim"
	"snacknoc/internal/stats"
	"snacknoc/internal/traffic"
)

const testSeed = 2020

// coRunSim is a small co-run platform: a CMP benchmark on the cores
// with a SnackNoC kernel in flight — every layer a checkpoint covers.
type coRunSim struct {
	eng  *sim.Engine
	net  *noc.Network
	sys  *cache.System
	work *cpu.Workload
	plat *core.Platform
	prog *core.Program   // the kernel in flight
	reg  *stats.Registry // names the RCUs' stall counters

	kernelRuns int
	lastResult *core.Result
}

// buildCoRun runs a short LULESH whose first phase also synchronizes
// every ~200 instructions, so that a few thousand cycles in — a cold
// core retires well under one instruction in ten cycles — some cores are
// blocked on misses and others are inside a synchronization stall.
func buildCoRun(t testing.TB) *coRunSim {
	prof := traffic.Scale(traffic.LULESH(), 0.05)
	prof.Phases[0].StallEvery, prof.Phases[0].StallCycles = 200, 600
	return buildCoRunProf(t, prof)
}

func buildCoRunProf(t testing.TB, prof *traffic.Profile) *coRunSim {
	t.Helper()
	return buildCoRunOn(t, noc.SnackPlatform(4, 4, true), prof, testSeed)
}

// buildCoRunOn builds the co-run on a given mesh configuration, with
// seed drawing both the cores' reference streams and the kernel's data.
func buildCoRunOn(t testing.TB, cfg *noc.Config, prof *traffic.Profile, seed uint64) *coRunSim {
	t.Helper()
	eng := sim.NewEngine()
	net, err := noc.New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.EnableSampling(2000)
	sys, err := cache.NewSystem(eng, net, cache.DefaultSystemConfig())
	if err != nil {
		t.Fatal(err)
	}
	work, err := cpu.NewWorkload(eng, sys, prof, seed)
	if err != nil {
		t.Fatal(err)
	}
	plat, err := core.AttachToSystem(eng, sys, core.DefaultPlatformConfig())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := experiments.CompileKernel(cpu.KernelReduction, experiments.DefaultKernelDims(), 16, seed)
	if err != nil {
		t.Fatal(err)
	}
	s := &coRunSim{eng: eng, net: net, sys: sys, work: work, plat: plat, prog: prog, reg: stats.NewRegistry()}
	plat.RegisterMetrics(s.reg)
	eng.ScheduleAfter(1, func() {
		if !plat.CPM.Submit(prog, eng.Cycle(), func(r *core.Result) {
			s.kernelRuns++
			s.lastResult = r
		}) {
			t.Error("CPM busy at submission")
		}
	})
	return s
}

func (s *coRunSim) target() checkpoint.Target {
	return checkpoint.Target{
		Eng: s.eng, Net: s.net, Sys: s.sys, Work: s.work, Plat: s.plat,
	}
}

// runToEnd drives the simulation until the benchmark and kernel are both
// finished and returns a digest of everything observable.
func (s *coRunSim) runToEnd(t testing.TB) string {
	t.Helper()
	done := func() bool { return s.work.Done() && !s.plat.CPM.Busy() }
	if _, ok := s.eng.RunUntil(done, 50_000_000); !ok {
		t.Fatal("simulation did not complete")
	}
	return s.digest()
}

func (s *coRunSim) digest() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle=%d kernelRuns=%d\n", s.eng.Cycle(), s.kernelRuns)
	if s.lastResult != nil {
		fmt.Fprintf(&b, "kernel: cycles=%d values=%v\n", s.lastResult.Cycles(), s.lastResult.Values)
	}
	for i, c := range s.work.Cores {
		fmt.Fprintf(&b, "core%d: finish=%d retired=%d stalls=%d\n",
			i, c.FinishCycle(), c.Retired(), c.StallCycles())
	}
	for i := range s.sys.L1s {
		fmt.Fprintf(&b, "l1-%d: h=%d m=%d l2: h=%d m=%d\n",
			i, s.sys.L1s[i].Hits(), s.sys.L1s[i].Misses(),
			s.sys.L2s[i].Hits(), s.sys.L2s[i].Misses())
	}
	vals := s.reg.Snapshot("").Values
	val := func(key string) float64 {
		v, ok := vals[key]
		if !ok {
			panic("digest: no metric " + key)
		}
		return v
	}
	executed := 0.0
	for i := range s.plat.RCUs {
		executed += val(fmt.Sprintf("rcu%d.executed.count", i))
	}
	fmt.Fprintf(&b, "rcu.executed=%.0f cpm: issued=%d offloaded=%d busy=%.0f\n",
		executed, s.plat.CPM.Issued(), s.plat.CPM.Offloaded(),
		val(fmt.Sprintf("cpm%d.busy.replies.count", s.plat.CPM.Node())))
	// The stall counts are paid when a parked RCU resumes or the engine
	// settles, so they replay only if a fork restores who is parked and
	// since when.
	for i := range s.plat.RCUs {
		fmt.Fprintf(&b, "rcu%d: stalls=%.0f\n", i, vals[fmt.Sprintf("rcu%d.stalls.count", i)])
	}
	for _, r := range s.net.Routers() {
		fmt.Fprintf(&b, "%v\n", s.net.Samples().Column(int(r.ID())))
	}
	return b.String()
}

// TestForkDeterminism pins the checkpoint contract: restoring one
// warmed snapshot any number of times — including after a partial run —
// replays the identical future, byte for byte, with a kernel mid-flight
// at the snapshot point.
func TestForkDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("fork determinism runs a co-run leg to completion three times")
	}
	// Mixed-stall leg: cores blocked and idling, RCUs parked and
	// runnable, and the CPM mid-stream at the snapshot point.
	t.Run("mixed-stalls", func(t *testing.T) {
		s := buildCoRun(t)
		s.eng.Run(4096)
		if !s.plat.CPM.Busy() {
			t.Fatal("kernel not in flight at the snapshot point; the test would not cover token state")
		}
		// Mid-stream: part of the program is still in memory, part is
		// fetched entries in the instruction buffer, and reads are in
		// flight as typed engine events — a fork must resume all three.
		if c := s.plat.CPM; c.Fetched() >= len(s.prog.Entries) || c.InstrBufLen() == 0 || c.Inflight() == 0 {
			t.Fatalf("CPM not mid-stream at the snapshot point: fetched %d of %d, %d buffered, %d reads in flight",
				c.Fetched(), len(s.prog.Entries), c.InstrBufLen(), c.Inflight())
		}
		// The cores' runnable and idle sets are rebuilt by a restore, and
		// a core mid-stall carries the start of the stall: the fork must
		// begin with cores in both kinds of stall.
		blocked, idle := 0, 0
		for _, c := range s.work.State().Cores {
			if c.Blocked() {
				blocked++
			}
			if c.Idle {
				idle++
			}
		}
		if blocked == 0 || idle == 0 {
			t.Fatalf("%d cores blocked and %d idling at the snapshot point, want at least one of each", blocked, idle)
		}
		// Likewise the RCUs' runnable sets, and a parked RCU is owed its
		// cycles from the snapshot cycle on: the fork must begin with
		// RCUs parked on an operand, parked idle and runnable.
		waiting, parked, runnable := 0, 0, 0
		for _, r := range s.plat.RCUs {
			switch {
			case !r.Parked():
				runnable++
			case r.Idle():
				parked++
			default:
				waiting++
			}
		}
		if waiting == 0 || parked == 0 || runnable == 0 {
			t.Fatalf("%d RCUs parked on an operand, %d parked idle and %d runnable at the snapshot point, want at least one of each",
				waiting, parked, runnable)
		}
		st := checkpoint.Take(s.target())
		if st.Cycle() != 4096 {
			t.Fatalf("snapshot cycle %d, want 4096", st.Cycle())
		}

		want := s.runToEnd(t)

		// Fork 1: plain restore.
		st.Restore()
		s.kernelRuns, s.lastResult = 0, nil
		if got := s.runToEnd(t); got != want {
			t.Error("first fork diverged from the original run")
		}

		// Fork 2: restore, run partway, restore again from the same
		// state, then complete — the snapshot must be unscathed by
		// earlier forks.
		st.Restore()
		s.eng.Run(3000)
		st.Restore()
		s.kernelRuns, s.lastResult = 0, nil
		if got := s.runToEnd(t); got != want {
			t.Error("fork after a partial run diverged from the original run")
		}
	})

	// Cache-heavy leg: a miss-dominated workload keeps the MSHR files,
	// the home banks' transaction slots (recalls, invalidations, pending
	// queues) and the pooled-message paths densely populated at the
	// snapshot point, so a fork replays token AND protocol state.
	t.Run("cache-heavy", func(t *testing.T) {
		s := buildCoRunProf(t, traffic.Scale(traffic.Graph500(), 0.2))
		s.eng.Run(4096)
		if !s.plat.CPM.Busy() {
			t.Fatal("kernel not in flight at the snapshot point")
		}
		outstanding := 0
		for _, l := range s.sys.L1s {
			outstanding += l.Outstanding()
		}
		if outstanding == 0 {
			t.Fatal("no misses in flight at the snapshot point; the leg would not cover MSHR state")
		}
		st := checkpoint.Take(s.target())
		want := s.runToEnd(t)
		for fork := 0; fork < 2; fork++ {
			st.Restore()
			s.kernelRuns, s.lastResult = 0, nil
			if got := s.runToEnd(t); got != want {
				t.Errorf("fork %d diverged from the original run", fork)
			}
		}
	})
}

// TestSnapshotSizeIndependentOfProgramLength takes a mid-kernel
// snapshot of two SGEMMs, eight times apart in length. A snapshot
// shares the immutable program and walks only live tokens, so both must
// fit the same bound (cloning the program cost ~100 bytes per entry:
// 11 MB for the larger one).
func TestSnapshotSizeIndependentOfProgramLength(t *testing.T) {
	takeBytes := func(dim int) (bytes uint64, entries int) {
		eng := sim.NewEngine()
		plat, err := core.NewStandalone(eng, 4, 4, true, core.DefaultPlatformConfig())
		if err != nil {
			t.Fatal(err)
		}
		dims := experiments.DefaultKernelDims()
		dims.SGEMMDim = dim
		prog, err := experiments.CompileKernel(cpu.KernelSGEMM, dims, 16, testSeed)
		if err != nil {
			t.Fatal(err)
		}
		if !plat.CPM.Submit(prog, eng.Cycle(), func(*core.Result) {}) {
			t.Fatal("CPM busy")
		}
		eng.Run(2000)
		if c := plat.CPM; c.Fetched() >= len(prog.Entries) || c.InstrBufLen() == 0 {
			t.Fatalf("SGEMM %d not mid-stream at cycle 2000: fetched %d of %d, %d buffered",
				dim, c.Fetched(), len(prog.Entries), c.InstrBufLen())
		}
		target := checkpoint.Target{Eng: eng, Net: plat.Net, Plat: plat}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st := checkpoint.Take(target)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(st)
		return after.TotalAlloc - before.TotalAlloc, len(prog.Entries)
	}
	const bound = 512 << 10
	for _, dim := range []int{24, 48} {
		bytes, entries := takeBytes(dim)
		t.Logf("SGEMM %d: %d entries, snapshot %d KiB", dim, entries, bytes>>10)
		if bytes > bound {
			t.Errorf("SGEMM %d (%d entries): Take allocated %d bytes, want <= %d whatever the program length",
				dim, entries, bytes, bound)
		}
	}
}

// TestStandaloneRoundTrip forks a zero-load kernel run (the fig13 leg2
// shape) and checks the completion cycle and result values replay. Its
// one leg keeps the name it had when the platform's mesh could also be
// cut into shards.
func TestStandaloneRoundTrip(t *testing.T) {
	t.Run("shards=1", standaloneRoundTrip)
}

func standaloneRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	plat, err := core.NewStandalone(eng, 4, 4, true, core.DefaultPlatformConfig())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := experiments.CompileKernel(cpu.KernelMAC, experiments.DefaultKernelDims(), 16, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	var res *core.Result
	if !plat.CPM.Submit(prog, eng.Cycle(), func(r *core.Result) { res = r }) {
		t.Fatal("CPM busy")
	}
	eng.Run(2000)
	if !plat.CPM.Busy() {
		t.Fatal("kernel finished before the snapshot point")
	}
	st := checkpoint.Take(checkpoint.Target{Eng: eng, Net: plat.Net, Plat: plat})

	finish := func() *core.Result {
		res = nil
		if _, ok := eng.RunUntil(func() bool { return res != nil }, 100_000_000); !ok {
			t.Fatal("kernel did not complete")
		}
		return res
	}
	first := finish()
	for fork := 0; fork < 2; fork++ {
		st.Restore()
		got := finish()
		if got.DoneCycle != first.DoneCycle {
			t.Errorf("fork %d: done cycle %d, want %d", fork, got.DoneCycle, first.DoneCycle)
		}
		if fmt.Sprint(got.Values) != fmt.Sprint(first.Values) {
			t.Errorf("fork %d: result values diverged", fork)
		}
	}
}
