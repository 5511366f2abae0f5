package core_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"snacknoc/internal/attrib"
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

// The files under testdata/ were recorded at commit 8911c1a, when every
// RCU was an engine component of its own that counted one stall and one
// attribution reason per cycle. Stepping only the RCUs that hold work
// and paying a parked RCU's cycles when it resumes must reproduce every
// line.

// recordSeed is the kernel-data seed the goldens were recorded with.
const recordSeed = 2020

// sliceLen is the length of one Run slice of the sliced legs: a prime,
// so slice ends fall on no sampling or pipeline period.
const sliceLen = 997

// rcuSim is a platform with attribution and metrics attached, so every
// per-RCU count can be read from outside the package.
type rcuSim struct {
	eng  *sim.Engine
	plat *core.Platform
	rec  *attrib.Recorder
	reg  *stats.Registry
}

func observe(eng *sim.Engine, plat *core.Platform) *rcuSim {
	s := &rcuSim{eng: eng, plat: plat, rec: attrib.NewRecorder(), reg: stats.NewRegistry()}
	plat.SetAttrib(s.rec)
	plat.RegisterMetrics(s.reg)
	return s
}

func newStandalone(t testing.TB, w, h int) *rcuSim {
	t.Helper()
	eng := sim.NewEngine()
	plat, err := core.NewStandalone(eng, w, h, true, core.DefaultPlatformConfig())
	if err != nil {
		t.Fatal(err)
	}
	return observe(eng, plat)
}

func compile(t testing.TB, k cpu.KernelName, nRCU int) *core.Program {
	t.Helper()
	prog, err := experiments.CompileKernel(k, experiments.DSESmokeDims(), nRCU, recordSeed)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// attribCounts returns every attribution count under its metric key.
func (s *rcuSim) attribCounts() map[string]float64 {
	m := map[string]float64{}
	s.rec.FoldInto(m)
	return m
}

// rcuAttrib returns each RCU's exec, operand-wait, output-backpressure
// and idle counts, in node order.
func (s *rcuSim) rcuAttrib() [][4]int64 {
	m := s.attribCounts()
	out := make([][4]int64, len(s.plat.RCUs))
	for i, r := range s.plat.RCUs {
		for j, reason := range []attrib.Reason{attrib.RCUExec, attrib.RCUOperandWait, attrib.RCUOutputBackpressure, attrib.RCUIdle} {
			out[i][j] = int64(m[r.Name()+".attrib."+reason.String()])
		}
	}
	return out
}

// writeCounts appends one line per RCU: the five statistics and the four
// attribution reasons.
func (s *rcuSim) writeCounts(b *strings.Builder) {
	vals := s.reg.Snapshot("").Values
	at := s.rcuAttrib()
	for i, r := range s.plat.RCUs {
		fmt.Fprintf(b, "rcu%d executed=%d captured=%d emitted=%d stalls=%.0f maxbuf=%d exec=%d wait=%d backpressure=%d idle=%d\n",
			i, r.Executed(), r.Captured(), r.Emitted(), vals[fmt.Sprintf("rcu%d.stalls.count", i)], r.MaxBuffered(),
			at[i][0], at[i][1], at[i][2], at[i][3])
	}
}

// writeSlice appends one line per slice: every RCU's stall count and
// attribution reasons as the slice's Settle left them.
func (s *rcuSim) writeSlice(b *strings.Builder, n int) {
	vals := s.reg.Snapshot("").Values
	fmt.Fprintf(b, "slice%d cycle=%d", n, s.eng.Cycle())
	for i, at := range s.rcuAttrib() {
		fmt.Fprintf(b, " %.0f/%d/%d/%d/%d", vals[fmt.Sprintf("rcu%d.stalls.count", i)], at[0], at[1], at[2], at[3])
	}
	b.WriteByte('\n')
}

var meshes = [][2]int{{4, 4}, {8, 8}}

// oneShotKernels runs the four Table III kernels at DSESmokeDims on both
// meshes, each to completion in one Run.
func oneShotKernels(t testing.TB) string {
	var b strings.Builder
	for _, m := range meshes {
		for _, k := range cpu.Kernels() {
			s := newStandalone(t, m[0], m[1])
			res, err := s.plat.Run(compile(t, k, m[0]*m[1]), 1_000_000)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s %dx%d cycles=%d end=%d\n", k, m[0], m[1], res.Cycles(), s.eng.Cycle())
			s.writeCounts(&b)
		}
	}
	return b.String()
}

// slicedKernels runs the same kernels in sliceLen-cycle slices, each of
// which ends in the engine's Settle, and returns the per-slice lines and
// the final state in oneShotKernels' format.
func slicedKernels(t testing.TB) (slices, final string) {
	var sb, fb strings.Builder
	for _, m := range meshes {
		for _, k := range cpu.Kernels() {
			s := newStandalone(t, m[0], m[1])
			var res *core.Result
			if !s.plat.CPM.Submit(compile(t, k, m[0]*m[1]), s.eng.Cycle(), func(r *core.Result) { res = r }) {
				t.Fatal("CPM busy")
			}
			fmt.Fprintf(&sb, "%s %dx%d\n", k, m[0], m[1])
			for n := 0; res == nil; n++ {
				if n > 1_000 {
					t.Fatalf("%s on %dx%d did not complete", k, m[0], m[1])
				}
				s.eng.RunUntil(func() bool { return res != nil }, sliceLen)
				s.writeSlice(&sb, n)
			}
			fmt.Fprintf(&fb, "%s %dx%d cycles=%d end=%d\n", k, m[0], m[1], res.Cycles(), s.eng.Cycle())
			s.writeCounts(&fb)
		}
	}
	return sb.String(), fb.String()
}

// coRun runs CoMD at scale 0.02 on the cores with SPMV kernels
// resubmitted back to back on the NoC (the Fig 12 leg) and returns the
// RCU counts at the end.
func coRun(t testing.TB) string {
	eng := sim.NewEngine()
	net, err := noc.New(eng, noc.SnackPlatform(4, 4, true))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := cache.NewSystem(eng, net, cache.DefaultSystemConfig())
	if err != nil {
		t.Fatal(err)
	}
	work, err := cpu.NewWorkload(eng, sys, traffic.Scale(traffic.CoMD(), 0.02), recordSeed)
	if err != nil {
		t.Fatal(err)
	}
	plat, err := core.AttachToSystem(eng, sys, core.DefaultPlatformConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := observe(eng, plat)
	prog := compile(t, cpu.KernelSPMV, 16)
	runs := 0
	var resubmit func(*core.Result)
	resubmit = func(r *core.Result) {
		if r != nil {
			runs++
		}
		if work.Done() {
			return
		}
		eng.ScheduleAfter(1, func() {
			if !plat.CPM.Submit(prog, eng.Cycle(), resubmit) {
				t.Error("CPM busy at resubmission")
			}
		})
	}
	resubmit(nil)
	rt, ok := cpu.Run(eng, work, 1_000_000)
	if !ok {
		t.Fatal("co-run did not complete")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "CoMDxSPMV 4x4 runtime=%d kernels=%d end=%d\n", rt, runs, eng.Cycle())
	s.writeCounts(&b)
	return b.String()
}

// diffGolden compares got with the recorded file line by line.
func diffGolden(t *testing.T, file, got string) {
	t.Helper()
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d:\n got %s\nwant %s", file, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: measured %d lines, recorded %d", file, len(gl), len(wl))
}

// oneEngineLeg names the one leg of the recorded-count tests. It keeps
// the name it had when the platform's mesh could also be cut into
// shards, so the leg's history in test reports stays unbroken.
const oneEngineLeg = "shards=1"

// TestRCUCountsMatchRecorded holds every RCU's executed, captured,
// emitted, stall and buffer-high-water counts and its four attribution
// reasons to the recorded ones, for the four kernels on 4x4 and 8x8 and
// for one CoMD x SPMV co-run.
func TestRCUCountsMatchRecorded(t *testing.T) {
	t.Run(oneEngineLeg, func(t *testing.T) {
		diffGolden(t, "testdata/rcu_kernels.golden", oneShotKernels(t))
		diffGolden(t, "testdata/rcu_corun.golden", coRun(t))
	})
}

// TestRCUCountsMatchRecordedInSlices reads the deferred counts in the
// middle of a kernel: every slice's Settle must leave each RCU's stall
// count and attribution reasons where counting them cycle by cycle did,
// and the kernel must finish in the state of the one-shot run.
func TestRCUCountsMatchRecordedInSlices(t *testing.T) {
	t.Run(oneEngineLeg, func(t *testing.T) {
		slices, final := slicedKernels(t)
		diffGolden(t, "testdata/rcu_slices.golden", slices)
		diffGolden(t, "testdata/rcu_kernels.golden", final)
	})
}

// TestRunnableSetsTrackWork steps kernels one cycle at a time and checks
// after every cycle that the group's runnable set agrees with the RCUs (Platform.CheckGroups) — on a one-word set
// (4x4) and a two-word one (16x8) — that the attribution reasons of
// every component sum to the cycles run after a Settle in the middle of
// the kernel, and that a checkpoint restored there rebuilds the sets and
// replays the same counts.
func TestRunnableSetsTrackWork(t *testing.T) {
	legs := []struct {
		w, h int
		k    cpu.KernelName
	}{{4, 4, cpu.KernelReduction}, {4, 4, cpu.KernelSPMV}, {16, 8, cpu.KernelReduction}}
	for _, leg := range legs {
		t.Run(fmt.Sprintf("%s@%dx%d", leg.k, leg.w, leg.h), func(t *testing.T) {
			prog := compile(t, leg.k, leg.w*leg.h)
			straight := newStandalone(t, leg.w, leg.h)
			res, err := straight.plat.Run(prog, 1_000_000)
			if err != nil {
				t.Fatal(err)
			}
			mid := res.Cycles() / 2

			s := newStandalone(t, leg.w, leg.h)
			done := false
			if !s.plat.CPM.Submit(prog, s.eng.Cycle(), func(*core.Result) { done = true }) {
				t.Fatal("CPM busy")
			}
			target := checkpoint.Target{Eng: s.eng, Net: s.plat.Net, Plat: s.plat}
			var st *checkpoint.State
			restored := false
			var sawWaiting, sawIdle, sawRunnable int
			for !done {
				s.eng.Step()
				cycle := s.eng.Cycle()
				waiting, idle, runnable, err := s.plat.CheckGroups()
				if err != nil {
					t.Fatalf("after cycle %d: %v", cycle-1, err)
				}
				sawWaiting += waiting
				sawIdle += idle
				sawRunnable += runnable
				switch {
				case cycle == mid && st == nil:
					s.eng.Settle()
					if err := attrib.CheckTotals(s.attribCounts(), cycle); err != nil {
						t.Fatalf("after a Settle at cycle %d: %v", cycle, err)
					}
					st = checkpoint.Take(target)
				case cycle == mid+50 && !restored:
					st.Restore()
					restored = true
					if _, _, _, err := s.plat.CheckGroups(); err != nil {
						t.Fatalf("after restoring cycle %d: %v", mid, err)
					}
				}
				if cycle > 1_000_000 {
					t.Fatal("kernel did not complete")
				}
			}
			if sawWaiting == 0 || sawIdle == 0 || sawRunnable == 0 {
				t.Fatalf("RCU-cycles parked on an operand %d, parked idle %d, runnable %d: want all three",
					sawWaiting, sawIdle, sawRunnable)
			}
			s.eng.Settle()
			var want, got strings.Builder
			straight.writeCounts(&want)
			s.writeCounts(&got)
			if got.String() != want.String() {
				t.Fatalf("stepped, settled and restored run ends with different counts:\n%s\nwant\n%s", got.String(), want.String())
			}
		})
	}
}

// TestStandaloneKernelsInjectNothingAtNIs pins what lets the DSE share a
// kernel leg across cells that differ only in channel width: on a
// standalone platform the CPM and the RCUs send one-flit packets through
// their compute ports, so no packet goes through an NI, where its flit
// count would depend on the width.
func TestStandaloneKernelsInjectNothingAtNIs(t *testing.T) {
	for _, m := range [][2]int{{4, 4}, {8, 4}} {
		for _, k := range cpu.Kernels() {
			plat, err := core.NewStandalone(sim.NewEngine(), m[0], m[1], true, core.DefaultPlatformConfig())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := plat.Run(compile(t, k, m[0]*m[1]), 1_000_000); err != nil {
				t.Fatal(err)
			}
			if n := plat.Net.TotalInjected(); n != 0 {
				t.Errorf("%s on %dx%d: %d packets injected at NIs, want 0", k, m[0], m[1], n)
			}
		}
	}
}
