package checkpoint_test

import (
	"fmt"
	"strings"
	"testing"

	"snacknoc/internal/checkpoint"
	"snacknoc/internal/noc"
	"snacknoc/internal/traffic"
)

// FuzzFork checks the fork property on co-runs the fuzzer picks: go test
// -fuzz FuzzFork ./internal/checkpoint. Its corpus is in
// testdata/fuzz/FuzzFork.
func FuzzFork(f *testing.F) {
	f.Add(uint16(4096), uint16(1500), uint8(5), uint8(2), uint64(testSeed), true, uint8(3), uint8(2))
	f.Fuzz(checkFork)
}

// checkFork builds a co-run on a 4×4 mesh (buffer depth 1–8, 2–4 VCs
// per vnet, either arbiter), runs it to the snapshot cycle and takes a
// checkpoint. Running K cycles from there gives digest A; a restore and
// K cycles give B; a restore, K/2 cycles, another restore and K cycles
// give C. A, B and C must be equal. The runs stop at the horizon rather
// than at completion, so a run that stalls still replays.
func checkFork(t *testing.T, snap, horizon uint16, prof, scale uint8, seed uint64, priority bool, buf, vcs uint8) {
	cfg := noc.SnackPlatformCustom(4, 4, priority, 2+int(vcs%3), 1+int(buf%8), 32)
	all := traffic.All()
	p := traffic.Scale(all[int(prof)%len(all)], 0.02*float64(1+scale%10))
	s := buildCoRunOn(t, cfg, p, seed)
	s.eng.Run(1 + int64(snap)%8000)
	st := checkpoint.Take(s.target())
	runs, last := s.kernelRuns, s.lastResult
	k := 2 + int64(horizon)%4000
	leg := func(partial int64) string {
		if partial > 0 {
			st.Restore()
			s.eng.Run(partial)
		}
		st.Restore()
		s.kernelRuns, s.lastResult = runs, last
		s.eng.Run(k)
		return s.forkDigest()
	}
	s.eng.Run(k)
	a := s.forkDigest()
	if b := leg(0); b != a {
		t.Fatalf("a restore diverged from the run it forked:\n%s", firstDiff(a, b))
	}
	if c := leg(k / 2); c != a {
		t.Fatalf("a restore after a partial fork diverged:\n%s", firstDiff(a, c))
	}
}

// forkDigest is digest plus every value in the registry.
func (s *coRunSim) forkDigest() string {
	var b strings.Builder
	b.WriteString(s.digest())
	snap := s.reg.Snapshot("")
	for _, k := range snap.Keys() {
		fmt.Fprintf(&b, "%s=%v\n", k, snap.Values[k])
	}
	return b.String()
}

// firstDiff returns the first line where two digests differ.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range min(len(al), len(bl)) {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  run:  %s\n  fork: %s", i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths %d and %d lines", len(al), len(bl))
}
