package cli

import (
	"flag"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"

	"snacknoc/internal/experiments"
)

// TestFlagRules pins every rule Start enforces before a run begins: each
// rejected row names the rule's message, and each accepted row is the
// nearest combination the rule lets through.
func TestFlagRules(t *testing.T) {
	all := Sweep | Scale | Priority | Observe | Profile
	for _, tc := range []struct {
		groups Group
		args   []string
		want   string // "": accepted
	}{
		{all, nil, ""},
		{all, []string{"-scale", "0.5"}, ""},
		{all, []string{"-scale", "0"}, "-scale must be positive"},
		{all, []string{"-scale", "-1"}, "-scale must be positive"},
		{all, []string{"-scale", "NaN"}, "-scale must be positive"},
		{Shards | Priority, nil, ""}, // no -scale registered: nothing to check
		{all, []string{"-trace", "t.json", "-trace-last", "5"}, ""},
		{all, []string{"-trace", "t.json", "-trace-last", "-1"}, "-trace-last requires a non-negative count"},
		{all, []string{"-trace-last", "5"}, "-trace-last requires -trace"},
		{all, []string{"-attrib", "-attrib-interval", "100"}, ""},
		{all, []string{"-attrib", "-attrib-interval", "-1"}, "-attrib-interval requires a non-negative cycle count"},
		{all, []string{"-attrib-interval", "100"}, "-attrib-interval requires -attrib"},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		c := register(fs, tc.groups)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		err := c.check()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: rejected: %v", tc.args, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%v: got %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}

// TestFatalfWritesProfile pins the failed-run contract: Fatalf stops the
// profiles Start began before it exits, so a CPU profile requested on a
// run that fails is written, not left empty.
func TestFatalfWritesProfile(t *testing.T) {
	code := -1
	exit = func(c int) { code = c }
	t.Cleanup(func() {
		pprof.StopCPUProfile()
		exit, stopProfiles = os.Exit, func() {}
		experiments.DisableObservability()
	})
	path := filepath.Join(t.TempDir(), "cpu.prof")
	c := &Command{Scale: 1, cpuProfile: path}
	c.start()
	if code != -1 {
		t.Fatalf("start exited %d", code)
	}
	Fatalf("deliberate failure")
	if code != 1 {
		t.Fatalf("Fatalf exited %d, want 1", code)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("CPU profile after Fatalf: %v, %v; want a non-empty file", fi, err)
	}
}
