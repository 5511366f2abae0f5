package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"snacknoc/internal/stats"
)

// run calls one subcommand and returns its exit status and output.
func run(t *testing.T, name string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = subcommands[name](args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func writeFile(t *testing.T, dir, name, data string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCheckTrace pins check-trace's verdicts and exit statuses: a valid
// dump passes, a ring that dropped events passes with a warning, a
// malformed dump fails with 1, and an unreadable file with 2.
func TestCheckTrace(t *testing.T) {
	dir := t.TempDir()
	const event = `{"name":"inject","ph":"i","pid":1,"ts":3}`
	meta := func(name string) string {
		return `{"name":"process_name","ph":"M","pid":1,"args":{"name":"` + name + `"}}`
	}
	good := writeFile(t, dir, "good.json", `{"traceEvents":[`+meta("run")+`,`+event+`]}`)
	ring := writeFile(t, dir, "ring.json", `{"traceEvents":[`+meta("run (ring: 7 events dropped)")+`,`+event+`]}`)
	bad := writeFile(t, dir, "bad.json", `{"traceEvents":[{"ph":"i","pid":1,"ts":3}]}`)

	for _, tc := range []struct {
		name     string
		args     []string
		code     int
		stdout   string // a substring, "" for none expected
		stderr   string
		noStderr bool
	}{
		{"good", []string{good}, 0, "good.json OK (", "", true},
		{"ring-dropped", []string{ring}, 0, "ring.json OK (", "WARNING: ring dropped 7 events", false},
		{"malformed", []string{bad}, 1, "", `missing or empty "name"`, false},
		{"missing", []string{filepath.Join(dir, "none.json")}, 2, "", "none.json", false},
		{"mixed", []string{good, bad}, 1, "good.json OK (", "bad.json", false},
		{"usage", nil, 2, "", "usage: snackscope check-trace", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := run(t, "check-trace", tc.args...)
			if code != tc.code {
				t.Errorf("exit %d, want %d (stderr %q)", code, tc.code, stderr)
			}
			if !strings.Contains(stdout, tc.stdout) || (tc.stdout == "" && stdout != "") {
				t.Errorf("stdout %q, want %q", stdout, tc.stdout)
			}
			if !strings.Contains(stderr, tc.stderr) || (tc.noStderr && stderr != "") {
				t.Errorf("stderr %q, want %q", stderr, tc.stderr)
			}
		})
	}
}

// TestDiff pins diff's exit statuses and report lines: equal snapshot
// files give 0 and the no-differences line, a changed metric gives 1
// and names it, and a missing file gives 2.
func TestDiff(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v float64) string {
		var buf bytes.Buffer
		snaps := []stats.Snapshot{{Label: "run", Values: map[string]float64{"net.packets.injected": v}}}
		if err := stats.WriteSnapshotsJSON(&buf, snaps); err != nil {
			t.Fatal(err)
		}
		return writeFile(t, dir, name, buf.String())
	}
	a, b, c := write("a.json", 10), write("b.json", 10), write("c.json", 12)

	code, stdout, _ := run(t, "diff", a, b)
	if code != 0 || stdout != "snackscope diff: no differences (1 snapshot(s), tol 0)\n" {
		t.Errorf("equal files: exit %d, stdout %q", code, stdout)
	}
	code, stdout, stderr := run(t, "diff", a, c)
	if code != 1 || !strings.Contains(stdout, "net.packets.injected") ||
		!strings.Contains(stderr, "snackscope diff: 1 difference(s) between") {
		t.Errorf("different files: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	if code, _, _ := run(t, "diff", "-tol", "5", a, c); code != 0 {
		t.Errorf("difference within -tol: exit %d, want 0", code)
	}
	if code, _, stderr := run(t, "diff", a, filepath.Join(dir, "none.json")); code != 2 {
		t.Errorf("missing file: exit %d, want 2 (stderr %q)", code, stderr)
	}
	if code, _, stderr := run(t, "diff", a); code != 2 || !strings.Contains(stderr, "usage: snackscope diff") {
		t.Errorf("one file: exit %d, stderr %q; want 2 and the usage line", code, stderr)
	}
}
