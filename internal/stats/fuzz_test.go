package stats

import (
	"bytes"
	"testing"
)

// FuzzReadSnapshots checks the metrics-snapshot reader on documents the
// fuzzer picks: go test -fuzz FuzzReadSnapshots ./internal/stats. It
// never panics, and a document it accepts, once written back with
// WriteSnapshotsJSON, re-reads to equal snapshots. Its corpus is in
// testdata/fuzz/FuzzReadSnapshots.
func FuzzReadSnapshots(f *testing.F) {
	for _, s := range []string{
		`{"snapshots": [{"label": "a", "metrics": {"x": 1, "y": -0.5}}]}`,
		`{"label": "bare", "metrics": {"z": 1e21}}`,
		`{"snapshots": []}`,
		`{"snapshots": [{"label": "a\u0001b", "metrics": {"\t": 2}}]}`,
		`{"snapshots": null}`,
		`[1, 2]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snaps, err := ReadSnapshots(data)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteSnapshotsJSON(&buf, snaps); err != nil {
			t.Fatal(err)
		}
		again, err := ReadSnapshots(buf.Bytes())
		if err != nil {
			t.Fatalf("written back, %q does not re-read: %v\n%s", data, err, buf.Bytes())
		}
		if !sameSnapshots(snaps, again) {
			t.Fatalf("%q re-reads as %+v, want %+v", data, again, snaps)
		}
	})
}

// sameSnapshots compares by content: a nil and an empty metrics map are
// the same snapshot.
func sameSnapshots(a, b []Snapshot) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Label != b[i].Label || len(a[i].Values) != len(b[i].Values) {
			return false
		}
		for k, v := range a[i].Values {
			if w, ok := b[i].Values[k]; !ok || w != v {
				return false
			}
		}
	}
	return true
}

// TestSnapshotJSONQuotesControlBytes: a label or metric name holding a
// control byte is written with a JSON escape, so the document re-reads.
func TestSnapshotJSONQuotesControlBytes(t *testing.T) {
	snaps := []Snapshot{{Label: "a\x01b", Values: map[string]float64{"m\x7f\n": 1}}}
	var buf bytes.Buffer
	if err := WriteSnapshotsJSON(&buf, snaps); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshots(buf.Bytes())
	if err != nil {
		t.Fatalf("ReadSnapshots: %v\n%s", err, buf.Bytes())
	}
	if !sameSnapshots(snaps, got) {
		t.Fatalf("re-read %+v, want %+v", got, snaps)
	}
}
