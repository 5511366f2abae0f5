package experiments

import (
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseMesh checks the -mesh parser on inputs the fuzzer picks: go
// test -fuzz FuzzParseMesh ./internal/experiments. It never panics, an
// accepted mesh has both sides at least 2, and its WxH rendering parses
// back to the same mesh. Its corpus is in testdata/fuzz/FuzzParseMesh.
func FuzzParseMesh(f *testing.F) {
	for _, s := range []string{"4x4", "8X4", "16x16", "+4x4", "04x2", "4x4x9", "x4", "1x4", "axb", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		w, h, err := ParseMesh(s)
		if err != nil {
			if w != 0 || h != 0 {
				t.Fatalf("ParseMesh(%q) failed but returned %dx%d", s, w, h)
			}
			return
		}
		if w < 2 || h < 2 {
			t.Fatalf("ParseMesh(%q) accepted %dx%d, a side under 2", s, w, h)
		}
		r := fmt.Sprintf("%dx%d", w, h)
		if w2, h2, err := ParseMesh(r); err != nil || w2 != w || h2 != h {
			t.Fatalf("ParseMesh(%q) = %dx%d, but its rendering %q parses to %dx%d, %v", s, w, h, r, w2, h2, err)
		}
	})
}

// FuzzParseGrid checks the -grid parser on inputs the fuzzer picks: go
// test -fuzz FuzzParseGrid ./internal/experiments. It never panics, an
// accepted grid has every axis non-empty, positive and free of repeats,
// and its rendering parses back to equal axes. Its corpus is in
// testdata/fuzz/FuzzParseGrid.
func FuzzParseGrid(f *testing.F) {
	for _, s := range []string{
		"buf=1,2:chan=16:vc=2,4:rcu=16,32", "rcu=32", "buf= 2 ,4", "buf=2:buf=4",
		"buf=2,2", "buf=0", "buf=-1", "buf=1,x", "buf", "", ":", "vc=1:rcu=16:chan=8",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		axes, err := ParseGrid(s)
		if err != nil {
			return
		}
		for name, vals := range gridAxes(axes) {
			if len(vals) == 0 {
				t.Fatalf("ParseGrid(%q) accepted an empty %s axis", s, name)
			}
			for i, v := range vals {
				if v <= 0 || slices.Contains(vals[:i], v) {
					t.Fatalf("ParseGrid(%q) accepted %s=%v: values must be positive and distinct", s, name, vals)
				}
			}
		}
		r := renderGrid(axes)
		if again, err := ParseGrid(r); err != nil || !reflect.DeepEqual(again, axes) {
			t.Fatalf("ParseGrid(%q) = %+v, but its rendering %q parses to %+v, %v", s, axes, r, again, err)
		}
	})
}

// gridAxes names a grid's four axes as ParseGrid spells them.
func gridAxes(a DSEAxes) map[string][]int {
	return map[string][]int{"buf": a.BufDepths, "chan": a.ChanWidths, "vc": a.VCCounts, "rcu": a.RCUCounts}
}

// renderGrid writes a grid back as a -grid spec naming every axis.
func renderGrid(a DSEAxes) string {
	axes := gridAxes(a)
	var parts []string
	for _, name := range []string{"buf", "chan", "vc", "rcu"} {
		vals := make([]string, len(axes[name]))
		for i, v := range axes[name] {
			vals[i] = strconv.Itoa(v)
		}
		parts = append(parts, name+"="+strings.Join(vals, ","))
	}
	return strings.Join(parts, ":")
}
