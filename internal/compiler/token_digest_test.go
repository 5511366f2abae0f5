package compiler_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"snacknoc/internal/compiler"
	"snacknoc/internal/core"
	"snacknoc/internal/cpu"
	"snacknoc/internal/experiments"
	"snacknoc/internal/traffic"
)

// tokenDigest hashes every instruction token p issues, field by field,
// in issue order.
func tokenDigest(p *core.Program) string {
	h := sha256.New()
	var b []byte
	for i := 0; i < p.Instructions(); i++ {
		it := p.Token(i)
		b = b[:0]
		for _, v := range []uint32{it.Seq, uint32(it.Dst), it.SubBlock, uint32(it.SBIdx), uint32(it.EmitDep), uint32(it.Home),
			uint32(it.L.Imm), uint32(it.L.Dep), uint32(it.R.Imm), uint32(it.R.Dep), uint32(it.Dependents), uint32(it.Op)} {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		for _, f := range []bool{it.L.IsRef, it.R.IsRef, it.AccInit, it.EndSB, it.Emit, it.ToCPM} {
			if f {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTokensMatchTheRecordedStream rebuilds every instruction token of
// the four kernels, at DefaultKernelDims and DSESmokeDims on 16 RCUs,
// and of the random graphs TestRandomGraphsMatchReference runs, and
// compares their digests with testdata/token_digest.txt. That file was
// recorded from the same walk over commit d3c83d9, whose programs stored
// one token per instruction; it must not be regenerated from newer code.
func TestTokensMatchTheRecordedStream(t *testing.T) {
	want, err := os.ReadFile("testdata/token_digest.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	add := func(name string, p *core.Program) {
		got = append(got, fmt.Sprintf("%s %d %s", name, p.Instructions(), tokenDigest(p)))
	}
	for _, dims := range []struct {
		name string
		d    experiments.KernelDims
	}{{"default", experiments.DefaultKernelDims()}, {"smoke", experiments.DSESmokeDims()}} {
		for _, k := range cpu.Kernels() {
			p, err := experiments.CompileKernel(k, dims.d, 16, experiments.Seed)
			if err != nil {
				t.Fatal(err)
			}
			add(fmt.Sprintf("%s/%s", k, dims.name), p)
		}
	}
	for seed := 0; seed < 60; seed++ {
		g, err := compiler.RandomGraph(traffic.NewRNG(uint64(seed) + 1000))
		if err != nil {
			t.Fatal(err)
		}
		p, err := compiler.Compile(g, compiler.DefaultConfig(16))
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("random/seed%d", seed), p)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%d programs, the record has %d", len(got), len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("got  %s\nwant %s", got[i], wantLines[i])
		}
	}
}
