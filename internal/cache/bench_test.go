package cache

import "testing"

// BenchmarkL1AccessFast times the core-facing L1 hit path, the CMP's
// hottest tag-store lookup: reads cycling over 512 resident blocks, four
// in each of the L1's 128 sets.
func BenchmarkL1AccessFast(b *testing.B) {
	eng, sys := newSystem(b)
	l1 := sys.L1s[0]
	const blocks = 512
	for k := range uint64(blocks) {
		access(b, eng, sys, 0, k, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		if !l1.AccessFast(uint64(i%blocks), false, nil) {
			b.Fatalf("block %d missed, want every block resident", i%blocks)
		}
	}
}
