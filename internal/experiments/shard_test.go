package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"snacknoc/internal/cpu"
	"snacknoc/internal/noc"
	"snacknoc/internal/traffic"
)

// TestShardedFig2ByteIdentical pins the tentpole correctness bar: the
// sharded kernel regenerates the committed Fig 2 artifact byte for byte
// at every shard count. Any conservatism violation — a flit or credit
// crossing a shard boundary inside the cycle it was sent — would perturb
// arbitration and fail here.
func TestShardedFig2ByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale fig2 regeneration at two shard counts")
	}
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			res, err := RunSpec{Shards: shards}.RunFig2(Scale(1.0))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			RenderFig2(&buf, res)
			compareArtifact(t, "../../results/fig2.txt", buf.Bytes())
		})
	}
}

// TestShardedFig9ByteIdentical covers the standalone SnackNoC platform
// (CPM, RCUs, token loop, DDR3 channel) under sharding: kernel results
// and completion latencies must match the committed serial artifact.
func TestShardedFig9ByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("fig9 regeneration at two shard counts")
	}
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			res, err := RunSpec{Shards: shards}.RunFig9(DefaultKernelDims(), cpu.DefaultCPUConfig())
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			RenderFig9(&buf, res)
			compareArtifact(t, "../../results/fig9.txt", buf.Bytes())
		})
	}
}

// TestShardedCoRunMatchesSerial runs a reduced-scale co-run (CMP cores +
// cache hierarchy + CPM kernels on one sharded mesh) at several shard
// counts and requires identical results. Unlike the artifact tests above
// it stays enabled under -short, so the ci.sh race-detector pass drives
// the sharded kernel through the full platform stack.
func TestShardedCoRunMatchesSerial(t *testing.T) {
	run := func(t *testing.T, shards int) string {
		r, err := RunSpec{Shards: shards}.RunCoRun(CoRunSpec{
			Bench: traffic.FMM(), Kernel: cpu.KernelReduction,
			Dims: DefaultKernelDims(), Width: 4, Height: 4,
			Priority: true, Scale: Scale(0.02),
		})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", *r)
	}
	serial := run(t, 0)
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			if got := run(t, shards); got != serial {
				t.Fatalf("sharded co-run diverged:\n got %s\nwant %s", got, serial)
			}
		})
	}
}

// TestShardsClampedToMeshWidth: a shard count wider than the mesh is
// clamped, not rejected, so one -shards flag can serve sweeps that mix
// mesh sizes.
func TestShardsClampedToMeshWidth(t *testing.T) {
	cfg := RunSpec{Shards: 64}.applyShards(noc.DAPPER(4, 4))
	if cfg.Shards != 4 {
		t.Fatalf("applyShards clamped to %d, want 4", cfg.Shards)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("clamped config invalid: %v", err)
	}
}
