package core_test

import (
	"strings"
	"testing"

	"snacknoc/internal/cache"
	"snacknoc/internal/core"
	"snacknoc/internal/cpu"
	"snacknoc/internal/noc"
	"snacknoc/internal/sim"
	"snacknoc/internal/traffic"
)

// TestLayersAboveTheNoCRejectShards: only a bare network may be cut into
// shards. Handed a two-shard mesh, each builder above the NoC — the
// standalone SnackNoC, the cache hierarchy, the cores and the co-run
// SnackNoC — returns an error that names the shards instead of building
// on one of the sub-engines.
func TestLayersAboveTheNoCRejectShards(t *testing.T) {
	cfg := *noc.SnackPlatform(4, 4, true)
	cfg.Shards = 2
	wantShardErr := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "shards") {
			t.Errorf("%s on a two-shard mesh: err = %v, want an error naming the shards", what, err)
		}
	}
	_, err := core.NewStandaloneOn(sim.NewEngine(), &cfg, core.DefaultPlatformConfig())
	wantShardErr("core.NewStandaloneOn", err)

	eng := sim.NewEngine()
	net, err := noc.New(eng, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cache.NewSystem(eng, net, cache.DefaultSystemConfig())
	wantShardErr("cache.NewSystem", err)
	// A system on the sharded mesh, assembled past NewSystem's check.
	sys := &cache.System{Eng: eng, Net: net}
	_, err = cpu.NewWorkload(eng, sys, traffic.FMM(), 1)
	wantShardErr("cpu.NewWorkload", err)
	_, err = core.AttachToSystem(eng, sys, core.DefaultPlatformConfig())
	wantShardErr("core.AttachToSystem", err)
}
