#!/bin/sh
# Tier-1 gate: formatting, vet, build, the full test suite, race-detector
# passes over the concurrent sweep runner and the pooled simulation
# paths, CLI smokes byte-compared against results/, and exact counts on
# the repo benchmark (go run ./benchmark). No step compares host time, so
# none has a skip switch. Run from the repo root.
#
# Usage: scripts/ci.sh [-heavy]
#   -heavy additionally regenerates the fig12/fig13 full sweeps (minutes
#   each) and byte-compares them against results/ (same as CI_HEAVY=1).
set -eu
cd "$(dirname "$0")/.."

heavy=${CI_HEAVY:-0}
for arg in "$@"; do
    case "$arg" in
    -heavy) heavy=1 ;;
    *)
        echo "usage: scripts/ci.sh [-heavy]" >&2
        exit 2
        ;;
    esac
done

echo "== gofmt =="
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt needed on:" >&2
    echo "$fmt" >&2
    exit 1
fi

echo "== go vet ./... =="
go vet ./...

echo "== go build ./... =="
go build ./...

# One implementation of each container the flat hot state is built from
# (internal/flat: Table, Pool, Ring, Slots, Links, Carve, IndexSet). The
# copies noc, core and cache each kept before it must not come back,
# under their old names or as a new hand-rolled carve or backward-shift
# table.
echo "== one implementation per container (internal/flat) =="
flat_srcs=$(ls internal/noc/*.go internal/core/*.go internal/cache/*.go internal/sim/*.go internal/cpu/*.go | grep -v '_test\.go$')
# shellcheck disable=SC2086
if grep -nE 'func carve|backward-shift|u32Table|blockTable|freeList|msgPool|pktQueue|(^|[^.[:alnum:]_])(ring|slab)\[' $flat_srcs; then
    echo "ERROR: a container internal/flat provides is re-implemented above; use internal/flat" >&2
    exit 1
fi

# One free list: records chained into FIFOs with their free slots
# threaded through the same link field are a flat.Links, and a slot
# array with a free stack is a flat.Slots. Outside internal/flat only
# core.instrSlab threads its own free list (its fixed chunks never move,
# so an RCU's pointer into a slot survives growth; DESIGN §11). The
# hand-threaded lists the event wheel, the RCU cells and the L1 MSHR
# file kept before must not come back, under their old names or as a
# new free int32 field of a struct.
echo "== one free list (flat.Links, flat.Slots) =="
free_srcs=$(find . -name '*.go' ! -name '*_test.go' ! -path './internal/flat/*' ! -path './benchmark/*')
# shellcheck disable=SC2086
if grep -nE 'nodeFree|mshrFree|freeFrom|newNode|freeNode' $free_srcs ||
    awk '/^type [[:alnum:]_]+(\[.*\])? struct/ { t = $2; sub(/\[.*/, "", t) } /^}/ { t = "" }
        t != "" && t != "instrSlab" && /^[[:space:]]+free[[:space:]]+int32/ { print FILENAME ":" FNR ": " t ": " $0; found = 1 }
        END { exit !found }' $free_srcs; then
    echo "ERROR: a free list is threaded by hand outside internal/flat; use flat.Links or flat.Slots" >&2
    exit 1
fi

# One snapshot idiom: a checkpointed component keeps its mutable state
# in one block whose copyFrom both takes and restores it. The per-type
# State/Restore mirrors that idiom replaced must not come back.
echo "== one snapshot idiom (block copyFrom) =="
# shellcheck disable=SC2046
if grep -nE 'CounterState|HistogramState|TimeSeriesState|RNGState|StreamState|ALODetectorState|SnackALOState|CacheState' $(find internal -name '*.go' ! -name '*_test.go'); then
    echo "ERROR: a per-type snapshot mirror is back; copy the component's block with copyFrom" >&2
    exit 1
fi

# One SnackNoC platform: snacknoc.Platform runs one context or several
# concurrent ones through one submit path, and programs compile with
# plain compiler.Compile. The second platform type, its copy of the
# run loop, the content-hashed compile cache and the one-value RCU knob
# must not come back.
echo "== one platform, one execute path, one compile cache =="
# shellcheck disable=SC2046
if grep -nE 'CompileCached|Fingerprint\(|(^|[^[:alnum:]_])(DecentralizedPlatform|RCUConfig)' $(find . -name '*.go' ! -name '*_test.go'); then
    echo "ERROR: a second platform type, compile cache or RCU knob is back; use snacknoc.Platform and compiler.Compile" >&2
    exit 1
fi

# One run description: how a run executes is the experiments.RunSpec
# its caller passes, not process-wide state. Outside the repository
# benchmark's shims (benchshim.go) and the compile cache, a pure memo
# (compilecache.go), internal/experiments holds no package-level
# variable, no sync.Map and no sweep scope; the commands and internal/cli
# switch nothing on through the package's setters.
echo "== one run description (experiments.RunSpec) =="
exp_srcs=$(ls internal/experiments/*.go | grep -v '_test\.go$' | grep -v '/benchshim\.go$' | grep -v '/compilecache\.go$')
# shellcheck disable=SC2086
if grep -nE '^var|sync\.Map|beginSweepScope|warmDepth' $exp_srcs ||
    grep -rnE 'experiments\.(Set|Enable)[A-Z]' internal/cli cmd; then
    echo "ERROR: run settings are RunSpec fields; no package-level state in internal/experiments, no setter calls from internal/cli or cmd" >&2
    exit 1
fi

# Co-run legs 1 and 2 are plain per-sweep memos (legmemo.go; ROADMAP
# item 16), not forks of a checkpointed warm baseline, and a DSE leg
# group resets its just-built platform in place: no non-test file in
# internal/experiments imports internal/checkpoint. Nor does the
# zero-load probe snapshot its network between points: it resets it.
echo "== co-run legs are memos, just-built simulations reset (internal/experiments, internal/noc) =="
ckpt_srcs=$(ls internal/experiments/*.go | grep -v '_test\.go$')
# shellcheck disable=SC2086
if grep -n '"snacknoc/internal/checkpoint"' $ckpt_srcs; then
    echo "ERROR: internal/experiments takes no checkpoint; co-run legs are memoized (legmemo.go) and DSE platforms reset" >&2
    exit 1
fi
if grep -nE 'SnapshotState|RestoreState' internal/noc/synthetic.go; then
    echo "ERROR: LoadLatencyPoints rewinds its probe network with Reset, not a snapshot" >&2
    exit 1
fi

# One observed run: which layer aggregates a simulation attaches its
# tracer and recorder to, and which register its metrics, is decided in
# internal/experiments/observe.go (RunSpec.Observe, Observation.Record),
# and the commands run a zero-load kernel through RunSpec.RunKernel. No
# runner or command hand-wires the observe calls again; the DSE's leg
# groups keep their one attach, which Reset zeroes between legs.
echo "== one observed run (experiments observe.go) =="
obs_srcs=$(find internal/experiments cmd -name '*.go' ! -name '*_test.go' ! -path internal/experiments/observe.go)
# shellcheck disable=SC2086
if grep -nE '\.(SetTracer|SetAttrib|RegisterMetrics)\(' $obs_srcs /dev/null |
    grep -vE '^internal/experiments/dse\.go:[0-9]+:[[:space:]]*plat\.SetAttrib\(rec\)$' ||
    grep -rn 'core\.NewStandalone' cmd; then
    echo "ERROR: observe a run through RunSpec.Observe/Record and run a kernel through RunSpec.RunKernel" >&2
    exit 1
fi

# One engine: every simulation, a bare network included, runs on the
# one sim.Engine its builder is handed, on the calling goroutine. The
# column-shard seam must not come back: no non-test Go outside the
# repository benchmark names the engine partition, the barrier hook, the
# serial-shard switch, the unsharded check, the per-node engine lookup,
# the boundary interposer or the node-to-shard map, or reads
# noc.Config.Shards, which only the benchmark still sets.
echo "== one engine (no shard seam) =="
engine_srcs=$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*')
# shellcheck disable=SC2086
if grep -nE 'Partition\(|AtBarrier|SetSerialShards|CheckUnsharded|engFor|interpose|shardOf|\.Shards([^[:alnum:]_]|$)' $engine_srcs; then
    echo "ERROR: the shard seam is back; a simulation runs on one engine" >&2
    exit 1
fi

# One route: the transient-data loop and the ALO readings live in
# internal/noc. noc.New gives each router its loop successor and the
# output toward it, a compute unit sends onto the loop with
# InjectPort.SendLoop, and the CPM's two readings are one ALODetector
# type. No non-test Go outside internal/noc names a route object, the
# network's accessor for it, a second detector type or its per-call
# lookup; and routeXY, the one XY definition, is called only from
# route.go and router.go.
echo "== one route (internal/noc) =="
route_srcs=$(find . -name '*.go' ! -name '*_test.go' ! -path './internal/noc/*')
xy_srcs=$(find . -name '*.go' ! -name '*_test.go' ! -path './internal/noc/route.go' ! -path './internal/noc/router.go')
# shellcheck disable=SC2086
if grep -nE 'LoopRoute|\.Loop\(\)|SnackALODetector|FreeSnackVCsToward' $route_srcs ||
    grep -nE 'routeXY\(' $xy_srcs; then
    echo "ERROR: the loop route or an ALO reading is decided outside internal/noc, or routeXY is called outside route.go/router.go" >&2
    exit 1
fi

echo "== go test ./... =="
go test ./...

# The compile → RCU path under the fuzzer: ten seconds of random graphs,
# each compiled, run on a 4×4 platform and checked against Graph.Eval,
# beyond the checked-in corpus the plain pass above replays. A failing
# input lands in internal/compiler/testdata/fuzz/FuzzCompile.
echo "== go test -fuzz FuzzCompile (10 s) =="
go test -run '^$' -fuzz '^FuzzCompile$' -fuzztime 10s -fuzzminimizetime 1s ./internal/compiler

# The fork property under the fuzzer: ten seconds of co-runs on a 4×4
# (snapshot cycle, horizon, profile, seed, arbiter, buffer depth and VCs
# drawn), each required to replay the same digest after a restore and
# after a restore that follows a partial fork. A failing input lands in
# internal/checkpoint/testdata/fuzz/FuzzFork.
echo "== go test -fuzz FuzzFork (10 s) =="
go test -run '^$' -fuzz '^FuzzFork$' -fuzztime 10s -fuzzminimizetime 1s ./internal/checkpoint

# The command-line shape parsers under the fuzzer: five seconds each of
# -mesh and -grid strings. Neither parser may panic, and whatever one
# accepts must be well formed (sides of at least 2; axes non-empty,
# positive and without repeats) and parse back to itself from its
# rendering. Failing inputs land in internal/experiments/testdata/fuzz.
echo "== go test -fuzz FuzzParseMesh, FuzzParseGrid (5 s each) =="
go test -run '^$' -fuzz '^FuzzParseMesh$' -fuzztime 5s -fuzzminimizetime 1s ./internal/experiments
go test -run '^$' -fuzz '^FuzzParseGrid$' -fuzztime 5s -fuzzminimizetime 1s ./internal/experiments

# The two JSON readers under the fuzzer: ten seconds each. Neither the
# metrics-snapshot reader nor the trace validator (nor DroppedFromJSON)
# may panic; a snapshot document the reader accepts must re-read equal
# once written back, and a tracer of any name must write a dump that
# validates. Failing inputs land in internal/stats/testdata/fuzz and
# internal/trace/testdata/fuzz.
echo "== go test -fuzz FuzzReadSnapshots, FuzzValidateTrace (10 s each) =="
go test -run '^$' -fuzz '^FuzzReadSnapshots$' -fuzztime 10s -fuzzminimizetime 1s ./internal/stats
go test -run '^$' -fuzz '^FuzzValidateTrace$' -fuzztime 10s -fuzzminimizetime 1s ./internal/trace

# The race pass uses -short so the full-scale figure regenerations (which
# the plain pass above already ran) are not repeated at the race
# detector's ~10x slowdown. It covers the concurrent sweep runner (the
# traced parallel-sweep test ignores -short); sim and noc ride along for
# the engine and the network every worker builds its own of, and core
# and cache for the pooled token/message paths. The DSE invariance test
# in experiments resets four groups' platforms at once from 4 workers.
# checkpoint rides along for the platform pool's own tests, which cover
# the Get/Release/Seal paths. core's runnable-set invariant (checked after
# every cycle) and its sliced kernel runs do not skip under -short.
echo "== go test -race -short ./internal/experiments ./internal/noc ./internal/sim ./internal/core ./internal/cache ./internal/checkpoint =="
go test -race -short ./internal/experiments ./internal/noc ./internal/sim ./internal/core ./internal/cache ./internal/checkpoint
# The fork test (skipped by -short above) forks co-runs with cores
# blocked and idling and RCUs parked and runnable at the snapshot; the
# pending-mask and credit-conservation invariants are checked after
# every cycle on a bare network, and again through a restore's replay.
# The two credit-timing pins
# ride along, and so do the checks a checkpoint's plain slab copies rest
# on: every payload in flight has one holder, and a mid-flight restore
# gives the cache back its slabs slot for slot.
echo "== go test -race: fork determinism + pending-mask and credit invariants + credit-timing pins + one payload holder + mid-flight slab restore =="
go test -race -run 'TestForkDeterminism|TestPendingMasksTrackWires|TestInjectPortCreditTiming|TestNIWaitingPacketNeedsAnEvent|TestInFlightPayloadsHaveOneHolder|TestMidFlightCheckpointReplays' -count=1 ./internal/checkpoint ./internal/noc ./internal/cache

# The four commands, built once for the smokes below into a scratch
# directory that is removed on exit. They share one front end
# (internal/cli): one flag set and one run lifecycle, so no command
# switches observability on or profiles by itself, and the set of
# commands is exactly these four (snackscope absorbed the trace checker
# and the metrics differ as its check-trace and diff subcommands). Their
# -h output is pinned; a deliberate flag or wording change regenerates
# results/cli-help.txt with the same loop.
echo "== commands (one front end; help text vs results/cli-help.txt) =="
ci_tmp=$(mktemp -d "${TMPDIR:-/tmp}/snacknoc-ci.XXXXXX")
trap 'rm -rf "$ci_tmp"' EXIT
commands="snackbench snackdse snackscope snacksim"
if [ "$(ls cmd | tr '\n' ' ')" != "$commands " ]; then
    echo "ERROR: cmd/ holds $(ls cmd | tr '\n' ' '); want exactly $commands" >&2
    exit 1
fi
if grep -rn 'StartProfiling\|EnableTracing\|EnableMetrics\|EnableAttribution\|WriteTrace\|WriteMetrics' cmd; then
    echo "ERROR: the commands observe and profile through internal/cli, not by themselves" >&2
    exit 1
fi
for c in $commands; do
    go build -o "$ci_tmp/$c" "./cmd/$c"
done
(cd "$ci_tmp" && for c in $commands; do ./$c -h 2>&1; done) >"$ci_tmp/help.txt"
cmp "$ci_tmp/help.txt" results/cli-help.txt
echo "commands: four, help text unchanged"

# DSE smoke: regenerate the tiny committed grid through the real CLI and
# byte-compare it against results/. The flags mirror dseTestConfig() in
# internal/experiments/dse_test.go — the golden test pins the library,
# this pins the cmd/snackdse flag parsing and rendering on top of it.
echo "== DSE smoke (tiny grid vs results/dse-smoke.txt) =="
"$ci_tmp/snackdse" -grid 'buf=1,2,4:chan=16,32:vc=2,4:rcu=16' -kernels MAC \
    -dims smoke -j 1 -out "$ci_tmp/dse.txt" 2>/dev/null
cmp "$ci_tmp/dse.txt" results/dse-smoke.txt
echo "dse smoke: byte-identical"

# The public API's output: the five examples run single-CPM Execute,
# four-CPM ExecuteConcurrent and CoRun, and print cycles, Stats and
# verified results. Byte-compare them against the committed run.
echo "== examples (go run ./examples/* vs results/examples.txt) =="
for ex in quickstart gemm spmv decentralized corun; do
    go run "./examples/$ex"
done >"$ci_tmp/examples.txt"
cmp "$ci_tmp/examples.txt" results/examples.txt
echo "examples: byte-identical"

# -heavy (or CI_HEAVY=1) additionally regenerates the fig12/fig13 full
# sweeps (minutes each) and byte-compares them against results/.
if [ "$heavy" = "1" ]; then
    echo "== heavy equivalence (fig12, fig13) =="
    SNACKNOC_EQUIV_HEAVY=1 go test -run 'TestFig1[23]Regeneration' -timeout 60m ./internal/experiments
fi

# Benchmark smoke: one iteration of the scheduler, router and L1-hit
# micro-benchmarks, so a panic or hang in the hot paths breaks the gate
# even when no correctness test exercises the perf-only code. go test
# exits 0 when -bench matches nothing, so each name must print its line.
#
# bench_smoke <package> <benchmark>...
bench_smoke() {
    bs_pkg=$1
    shift
    bs_re=$(printf '%s|' "$@")
    bs_out=$(go test -run '^$' -bench "^(${bs_re%|})\$" -benchtime 1x "$bs_pkg") || {
        printf '%s\n' "$bs_out"
        exit 1
    }
    printf '%s\n' "$bs_out"
    for bs_b in "$@"; do
        if ! printf '%s\n' "$bs_out" | grep -q "^$bs_b[/-]"; then
            echo "ERROR: $bs_b did not run in $bs_pkg (renamed or deleted?)" >&2
            exit 1
        fi
    done
}
echo "== benchmark smoke (1 iteration) =="
bench_smoke ./internal/sim BenchmarkEngineSchedule BenchmarkEngineStepIdle
bench_smoke ./internal/noc BenchmarkRouterEvaluate BenchmarkNetworkReset
bench_smoke ./internal/cache BenchmarkL1AccessFast

# Observability smoke: trace, attribute, and snapshot a tiny
# deterministic kernel run, validate the trace-event JSON, and diff the
# metrics against the golden snapshot under results/. The run is
# attributed (-attrib -attrib-interval), so the golden pins the counter
# gauges, the attrib.series.* interval summaries, and the trace.dropped
# tracer-health gauge alongside the ordinary metrics. Any behavioural
# change shows up here as a metrics diff (regenerate the golden
# alongside results/ when intended).
echo "== observability smoke (traced+attributed Reduction kernel) =="
"$ci_tmp/snacksim" -kernel Reduction -trace "$ci_tmp/trace.json" -trace-last 4096 \
    -attrib -attrib-interval 2000 -metrics "$ci_tmp/metrics.json" >/dev/null 2>/dev/null
"$ci_tmp/snackscope" check-trace "$ci_tmp/trace.json"
"$ci_tmp/snackscope" diff "$ci_tmp/metrics.json" results/smoke-metrics.json

# The CMP and co-run observe paths: an attributed, metered and traced
# FMM run, alone and co-run with Reduction (its /base, /zero and /corun
# legs), diffed against results/. The snapshots pin which components
# each run attaches and registers; a snapshot's trace.dropped gauge plus
# the 4096 events the ring keeps is that tracer's event count.
echo "== observability pins (FMM; FMM x Reduction vs results/cmp-metrics.json, corun-metrics.json) =="
"$ci_tmp/snacksim" -bench FMM -scale 0.02 -trace "$ci_tmp/cmp-trace.json" -trace-last 4096 \
    -attrib -attrib-interval 2000 -metrics "$ci_tmp/cmp-metrics.json" >/dev/null 2>/dev/null
"$ci_tmp/snacksim" -bench FMM -kernel Reduction -scale 0.02 -trace "$ci_tmp/corun-trace.json" -trace-last 4096 \
    -attrib -attrib-interval 2000 -metrics "$ci_tmp/corun-metrics.json" >/dev/null 2>/dev/null
"$ci_tmp/snackscope" check-trace "$ci_tmp/cmp-trace.json" "$ci_tmp/corun-trace.json"
"$ci_tmp/snackscope" diff "$ci_tmp/cmp-metrics.json" results/cmp-metrics.json
"$ci_tmp/snackscope" diff "$ci_tmp/corun-metrics.json" results/corun-metrics.json

# A run that fails is the one whose profile is wanted: the profilers are
# stopped on the error exit too, so the CPU profile is not left empty.
#
# failed_run <command> <args>...
failed_run() {
    fr_cmd=$1
    shift
    if "$ci_tmp/$fr_cmd" "$@" -cpuprofile "$ci_tmp/$fr_cmd.prof" 2>/dev/null; then
        echo "ERROR: $fr_cmd $* exited 0" >&2
        exit 1
    fi
    if [ ! -s "$ci_tmp/$fr_cmd.prof" ]; then
        echo "ERROR: a failed $fr_cmd run left an empty -cpuprofile" >&2
        exit 1
    fi
}
echo "== failed runs keep their profiles (snacksim -bench Nope, snackbench -exp nope) =="
failed_run snacksim -bench Nope
failed_run snackbench -exp nope
echo "failed-run profiles: written"

# Attribution smoke: the snackscope report for a zero-load Reduction
# kernel is a pure function of the simulated cycles — byte-compare it
# against the committed golden (verdict included: zero-load kernels are
# cpm-issue-bound). snackscope itself enforces the sum-to-cycles
# invariant before rendering, so a taxonomy hole fails here too.
echo "== attribution smoke (snackscope Reduction kernel vs results/scope-smoke.txt) =="
"$ci_tmp/snackscope" -kernel Reduction -dims smoke >"$ci_tmp/scope.txt"
cmp "$ci_tmp/scope.txt" results/scope-smoke.txt
echo "attribution smoke: byte-identical"

# Exact counts on the repo benchmark: allocation budgets and evaluation
# counts. They are host-independent, so these steps are never skipped;
# each run also checks the pass's simulated results against the pinned
# digest.
#
# kernels_zero_load: the kernel lifecycle (compile -> submit -> fetch ->
# issue -> retire) is slab- and pool-fed and the platform is built from
# slabs, so one pass — eight compiled-and-run kernels, ~300k
# instructions — stays under 12800 allocations (11.2k when this bound
# was set; 16.4k while a nil attribution walk still formatted every
# component label and fixed.Q.String went through fmt, 35.6k before the
# network was slab-built); a per-instruction allocation anywhere on that
# path costs 300k.
#
# dse_fork_sweep: a DSE cell is mostly set-up — a platform build, reset
# in place between its leg group's legs, and a probe-mesh build, reset
# between its points — and the network, the RCUs and the engine's
# handles are slabs and the NIs' queues start as windows of them, and
# the cells that differ only in channel width share their kernel legs
# (16 leg groups of 4 cells: 16 platform builds and 32 legs for 64
# cells), so one 64-cell pass stays under 3200 allocations (2.9k when
# this was written; 3.5k with a snapshot of every just-built platform
# and probe network; 12.7k with a platform and two legs per cell, 23.4k
# with NI queues grown on first use, 24.7k with credit wires; it was
# 441912 with per-router construction, and a mesh built router by
# router again costs ~1200 objects per build, 150k per pass). The pool
# misses of the traced run count the platform builds: at most 16 (16
# when this was written, 64 with one pool shape per cell).
#
# mesh_saturation: the NI holds packets in pooled envelopes, a packet
# waiting for a VC is a link in its vnet's envelope chain (no queue
# array), a pool with nothing left allocates an eighth of what it has
# made (never fewer than 32), and a flit is minted the cycle it leaves,
# so one pass of the load-latency curve — ~22k packets backed up in the
# source queues at the saturated point, 47 envelope chunks — stays under
# 375 allocations and 3.5 MB (287 and 2.69 MB when this was written; 1.45k
# and 2.92 MB with fixed 32-envelope chunks and per-vnet rings, 26.7k
# with one heap object per queued packet). The grep below keeps the
# per-packet forms from coming back.
#
# cmp_sparse_traffic, corun_interference: every cache and DRAM event is a
# typed call on a controller (an L1 miss parks a waiter record, a DRAM
# read and a hit completion a slab record), so one sparse pass (16 cores,
# ~31k misses, ~114k packets) stays under 25000 allocations (18.4k when
# this was written; 105.7k with a closure per cache event, 168.8k with
# one per miss as well) and one co-run pass under 10000 (6.8k; 52.9k).
# The grep below keeps the closure forms from coming back.
#
# sim.evals_per_cycle on cmp_sparse_traffic (traced run): on the sparse
# CMP workload an awake cycle costs the components that have work. The
# cores of an engine are one component, most routers and NIs sleep and a
# returned credit wakes nobody, so the run stays at or under 8.5
# component evaluations per simulated cycle (7.9 when this was written;
# 9.7 with credits as wire messages, 24.7 with one component per core).
#
# sim.evals_per_cycle on kernels_zero_load and corun_interference (traced
# runs): the RCUs of an engine are one component that steps those holding
# work, so a zero-load kernel run stays at or under 8 evaluations per
# cycle (6.4 when this was written; 21.4 with one component per RCU) and
# the co-run at or under 12 (11.3; 12.9 with credit wires; 20.5).
#
# alloc_mb_per_pass on kernels_zero_load and dse_fork_sweep: a compiled
# kernel is four pointer-free arrays sized once (a 4-byte entry per
# command, a 16-byte op per instruction, a 20-byte block per sub-block)
# and a flit is one 64-byte line, so a kernels pass stays under 16 MB
# (12.7 when this was written; 24.8 with a 56-byte token per
# instruction; 36.7 with 80-byte tokens in chunked slabs behind 16-byte
# pointer-pair entries) and a DSE pass under 11.5 MB (10.4 when this
# bound was set, with just-built simulations reset in place; 13.2 with
# a snapshot of each; 13.5 with the zero-load probe's network holding
# only the request vnet; 17.4 with all three vnets and the compute
# ports; 33.8 before
# legs were shared across channel widths; 61.7 with two legs per cell,
# 67.3 with 80-byte tokens). The grep below keeps the slab and the token pointers out of
# the compiled program.
#
# bench_bound <workload> <trace: 0 end to end, 1 per layer> <metric> <max>
bench_bound() {
    bb_line=$(go run ./benchmark -workload "$1" -trace "$2" -seconds 5 -out "$ci_tmp/bench" 2>/dev/null | tail -n 1)
    rm -rf "$ci_tmp/bench"
    case "$bb_line" in
    *'"correct":true'*) ;;
    *)
        echo "ERROR: $1 did not report correct results: $bb_line" >&2
        exit 1
        ;;
    esac
    bb_v=$(printf '%s\n' "$bb_line" | sed -n "s/.*\"$3\":{\"value\":\([0-9.]*\).*/\1/p")
    if [ -z "$bb_v" ] || awk "BEGIN{exit !($bb_v > $4)}"; then
        echo "ERROR: $1 $3 is '$bb_v', bound $4" >&2
        exit 1
    fi
    echo "benchmark bound: $1 $3 $bb_v <= $4"
}
echo "== exact benchmark counts (allocs_per_pass: kernels_zero_load <= 12800, dse_fork_sweep <= 3200, cmp_sparse_traffic <= 7300, corun_interference <= 1265, mesh_saturation <= 375; alloc_mb_per_pass: kernels_zero_load <= 16, dse_fork_sweep <= 11.5, mesh_saturation <= 3.5, cmp_sparse_traffic <= 4.2, corun_interference <= 2.6; sim.evals_per_cycle: cmp_sparse_traffic <= 8.5, kernels_zero_load <= 8, corun_interference <= 12; checkpoint.pool_misses: dse_fork_sweep <= 16; no closure events in cache or mem; no per-packet objects in noc; no pointer-graph cloning in core, cache or checkpoint; no slab or token pointers in a compiled program; no attribution pointers or per-component probe setters) =="
if grep -n '\.Schedule(\|\.ScheduleAfter(' $(ls internal/cache/*.go internal/mem/*.go | grep -v _test.go); then
    echo "ERROR: internal/cache and internal/mem file typed events (ScheduleCall), not closures" >&2
    exit 1
fi
if grep -n '&Packet{\|&envelope{\|&txn{\|flitize(' $(ls internal/noc/*.go | grep -v _test.go); then
    echo "ERROR: internal/noc holds packets in pooled envelopes and value txns and mints flits at send" >&2
    exit 1
fi
# Outside the network every token and cache message has one holder that
# keeps it by value or by slab index, so a checkpoint copies slabs: no
# identity map, no token cloner, no per-message deep copy.
if grep -n 'TokenCloner\|copyMsg\|map\[any\]any' $(ls internal/core/*.go internal/cache/*.go internal/checkpoint/*.go | grep -v _test.go); then
    echo "ERROR: internal/core, internal/cache and internal/checkpoint checkpoint by slab copy, not by cloning pointer graphs" >&2
    exit 1
fi
if grep -n 'slab\[\|\*InstrToken\|\*DataToken' $(ls internal/compiler/*.go | grep -v _test.go) internal/core/program.go; then
    echo "ERROR: a compiled program holds its records by value in four flat arrays, not in slabs behind pointers" >&2
    exit 1
fi
# Attribution counts are component state that a recorder only reads, and
# the aggregates (Network, Platform, System, Engine) are the only probe
# fan-out: no counter pointers, no per-layer counter snapshots, no nil
# guards around counting, and no per-component probe setters.
attrib_src=$(ls internal/noc/*.go internal/core/*.go internal/cache/*.go internal/sim/*.go | grep -v _test.go)
if grep -n '\*attrib\.Counters\|CountersState\|\.at != nil' $attrib_src ||
    grep -nE 'func \([a-z]+ \*(Router|NI|RCU|CPM|L1)\) Set(Tracer|Attrib)\(' $attrib_src; then
    echo "ERROR: components count attribution in their own state; only Network, Platform, System and Engine attach probes" >&2
    exit 1
fi
bench_bound kernels_zero_load 0 allocs_per_pass 12800
bench_bound dse_fork_sweep 0 allocs_per_pass 3200
bench_bound mesh_saturation 0 allocs_per_pass 375
# The CMP legs' controllers, tag stores, waiters, pending requests,
# directory, slot arrays and sampled series live in a few system- and
# network-wide slabs, and the engine's events in one event slab: a
# per-node, per-slot or per-series allocation comes back as hundreds or
# thousands of objects, and a slab that trades the count for bytes trips
# the MB bounds. A tag store's set directory gives a set lines only at
# its first fill, and an L2 bank's line window is seeded at 64 sets, so
# a CMP pass stays under 4.2 MB and a co-run pass under 2.6 (3.40 and
# 2.08 when these bounds were set; 7.31 and 3.97 with every way of every
# set zeroed at build).
bench_bound cmp_sparse_traffic 0 allocs_per_pass 7300
bench_bound corun_interference 0 allocs_per_pass 1265
bench_bound kernels_zero_load 0 alloc_mb_per_pass 16
bench_bound dse_fork_sweep 0 alloc_mb_per_pass 11.5
bench_bound mesh_saturation 0 alloc_mb_per_pass 3.5
bench_bound cmp_sparse_traffic 0 alloc_mb_per_pass 4.2
bench_bound corun_interference 0 alloc_mb_per_pass 2.6
bench_bound cmp_sparse_traffic 1 sim.evals_per_cycle 8.5
bench_bound kernels_zero_load 1 sim.evals_per_cycle 8
bench_bound corun_interference 1 sim.evals_per_cycle 12
bench_bound dse_fork_sweep 1 checkpoint.pool_misses 16

echo "tier-1: OK"
