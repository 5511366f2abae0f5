// Package attrib is the cycle-attribution layer: every hot component
// classifies each simulated cycle into a small fixed stall/activity
// taxonomy. The counts are plain component state (DESIGN.md §13): each
// component keeps a Counts value beside its other statistics and counts
// into it on every cycle, attributed or not, so a checkpoint carries the
// counts with the rest of the component's scalars. A Recorder is only a
// read-side view: Attach zeroes a component's counts and reads them from
// then on, as a stats.Registry reads counters it did not create.
//
// The taxonomy is exhaustive for the per-cycle components (router, NI,
// RCU, CPM): exactly one reason is counted per evaluated cycle, and
// quiescence catch-up replays the idle reason for slept cycles, so per
// component the reason counts sum to the total simulated cycles. Cache
// and engine counters are event-driven occupancy/volume measures, not
// per-cycle classifications (see the Kind constants).
package attrib

import (
	"fmt"
	"sort"

	"snacknoc/internal/stats"
)

// Kind is the class of instrumented component a Counts belongs to.
type Kind uint8

// Component kinds. Router, NI, RCU and CPM are per-cycle exhaustive:
// their reasons sum to total simulated cycles. Cache counters are
// event-driven (the L1 MSHR file is an unbounded slab, so there is no
// "MSHR full" stall to count; instead the layer records allocation
// volume, an occupancy-weighted miss-outstanding integral, and the
// high-water mark). Engine counters are per-step component-evaluation
// volume, a deterministic load proxy.
const (
	KindRouter Kind = iota
	KindNI
	KindRCU
	KindCPM
	KindCache
	KindEngine
	NumKinds
)

var kindNames = [NumKinds]string{"router", "ni", "rcu", "cpm", "cache", "engine"}

// String names the kind.
func (k Kind) String() string { return kindNames[k] }

// Reason is one cell of the stall/activity taxonomy.
type Reason uint8

// The taxonomy. Reasons are grouped by kind; kindReasons maps each kind
// to its contiguous slice.
const (
	// Router: one reason per evaluated cycle.
	RouterActive      Reason = iota // the crossbar moved at least one flit
	RouterVCStall                   // buffered flits waiting on VC allocation
	RouterCreditStall               // buffered flits held by credits/pipeline, no VC wait
	RouterEmpty                     // no buffered flits

	// NI: one reason per evaluated cycle.
	NIActive       // a flit was staged toward the router
	NIBackpressure // queued transactions or waiting packets, nothing staged
	NIIdle         // no injection work

	// RCU: one reason per evaluated cycle.
	RCUExec               // the ALU is occupied
	RCUOperandWait        // buffered instructions, none ready to dispatch
	RCUOutputBackpressure // only results waiting on the injection port
	RCUIdle               // no work at all

	// CPM: one reason per evaluated cycle.
	CPMIssue     // an entry was staged for issue this cycle
	CPMThrottled // issue held: ALO congestion, no port credit, or staged entry waiting
	CPMDrained   // instruction buffer empty, waiting on fetch or results
	CPMIdle      // no kernel loaded

	// Cache (event-driven, not per-cycle).
	CacheMSHRAlloc  // MSHR allocations (miss volume)
	CacheMissCycles // occupancy-weighted integral of outstanding misses
	CacheMSHRPeak   // high-water mark of outstanding misses

	// Engine (per-step volume, not per-cycle).
	EngineEvals // component evaluations performed by this engine

	NumReasons
)

var reasonNames = [NumReasons]string{
	"router.active", "router.vc-stall", "router.credit-stall", "router.empty",
	"ni.active", "ni.backpressure", "ni.idle",
	"rcu.exec", "rcu.operand-wait", "rcu.output-backpressure", "rcu.idle",
	"cpm.issue", "cpm.throttled", "cpm.drained", "cpm.idle",
	"cache.mshr-allocs", "cache.miss-cycles", "cache.mshr-peak",
	"engine.evals",
}

// String names the reason, prefixed with its layer ("router.active").
func (r Reason) String() string { return reasonNames[r] }

// reasonByName inverts reasonNames for the report folder.
var reasonByName = func() map[string]Reason {
	m := make(map[string]Reason, NumReasons)
	for r := Reason(0); r < NumReasons; r++ {
		m[reasonNames[r]] = r
	}
	return m
}()

// kindReasons maps each kind to its reasons, in taxonomy order.
var kindReasons = [NumKinds][]Reason{
	KindRouter: {RouterActive, RouterVCStall, RouterCreditStall, RouterEmpty},
	KindNI:     {NIActive, NIBackpressure, NIIdle},
	KindRCU:    {RCUExec, RCUOperandWait, RCUOutputBackpressure, RCUIdle},
	KindCPM:    {CPMIssue, CPMThrottled, CPMDrained, CPMIdle},
	KindCache:  {CacheMSHRAlloc, CacheMissCycles, CacheMSHRPeak},
	KindEngine: {EngineEvals},
}

// KindOf returns the layer a reason belongs to.
func KindOf(r Reason) Kind {
	switch {
	case r <= RouterEmpty:
		return KindRouter
	case r <= NIIdle:
		return KindNI
	case r <= RCUIdle:
		return KindRCU
	case r <= CPMIdle:
		return KindCPM
	case r <= CacheMSHRPeak:
		return KindCache
	default:
		return KindEngine
	}
}

// perCycle reports whether a kind's reasons are an exhaustive per-cycle
// classification (sum equals total simulated cycles).
func perCycle(k Kind) bool { return k <= KindCPM }

// Counts is one component's reason counters: slot i holds the i-th
// reason of its kind in taxonomy order, and no kind has more than four.
// Components hold it by value and count into it unconditionally.
type Counts [4]int64

// slotOf maps every reason to its slot in its kind's Counts.
var slotOf = func() (s [NumReasons]uint8) {
	for _, rs := range kindReasons {
		for i, r := range rs {
			s[r] = uint8(i)
		}
	}
	return s
}()

// Inc counts one cycle (or event) under r.
func (c *Counts) Inc(r Reason) { c[slotOf[r]]++ }

// Add counts d cycles under r (quiescence catch-up replay).
func (c *Counts) Add(r Reason, d int64) { c[slotOf[r]] += d }

// Max raises r to v if v is larger (high-water counters).
func (c *Counts) Max(r Reason, v int64) {
	if v > c[slotOf[r]] {
		c[slotOf[r]] = v
	}
}

// Counters is a recorder's view of one attached component: its kind,
// its label and the counts it owns.
type Counters struct {
	kind  Kind
	label string
	n     *Counts
}

// Recorder reads the Counts of one run (or one sweep/DSE cell). It is
// attached at platform build time, and the run's one engine writes and
// reads every Counts on one goroutine, so the recorder needs no locks.
type Recorder struct {
	comps   []Counters
	sampler *Sampler
}

// NewRecorder starts an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Attach zeroes a component's counts and reads them from then on, in
// attach order. A nil recorder attaches nothing and leaves the counts
// alone, so aggregate SetAttrib walks pass their recorder through
// unconditionally.
func (rec *Recorder) Attach(kind Kind, label string, n *Counts) {
	if rec == nil {
		return
	}
	*n = Counts{}
	rec.comps = append(rec.comps, Counters{kind: kind, label: label, n: n})
}

// FoldInto accumulates the flattened counters into m, summing with any
// values already present (the DSE driver folds several kernel legs of
// one cell into a single verdict this way).
func (rec *Recorder) FoldInto(m map[string]float64) {
	if rec == nil {
		return
	}
	for _, c := range rec.comps {
		for i, r := range kindReasons[c.kind] {
			m[c.label+".attrib."+reasonNames[r]] += float64(c.n[i])
		}
	}
}

// RegisterMetrics names every counter in reg as
// "<label>.attrib.<layer>.<reason>" gauges, plus the interval series
// when sampling ran, so attribution travels inside ordinary metrics
// snapshots (and snackscope can rebuild a report from the JSON).
func (rec *Recorder) RegisterMetrics(reg *stats.Registry) {
	if rec == nil {
		return
	}
	for _, c := range rec.comps {
		for i, r := range kindReasons[c.kind] {
			reg.AddGauge(c.label+".attrib."+reasonNames[r],
				func() float64 { return float64(c.n[i]) })
		}
	}
	if rec.sampler != nil {
		for _, r := range rec.sampler.reasons {
			reg.AddSeries("attrib.series."+reasonNames[r], &rec.sampler.samples, int(r))
		}
	}
}

// sortedKeys is a small helper for deterministic map walks.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// checkTotals verifies the per-cycle invariant for one folded run: every
// router/NI/RCU/CPM component's reasons sum to the same total (the run's
// simulated cycle count). Tests use it; cycles<=0 skips the cross-check
// against an expected value.
func CheckTotals(values map[string]float64, cycles int64) error {
	sums := make(map[string]float64)
	kinds := make(map[string]Kind)
	for k, v := range values {
		label, r, ok := splitKey(k)
		if !ok || !perCycle(KindOf(r)) {
			continue
		}
		sums[label] += v
		kinds[label] = KindOf(r)
	}
	for _, label := range sortedKeys(sums) {
		if cycles > 0 && int64(sums[label]) != cycles {
			return fmt.Errorf("attrib: %s (%s) reasons sum to %.0f, want %d cycles",
				label, kinds[label], sums[label], cycles)
		}
	}
	return nil
}

// splitKey parses "<label>.attrib.<layer>.<reason>".
func splitKey(key string) (label string, r Reason, ok bool) {
	const sep = ".attrib."
	for i := 0; i+len(sep) <= len(key); i++ {
		if key[i:i+len(sep)] == sep {
			r, ok = reasonByName[key[i+len(sep):]]
			return key[:i], r, ok
		}
	}
	return "", 0, false
}
