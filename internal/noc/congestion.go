package noc

// ALODetector implements the low-cost congestion estimator the CPM uses
// to decide when to stop enqueuing snack traffic (§III-C2): a variant of
// the ALO ("at least one") technique of Baydal, Lopez and Duato, which
// tracks the number of useful free virtual output channels at the NoC
// edge of the memory-controller node.
type ALODetector struct {
	router    *Router
	threshold int
	// hysteresis keeps the detector asserted for a few cycles after the
	// free-VC count recovers, preventing rapid toggling at the boundary.
	hysteresis int64
	lastBusy   int64
}

// NewALODetector monitors the given router. The network is considered
// congested while fewer than threshold useful virtual output channels are
// free on the router's communication vnets.
func NewALODetector(r *Router, threshold int, hysteresis int64) *ALODetector {
	return &ALODetector{router: r, threshold: threshold, hysteresis: hysteresis}
}

// Congested reports the detector state at the given cycle.
func (d *ALODetector) Congested(cycle int64) bool {
	if !d.router.freeOutputVCsAtLeast(d.threshold) {
		d.lastBusy = cycle
		return true
	}
	return cycle-d.lastBusy < d.hysteresis && d.lastBusy > 0
}

// SnackALODetector is the same ALO estimator pointed at the snack
// virtual network: the CPM's overflow management watches the output port
// that carries the transient-token loop out of its node, because that is
// the direction a saturated ring wedges first (§III-C2 — "the threshold
// for NoC resources–virtual channels and their respective input flit
// buffers").
type SnackALODetector struct {
	router     *Router
	loopNext   NodeID
	threshold  int
	hysteresis int64
	lastBusy   int64
	// streak distinguishes a wedged ring (VCs starved for many
	// consecutive cycles) from ordinary instruction streaming (brief
	// dips while flits transit).
	streak     int64
	lastSample int64
}

// assertAfter is the number of consecutive starved cycles before the
// detector reports congestion.
const snackAssertAfter = 16

// NewSnackALODetector monitors free snack-vnet VCs on the router's
// output toward the loop's next node.
func NewSnackALODetector(r *Router, loopNext NodeID, threshold int, hysteresis int64) *SnackALODetector {
	return &SnackALODetector{router: r, loopNext: loopNext, threshold: threshold, hysteresis: hysteresis}
}

// Congested reports whether the snack vnet is saturated at this router:
// the loop-bound output has been starved of free VCs for a sustained
// stretch (a wedged ring), with hysteresis once asserted.
func (d *SnackALODetector) Congested(cycle int64) bool {
	starved := d.router.FreeSnackVCsToward(d.loopNext) < d.threshold
	switch {
	case starved && cycle == d.lastSample:
		// Additional query in the same cycle: streak unchanged.
	case starved && cycle == d.lastSample+1:
		d.streak++
	case starved:
		d.streak = 1
	default:
		d.streak = 0
	}
	d.lastSample = cycle
	if starved && d.streak >= snackAssertAfter {
		d.lastBusy = cycle
		return true
	}
	return cycle-d.lastBusy < d.hysteresis && d.lastBusy > 0
}
