package noc

// ALODetector implements the low-cost congestion estimator the CPM uses
// (§III-C2): a variant of the ALO ("at least one") technique of Baydal,
// Lopez and Duato, which tracks the number of useful free virtual output
// channels at the NoC edge of the memory-controller node. Its two
// constructors point it at the communication vnets (when to stop
// enqueuing snack traffic) or at the snack vnet's loop output (when to
// spill transient tokens).
type ALODetector struct {
	router    *Router
	loop      bool // counts snack VCs on the loop output, not comm VCs
	threshold int
	// assertAfter is the number of consecutive starved cycles before the
	// detector reports congestion; 0 asserts at once.
	assertAfter int64
	// hysteresis keeps the detector asserted for a few cycles after the
	// free-VC count recovers, preventing rapid toggling at the boundary.
	hysteresis int64
	lastBusy   int64
	// streak distinguishes a wedged ring (VCs starved for many
	// consecutive cycles) from ordinary instruction streaming (brief
	// dips while flits transit).
	streak     int64
	lastSample int64
}

// snackAssertAfter is the loop detector's assertAfter.
const snackAssertAfter = 16

// NewALODetector monitors the given router. The network is considered
// congested while fewer than threshold useful virtual output channels are
// free on the router's communication vnets.
func NewALODetector(r *Router, threshold int, hysteresis int64) ALODetector {
	return ALODetector{router: r, threshold: threshold, hysteresis: hysteresis}
}

// NewLoopALODetector monitors free snack-vnet VCs on the router's loop
// output, the direction a saturated ring wedges first (§III-C2 — "the
// threshold for NoC resources–virtual channels and their respective input
// flit buffers"). It asserts only once they have been starved for
// snackAssertAfter consecutive cycles.
func NewLoopALODetector(r *Router, threshold int, hysteresis int64) ALODetector {
	return ALODetector{router: r, loop: true, threshold: threshold, assertAfter: snackAssertAfter, hysteresis: hysteresis}
}

// Congested reports the detector state at the given cycle: starved for
// a sustained stretch, with hysteresis once asserted.
func (d *ALODetector) Congested(cycle int64) bool {
	var starved bool
	if d.loop {
		starved = d.router.freeLoopVCs() < d.threshold
	} else {
		starved = !d.router.freeOutputVCsAtLeast(d.threshold)
	}
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
	if starved && d.streak >= d.assertAfter {
		d.lastBusy = cycle
		return true
	}
	return cycle-d.lastBusy < d.hysteresis && d.lastBusy > 0
}
