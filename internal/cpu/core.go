// Package cpu provides the two processor models the paper's evaluation
// needs: trace-style CMP cores that execute the Table III benchmark
// profiles against the simulated cache hierarchy and NoC (Figs 1, 2, 12,
// 13), and a multicore kernel-execution model standing in for the Intel
// Haswell EP server the paper measures the linear-algebra kernels on
// (Fig 9).
package cpu

import (
	"math"

	"snacknoc/internal/cache"
	"snacknoc/internal/flat"
	"snacknoc/internal/sim"
	"snacknoc/internal/traffic"
)

// IssuePerCycle is how many instructions a core can retire per NoC
// cycle. Cores run at 2 GHz against the 1 GHz uncore (Table IV), so two
// core slots fit in each simulated cycle.
const IssuePerCycle = 2

// Core is one in-order CMP core executing a benchmark profile: it
// interleaves compute slots with memory accesses drawn from the
// profile's reference stream, stalls on dependent misses and MSHR
// pressure, and idles across synchronization points. The engine does not
// see cores one by one: a coreGroup steps those that can issue.
type Core struct {
	id     int
	prof   *traffic.Profile
	l1     *cache.L1
	ncores int

	// g steps this core; slot is its index in g.cores.
	g    *coreGroup
	slot int

	coreScalars
}

// coreScalars is a core's mutable state, its reference stream included;
// a checkpoint copies it whole.
type coreScalars struct {
	stream traffic.Stream

	retired     int64
	outstanding int
	blocked     bool
	idleUntil   int64
	sinceStall  int

	finished    bool
	finishCycle int64
	stallAt     int // jittered threshold for the next synchronization stall

	// stallCycles counts the cycles spent blocked or idle in stalls that
	// have ended; a stall still open began at cycle stallFrom (see
	// StallCycles).
	stallCycles int64
	stallFrom   int64
}

// Finished reports whether the core has retired its budget.
func (c *Core) Finished() bool { return c.finished }

// FinishCycle returns the cycle the core retired its last instruction.
func (c *Core) FinishCycle() int64 { return c.finishCycle }

// Retired returns the instructions retired so far.
func (c *Core) Retired() int64 { return c.retired }

// StallCycles returns cycles the core spent unable to issue: one for
// every turn it had while blocked on a miss or inside a synchronization
// stall, the open stall's turns so far included.
func (c *Core) StallCycles() int64 {
	if c.finished || c.g.runnable.Has(c.slot) {
		return c.stallCycles
	}
	return c.stallCycles + c.g.nextTurn(c.slot) - c.stallFrom
}

// issue is one turn of a runnable core: it retires up to IssuePerCycle
// instructions and leaves the runnable set when it blocks, starts a
// synchronization stall or finishes.
func (c *Core) issue(cycle int64) {
	ph := c.prof.PhaseAt(float64(c.retired) / float64(c.prof.Instrs))
	rng := c.stream.RNG()
	for slot := 0; slot < IssuePerCycle; slot++ {
		if ph.StallEvery > 0 && c.sinceStall >= c.nextStall(ph, rng) {
			c.sinceStall = 0
			c.stallAt = 0
			c.idleUntil = cycle + int64(ph.StallCycles)
			if c.idleUntil > cycle+1 {
				c.g.park(c, cycle)
				c.g.idle.Add(c.slot)
				c.g.idleWake = min(c.g.idleWake, c.idleUntil)
			}
			return
		}
		c.retire(cycle)
		if c.finished {
			c.g.park(c, cycle)
			c.g.finished++
			return
		}
		c.sinceStall++
		if !rng.Bool(ph.MemFrac) {
			continue // pure compute slot
		}
		block, write := c.stream.Next(ph, c.ncores)
		if c.l1.AccessFast(block, write, c) {
			continue
		}
		c.outstanding++
		if c.outstanding >= c.prof.MLP || rng.Bool(c.prof.BlockFrac) {
			c.blocked = true
			c.g.park(c, cycle)
			return
		}
	}
}

// nextStall returns the jittered instruction count before the next
// synchronization stall. Real barrier intervals vary with data; perfectly
// periodic stalls would phase-lock the cores into convoys and make
// runtimes chaotically sensitive to tiny timing shifts, drowning the
// sub-1% interference effects of Fig 12.
func (c *Core) nextStall(ph *traffic.Phase, rng *traffic.RNG) int {
	if c.stallAt == 0 {
		c.stallAt = ph.StallEvery*3/4 + rng.Intn(ph.StallEvery/2+1)
	}
	return c.stallAt
}

func (c *Core) retire(cycle int64) {
	c.retired++
	if c.retired >= c.prof.Instrs {
		c.finished = true
		c.finishCycle = cycle
	}
}

// MissDone implements cache.MissWaiter: it runs when one of the core's
// misses resolves — in the event phase or inside an NI's Evaluate — and
// lets a blocked core issue again from its next turn.
func (c *Core) MissDone(cycle int64) {
	c.outstanding--
	if c.blocked {
		c.blocked = false
		c.g.resume(c)
	}
}

// coreGroup steps every core of a workload as a single component, so a
// cycle costs the cores that can issue in it, not every core: a core
// that blocks, idles or finishes leaves the runnable set, MissDone and the
// end of its synchronization stall put it back, and the cycles in
// between are added to its stall count when the stall ends instead of
// one per cycle. Cores are stepped in id order, the order they had as
// separately registered components.
type coreGroup struct {
	cores []*Core
	// runnable has bit i set when cores[i] issues at its next turn; idle
	// when cores[i] is inside a synchronization stall, which ends at the
	// earliest at cycle idleWake (MaxInt64 when no core idles).
	runnable flat.IndexSet
	idle     flat.IndexSet
	idleWake int64
	finished int // cores that have retired their budget

	// turn is the cycle of the group's next (or, with cur >= 0, current)
	// Evaluate and cur the core being stepped in it, -1 outside Evaluate:
	// together they tell whether a core's turn in this cycle has passed.
	turn int64
	cur  int
}

// nextTurn returns the cycle of cores[i]'s next turn. A miss can resolve
// before the group's Evaluate in a cycle (the event phase, an NI) or
// after it (a component registered later): the core issues in that same
// cycle only in the first case.
func (g *coreGroup) nextTurn(i int) int64 {
	if i <= g.cur {
		return g.turn + 1
	}
	return g.turn
}

// park takes c, which is in its turn of the given cycle, out of the
// runnable set; a stall it begins counts from the next cycle.
func (g *coreGroup) park(c *Core, cycle int64) {
	g.runnable.Remove(c.slot)
	c.stallFrom = cycle + 1
}

// resume ends c's stall: the turns it missed are added to its stall
// count and it issues again from its next one.
func (g *coreGroup) resume(c *Core) {
	c.stallCycles += g.nextTurn(c.slot) - c.stallFrom
	g.runnable.Add(c.slot)
}

// Evaluate steps every runnable core once, in id order.
func (g *coreGroup) Evaluate(cycle int64) {
	g.turn = cycle
	if cycle >= g.idleWake {
		g.wakeIdle(cycle)
	}
	// Next reads the set again at every step: stepping one core may make
	// a later one runnable, and that core still has its turn this cycle.
	for i := g.runnable.Next(0); i >= 0; i = g.runnable.Next(i + 1) {
		g.cur = i
		g.cores[i].issue(cycle)
	}
	g.cur = -1
	g.turn = cycle + 1
}

// Advance implements sim.Component; cores commit state in Evaluate.
func (g *coreGroup) Advance(int64) {}

// wakeIdle resumes the cores whose synchronization stall has run out and
// finds the next one due.
func (g *coreGroup) wakeIdle(cycle int64) {
	g.idleWake = math.MaxInt64
	for i := g.idle.Next(0); i >= 0; i = g.idle.Next(i + 1) {
		c := g.cores[i]
		if c.idleUntil <= cycle {
			g.idle.Remove(i)
			g.resume(c)
		} else {
			g.idleWake = min(g.idleWake, c.idleUntil)
		}
	}
}

// Workload is a set of cores running one benchmark across the CMP.
type Workload struct {
	Profile *traffic.Profile
	Cores   []*Core

	group coreGroup // steps every core
}

// NewWorkload creates one core per node of the system, all running the
// given profile, stepped by one group registered on eng, the engine
// that drives the system. The cores are values in one slab, and the
// group's sets are carved from one more, every core starting runnable.
func NewWorkload(eng *sim.Engine, sys *cache.System, prof *traffic.Profile, seed uint64) (*Workload, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	n := len(sys.L1s)
	w := &Workload{Profile: prof, Cores: make([]*Core, n)}
	words := (n + 63) / 64
	sets := make([]uint64, 2*words)
	w.group = coreGroup{
		cores:    w.Cores,
		runnable: flat.Carve(&sets, words),
		idle:     sets,
		idleWake: math.MaxInt64,
		turn:     eng.Cycle(),
		cur:      -1,
	}
	cores := make([]Core, n)
	for i := range cores {
		c := &cores[i]
		*c = Core{
			id: i, prof: prof, l1: sys.L1s[i], ncores: n,
			g: &w.group, slot: i,
			coreScalars: coreScalars{stream: traffic.NewStream(prof, i, seed)},
		}
		w.Cores[i] = c
		w.group.runnable.Add(i)
	}
	eng.Register(&w.group)
	return w, nil
}

// Done reports whether every core has retired its budget.
func (w *Workload) Done() bool { return w.group.finished >= len(w.group.cores) }

// Runtime returns the benchmark runtime: the cycle the last core
// finished. It panics if the workload has not completed.
func (w *Workload) Runtime() int64 {
	var max int64
	for _, c := range w.Cores {
		if !c.Finished() {
			panic("cpu: Runtime on unfinished workload")
		}
		if c.FinishCycle() > max {
			max = c.FinishCycle()
		}
	}
	return max
}

// MeanFinish returns the mean per-core finish cycle. Interference
// studies use it instead of Runtime: the maximum is dominated by one
// core's final stall alignment, while the mean averages timing noise
// across all cores — necessary to resolve the paper's sub-1% impacts at
// reproduction scale.
func (w *Workload) MeanFinish() float64 {
	var sum int64
	for _, c := range w.Cores {
		if !c.Finished() {
			panic("cpu: MeanFinish on unfinished workload")
		}
		sum += c.FinishCycle()
	}
	return float64(sum) / float64(len(w.Cores))
}

// Run drives the engine until the workload completes or maxCycles pass,
// returning the runtime and whether it completed.
func Run(eng *sim.Engine, w *Workload, maxCycles int64) (int64, bool) {
	_, ok := eng.RunUntil(w.Done, maxCycles)
	if !ok {
		return eng.Cycle(), false
	}
	return w.Runtime(), true
}
