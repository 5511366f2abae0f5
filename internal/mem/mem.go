// Package mem models the main-memory side of the platform: a DDR3-style
// memory controller with ranks, banks, open-row policy, and a shared data
// bus. The model is transaction-level (each access is scheduled as an
// event chain rather than simulated per DRAM cycle), which preserves the
// queueing, bank-parallelism and row-locality behaviour the paper's CPM
// sizing argument depends on (§III-C1) at a fraction of the cost.
//
// The CPM and the cache substrate's memory nodes both call into this
// model: the CPM for command-buffer streaming and token overflow
// (§III-C2), the caches for L2 miss fills and writebacks.
package mem

import (
	"fmt"

	"snacknoc/internal/flat"
	"snacknoc/internal/sim"
	"snacknoc/internal/stats"
)

// Config describes one memory channel. Latencies are in simulation cycles
// (1 GHz NoC clock; see DESIGN.md substitution notes).
type Config struct {
	Ranks        int
	BanksPerRank int
	// RowBytes is the row-buffer size per bank; accesses within an open
	// row pay RowHitLat, others RowMissLat.
	RowBytes   int
	RowHitLat  int64
	RowMissLat int64
	// BusLat is the data-bus occupancy per 64 B transfer.
	BusLat int64
	// TransactionBytes is the DDR3 burst size (64 B in the paper).
	TransactionBytes int
}

// DefaultConfig returns a two-rank DDR3-like channel, the configuration
// the paper sizes the CPM instruction buffer against.
func DefaultConfig() Config {
	return Config{
		Ranks:            2,
		BanksPerRank:     8,
		RowBytes:         2048,
		RowHitLat:        15,
		RowMissLat:       45,
		BusLat:           4,
		TransactionBytes: 64,
	}
}

func (c Config) validate() error {
	if c.Ranks < 1 || c.BanksPerRank < 1 {
		return fmt.Errorf("mem: need >=1 rank and bank, got %d/%d", c.Ranks, c.BanksPerRank)
	}
	if c.RowBytes < c.TransactionBytes || c.TransactionBytes <= 0 {
		return fmt.Errorf("mem: row %dB must hold a %dB transaction", c.RowBytes, c.TransactionBytes)
	}
	if c.RowHitLat <= 0 || c.RowMissLat < c.RowHitLat || c.BusLat <= 0 {
		return fmt.Errorf("mem: bad latencies hit=%d miss=%d bus=%d", c.RowHitLat, c.RowMissLat, c.BusLat)
	}
	return nil
}

type bank struct {
	freeAt  int64
	openRow uint64
	hasRow  bool
}

// Controller is one memory channel shared by a node's cache traffic and,
// when the node hosts the CPM, SnackNoC command/overflow streams.
type Controller struct {
	cfg Config
	eng *sim.Engine
	ControllerState
}

// ControllerState is a controller's mutable state: the bank and bus
// timing and the statistics. Pending access completions are engine
// events (the ScheduleCall in AccessCall), which the engine's snapshot
// carries.
type ControllerState struct {
	banks     []bank
	busFreeAt int64

	accesses stats.Counter
	rowHits  stats.Counter
	latSum   int64
}

// New creates a controller bound to the engine's clock.
func New(eng *sim.Engine, cfg Config) (*Controller, error) {
	cs, err := NewSlab(eng, cfg, 1)
	if err != nil {
		return nil, err
	}
	return &cs[0], nil
}

// NewSlab creates n controllers of one configuration as one value slab,
// their banks full-capacity windows of one bank slab, so a system's
// memory nodes cost two allocations rather than two each.
func NewSlab(eng *sim.Engine, cfg Config, n int) ([]Controller, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	nb := cfg.Ranks * cfg.BanksPerRank
	banks, cs := make([]bank, n*nb), make([]Controller, n)
	for i := range cs {
		cs[i] = Controller{cfg: cfg, eng: eng, ControllerState: ControllerState{banks: flat.Carve(&banks, nb)}}
	}
	return cs, nil
}

// Reset returns the controller to its built state: every bank free with
// no open row, the bus free and the statistics zeroed. Completions still
// pending are engine events, which the engine's Reset drops.
func (c *Controller) Reset() {
	clear(c.banks)
	c.ControllerState = ControllerState{banks: c.banks}
}

// bankOf maps an address to its bank with row-granularity interleaving:
// consecutive transactions stream within one open row, and consecutive
// rows rotate across the ranks and banks, the layout that lets sequential
// kernel data stream from both ranks at the paper's peak buffered rate
// (§III-C1).
func (c *Controller) bankOf(addr uint64) int {
	return int(addr/uint64(c.cfg.RowBytes)) % len(c.banks)
}

func (c *Controller) rowOf(addr uint64) uint64 {
	return addr / (uint64(c.cfg.RowBytes) * uint64(len(c.banks)))
}

// Access books one memory transaction nobody waits for (a posted
// writeback) and returns the cycle its data transfer ends.
func (c *Controller) Access(addr uint64, write bool) int64 {
	doneAt, _ := c.issue(addr, write)
	return doneAt
}

// AccessCall books one memory transaction whose requester hears back:
// callee.OnCall(arg, at) runs at the completion cycle at, which is
// returned — after the bus transfer for a read, on acceptance by the
// bank for a posted write. No closure is built, so the requester pays no
// allocation per transaction and a checkpoint carries the pending
// completion by value.
func (c *Controller) AccessCall(addr uint64, write bool, callee sim.Callee, arg int64) int64 {
	_, at := c.issue(addr, write)
	c.eng.ScheduleCall(at, callee, arg)
	return at
}

// issue books one transaction against its bank and the data bus. It
// returns the cycle the data transfer ends and the cycle the requester
// hears back: the same for a read, acceptance by the bank for a posted
// write.
func (c *Controller) issue(addr uint64, write bool) (doneAt, ackAt int64) {
	now := c.eng.Cycle()
	b := &c.banks[c.bankOf(addr)]
	row := c.rowOf(addr)

	start := now + 1
	if b.freeAt > start {
		start = b.freeAt
	}
	lat := c.cfg.RowMissLat
	hit := b.hasRow && b.openRow == row
	if hit {
		lat = c.cfg.RowHitLat
		c.rowHits.Inc()
	}
	b.openRow, b.hasRow = row, true

	busStart := start + lat
	if c.busFreeAt > busStart {
		busStart = c.busFreeAt
	}
	doneAt = busStart + c.cfg.BusLat
	// Bank occupancy: an open row streams back-to-back column accesses
	// at burst rate; only activates/precharges tie the bank up for the
	// full access time. (Without this, sequential command-stream reads
	// serialize far below the CPM's 1-instruction-per-cycle issue rate.)
	if hit {
		b.freeAt = start + c.cfg.BusLat
	} else {
		b.freeAt = start + lat
	}
	c.busFreeAt = doneAt

	c.accesses.Inc()
	c.latSum += doneAt - now
	if write {
		return doneAt, start + 1 // posted write: ack on acceptance
	}
	return doneAt, doneAt
}

// Cfg returns the controller configuration.
func (c *Controller) Cfg() Config { return c.cfg }
