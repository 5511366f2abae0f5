// Package power models the area and power of the SnackNoC platform and
// its host uncore at the 45 nm node.
//
// The paper obtains these numbers from Synopsys Design Compiler synthesis
// of the RTL functional units (Table II), Orion 3.0 for the baseline NoC
// routers, and Cacti 7.0 for the caches. None of those tools are usable
// here, so this package encodes the paper's published per-unit synthesis
// results as model constants and pairs them with Cacti/Orion-style
// analytical models (linear in capacity with per-bank overheads) whose
// coefficients are calibrated to reproduce the paper's Fig 10 uncore
// breakdown. Scaling laws — totals at 16/32/64/128/147 RCUs, per-router
// overhead, uncore percentages — then follow from the models rather than
// from hard-coded totals.
package power

import "fmt"

// Cost is a power/area pair for one unit or subsystem.
type Cost struct {
	Name   string
	PowerW float64
	AreaMM float64 // mm²
}

// Add returns the component-wise sum with the given name.
func Add(name string, costs ...Cost) Cost {
	out := Cost{Name: name}
	for _, c := range costs {
		out.PowerW += c.PowerW
		out.AreaMM += c.AreaMM
	}
	return out
}

// String formats the cost in the paper's units.
func (c Cost) String() string {
	return fmt.Sprintf("%-38s %8.4f W %8.4f mm²", c.Name, c.PowerW, c.AreaMM)
}

// CPMUnits returns the Central Packet Manager's functional units
// (Table II, upper half).
func CPMUnits() []Cost {
	return []Cost{
		{"Assembly Logic and Buffers", 0.4e-3, 0.05},
		{"Kernel State", 0.8e-3, 0.002},
		{"Instruction Buffer", 53e-3, 0.53},
		{"Offload Data Memory Buffer", 4.7e-3, 0.047},
		{"Output Result FIFO", 4.7e-3, 0.047},
	}
}

// RCUUnits returns one Router Compute Unit's functional units
// (Table II, lower half).
func RCUUnits() []Cost {
	return []Cost{
		{"32-bit Parallel Adder", 0.5e-3, 0.002},
		{"32-bit Parallel Subtractor", 0.5e-3, 0.002},
		{"32-bit Multiply and Accumulate (MAC)", 0.9e-3, 0.003},
		{"Ordered Instruction Buffer", 0.9e-3, 0.004},
		{"Dependency Buffer", 1.1e-3, 0.002},
		{"Accumulator Buffer", 0.3e-3, 0.0002},
		{"Sub Block List", 0.1e-3, 0.003},
	}
}

// CPMTotal returns the whole CPM.
func CPMTotal() Cost { return Add("Central Packet Manager", CPMUnits()...) }

// RCUTotal returns one whole RCU.
func RCUTotal() Cost { return Add("Router Compute Unit", RCUUnits()...) }

// SnackNoCTotal returns the platform cost at the given RCU count: one CPM
// plus nRCU compute units (the Table II scaling rows at 16/32/64/128/147).
func SnackNoCTotal(nRCU int) Cost {
	cpm := CPMTotal()
	rcu := RCUTotal()
	return Cost{
		Name:   fmt.Sprintf("Total CPM + %d RCU", nRCU),
		PowerW: cpm.PowerW + float64(nRCU)*rcu.PowerW,
		AreaMM: cpm.AreaMM + float64(nRCU)*rcu.AreaMM,
	}
}

// Cacti-style cache coefficients at 45 nm, calibrated against the
// paper's Fig 10 uncore proportions (cell arrays plus tag/periphery
// overhead that is relatively larger for small caches).
const (
	sramAreaPerMB  = 15.6  // mm² per MB of data array
	sramPowerPerMB = 1.45  // W per MB (leakage + activity at 1 GHz)
	cacheBankArea  = 0.30  // mm² fixed periphery per bank
	cacheBankPower = 0.045 // W fixed per bank
)

// CacheCost models a banked SRAM cache (Cacti-7-style linear model).
func CacheCost(name string, totalBytes, banks int) Cost {
	mb := float64(totalBytes) / (1 << 20)
	return Cost{
		Name:   name,
		PowerW: mb*sramPowerPerMB + float64(banks)*cacheBankPower,
		AreaMM: mb*sramAreaPerMB + float64(banks)*cacheBankArea,
	}
}

// Orion-style router coefficients at 45 nm, 1 GHz.
const (
	bufAreaPerByte  = 28e-6  // mm² per byte of VC buffering
	bufPowerPerByte = 4.2e-6 // W per byte
	xbarAreaCoeff   = 5.2e-5 // mm² per port² per byte of channel width
	xbarPowerCoeff  = 1.1e-5 // W per port² per byte
	allocArea       = 0.004  // mm² per router (VC+switch allocators)
	allocPower      = 0.0018 // W per router
)

// RouterParams characterize one baseline router for the Orion-style
// model.
type RouterParams struct {
	Ports        int // 5 for a mesh router with its local port
	VCs          int // total VCs per input port (all vnets)
	BufDepth     int // flits per VC
	ChannelBytes int
}

// RouterCost models one baseline NoC router.
func RouterCost(p RouterParams) Cost {
	bufBytes := float64(p.Ports * p.VCs * p.BufDepth * p.ChannelBytes)
	pp := float64(p.Ports * p.Ports)
	return Cost{
		Name:   "NoC Router",
		PowerW: bufBytes*bufPowerPerByte + pp*float64(p.ChannelBytes)*xbarPowerCoeff + allocPower,
		AreaMM: bufBytes*bufAreaPerByte + pp*float64(p.ChannelBytes)*xbarAreaCoeff + allocArea,
	}
}

// UncoreConfig describes the CMP uncore whose breakdown Fig 10 reports.
type UncoreConfig struct {
	Cores       int
	L1Bytes     int // per core
	L2BankBytes int // per node
	Router      RouterParams
	RCUs        int
}

// DefaultUncore returns the paper's 16-core, Table IV platform.
func DefaultUncore() UncoreConfig {
	return UncoreConfig{
		Cores:       16,
		L1Bytes:     32 << 10,
		L2BankBytes: 256 << 10,
		Router: RouterParams{
			Ports: 5, VCs: 8, BufDepth: 4, ChannelBytes: 32,
		},
		RCUs: 16,
	}
}

// Breakdown is the Fig 10 uncore decomposition.
type Breakdown struct {
	L1, L2, NoC, Snack Cost
}

// Total returns the summed uncore.
func (b Breakdown) Total() Cost { return Add("Uncore", b.L1, b.L2, b.NoC, b.Snack) }

// PowerPct returns each component's share of total uncore power, in the
// paper's Fig 10 order: L2, SnackNoC, L1, NoC.
func (b Breakdown) PowerPct() [4]float64 {
	t := b.Total().PowerW
	return [4]float64{
		b.L2.PowerW / t * 100, b.Snack.PowerW / t * 100,
		b.L1.PowerW / t * 100, b.NoC.PowerW / t * 100,
	}
}

// AreaPct returns each component's share of total uncore area (same
// order as PowerPct).
func (b Breakdown) AreaPct() [4]float64 {
	t := b.Total().AreaMM
	return [4]float64{
		b.L2.AreaMM / t * 100, b.Snack.AreaMM / t * 100,
		b.L1.AreaMM / t * 100, b.NoC.AreaMM / t * 100,
	}
}

// Uncore computes the Fig 10 decomposition for a configuration.
func Uncore(cfg UncoreConfig) Breakdown {
	routers := Add("Baseline NoC")
	one := RouterCost(cfg.Router)
	routers.PowerW = one.PowerW * float64(cfg.Cores)
	routers.AreaMM = one.AreaMM * float64(cfg.Cores)
	routers.Name = "Baseline NoC"
	return Breakdown{
		L1:    CacheCost("L1 Cache", cfg.L1Bytes*cfg.Cores, cfg.Cores),
		L2:    CacheCost("L2 Cache", cfg.L2BankBytes*cfg.Cores, cfg.Cores),
		NoC:   routers,
		Snack: withName(SnackNoCTotal(cfg.RCUs), "SnackNoC Additions"),
	}
}

func withName(c Cost, name string) Cost {
	c.Name = name
	return c
}

// XeonE52660v3 returns the Table V comparison point: the Haswell EP
// package the kernels were measured on.
func XeonE52660v3() Cost {
	return Cost{Name: "Intel Xeon E5 2660 v3", PowerW: 105, AreaMM: 492}
}
