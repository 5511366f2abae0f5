// Package core implements the SnackNoC platform itself (paper §III): the
// Router Compute Units that turn every NoC router into a dataflow
// processing element, the Central Packet Manager that assembles, issues
// and retires kernels, the instruction/data token model, and the
// transient storage of intermediate values on the NoC's loop route.
package core

import (
	"fmt"

	"snacknoc/internal/fixed"
	"snacknoc/internal/flat"
	"snacknoc/internal/noc"
)

// Op is an RCU ALU operation. The RCU datapath (Table II) provides a
// 32-bit parallel adder, subtractor, and multiply-accumulate unit.
type Op uint8

// RCU operations.
const (
	OpAdd    Op = iota // v = l + r
	OpSub              // v = l - r
	OpMul              // v = l * r
	OpMAC              // acc = acc + l*r (accumulator chain)
	OpAccAdd           // acc = acc + l   (accumulator chain, adder only)
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpAdd:
		return "add"
	case OpSub:
		return "sub"
	case OpMul:
		return "mul"
	case OpMAC:
		return "mac"
	case OpAccAdd:
		return "accadd"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Latency returns the ALU occupancy in cycles: one for add-class
// operations, two for the multiplier path (§III-D2).
func (o Op) Latency() int64 {
	switch o {
	case OpMul, OpMAC:
		return 2
	default:
		return 1
	}
}

// usesAcc reports whether the op reads/writes the accumulator register.
func (o Op) usesAcc() bool { return o == OpMAC || o == OpAccAdd }

// DepID names a dependency: a value produced by one instruction (or
// injected by the CPM) and consumed by others. Data tokens carry it as
// the S field of ⟨S,N,V⟩.
type DepID uint32

// Operand is Vl or Vr of an instruction token: an immediate value or a
// reference to a dependency whose token must be captured from the NoC.
type Operand struct {
	Imm   fixed.Q
	Dep   DepID
	IsRef bool
	// filled marks a reference whose value has been captured into Imm.
	filled bool
}

// Imm32 builds an immediate operand.
func Imm32(v fixed.Q) Operand { return Operand{Imm: v} }

// Ref builds a dependency-reference operand.
func Ref(d DepID) Operand { return Operand{Dep: d, IsRef: true} }

// ready reports whether the operand's value is available.
func (o *Operand) ready() bool { return !o.IsRef || o.filled }

// value returns the operand value; it panics on an unfilled reference.
func (o *Operand) value() fixed.Q {
	if !o.ready() {
		panic("core: reading unresolved operand")
	}
	return o.Imm
}

// fill captures a dependency value.
func (o *Operand) fill(v fixed.Q) {
	o.Imm = v
	o.filled = true
}

// InstrToken is the instruction tuple ⟨O,P,Vl,Vr,N⟩ of §III-A, extended
// with the static-mapping metadata the compiler produces: a global
// sequence number, the sub-block it belongs to (an intra-dependent
// accumulator chain that must not be interleaved, §III-D1), and where the
// result goes. Its fields run from the widest alignment down, so the
// token packs into 56 bytes.
type InstrToken struct {
	Seq      uint32
	Dst      noc.NodeID // P: the RCU this instruction executes on
	SubBlock uint32
	// SBIdx is the instruction's position within its sub-block. Arrival
	// order over the NoC is non-deterministic (packets ride different
	// VCs), so the RCU's ordered instruction buffer re-sorts on this and
	// executes each sub-block strictly in order (§III-D1).
	SBIdx int32
	// Result disposition. When Emit is set the result becomes a data
	// token ⟨EmitDep, Dependents, v⟩: a transient loop token, or a final
	// output routed to the issuing CPM when ToCPM is set. Without Emit
	// the result only persists in the accumulator (§III-A: "the data is
	// preserved at the source PE for further accumulate operations").
	EmitDep DepID
	// Home is the node of the CPM that issued this instruction and that
	// collects its ToCPM result. With a single CPM it equals the
	// platform's CPM node; the decentralized configuration (§VII) places
	// one CPM per memory controller and stamps each kernel's
	// instructions with its own home.
	Home       noc.NodeID
	L, R       Operand // Vl, Vr
	Dependents uint16
	Op         Op
	// AccInit starts a fresh accumulator chain (acc = result) instead of
	// accumulating into the previous value.
	AccInit bool
	// EndSB marks the final instruction of its sub-block; executing it
	// closes the accumulator chain.
	EndSB bool
	Emit  bool
	ToCPM bool
}

// String formats the instruction for traces.
func (it *InstrToken) String() string {
	return fmt.Sprintf("instr{#%d %s @%d sb=%d emit=%v}", it.Seq, it.Op, it.Dst, it.SubBlock, it.Emit)
}

// TokenPool recycles the instruction and data tokens of a platform's
// compute components. A pooled token exists only in flight: it is
// minted as it enters the network (a CPM sends an entry or re-injects a
// spilled token, an RCU's port takes a result) and goes back the moment
// it leaves (an RCU copies an instruction into a slot; a data token's
// last dependent consumes it, or the CPM collects or spills it). Every
// other holder keeps tokens by value, so a checkpoint copies them
// plainly and never sees a pool.
type TokenPool struct {
	instr flat.Pool[InstrToken]
	data  flat.Pool[DataToken]
}

// DataToken is the dependency token ⟨S,N,V⟩ of §III-A. N is decremented
// as consumers capture the value; the token leaves the network when it
// reaches zero, so the NoC bandwidth itself stores the value while any
// consumer still needs it (§III-E).
type DataToken struct {
	Dep        DepID
	Dependents uint16
	V          fixed.Q
}

// String formats the token for traces.
func (d *DataToken) String() string {
	return fmt.Sprintf("data{%d n=%d v=%s}", d.Dep, d.Dependents, d.V)
}

// InstrBytes is an instruction token's size: ⟨O,P,Vl,Vr,N⟩ packs
// op+dest+two 32-bit operands+count+metadata into 16 bytes, one flit on
// the Table IV 32 B channel.
const InstrBytes = 16
