package noc

import (
	"fmt"

	"snacknoc/internal/flat"
)

// FlitType distinguishes the positions of a flit within a packet under
// wormhole switching.
type FlitType int8

// Flit positions within a packet.
const (
	HeadFlit FlitType = iota
	BodyFlit
	TailFlit
	HeadTailFlit // single-flit packet
)

// String returns a short name for traces.
func (t FlitType) String() string {
	switch t {
	case HeadFlit:
		return "H"
	case BodyFlit:
		return "B"
	case TailFlit:
		return "T"
	case HeadTailFlit:
		return "HT"
	}
	return fmt.Sprintf("FlitType(%d)", int(t))
}

// Packet is the unit of injection: a protocol message (cache request,
// data response, SnackNoC instruction or data token) that the network
// interface serializes into flits.
type Packet struct {
	ID        uint64
	Src, Dst  NodeID
	VNet      int
	SizeBytes int
	// Payload carries the protocol message. For snack-vnet packets it is
	// a *core* token; for cache traffic a cache message.
	Payload any
	// Loop marks a transient data token that follows the static loop
	// route instead of routing directly to Dst (§III-E).
	Loop bool
	// InjectCycle is stamped by the network interface at injection.
	InjectCycle int64
}

// Flit is the atomic transfer unit; one flit crosses one link per cycle.
// It is one 64-byte cache line: the narrow fields share a word, and
// Config.Validate's 64-VC port bound keeps VNet and VC in an int8.
type Flit struct {
	PacketID           uint64
	Type               FlitType
	VNet               int8
	VC                 int8 // input VC at the current router (set by upstream VA)
	Loop               bool
	Src, Dst           NodeID
	SeqInPkt, PktFlits int32
	Payload            any // carried on head/headtail flits only
	InjectCycle        int64

	// eligibleAt is router-internal, reset at each hop: the cycle the flit
	// clears the router pipeline, which ingest sets routerLatency-1 cycles
	// past the cycle it buffered the flit, so it also dates the arrival.
	eligibleAt int64
}

// IsHead reports whether the flit opens a packet.
func (f *Flit) IsHead() bool { return f.Type == HeadFlit || f.Type == HeadTailFlit }

// IsTail reports whether the flit closes a packet.
func (f *Flit) IsTail() bool { return f.Type == TailFlit || f.Type == HeadTailFlit }

// String formats the flit for traces.
func (f *Flit) String() string {
	return fmt.Sprintf("flit{pkt=%d %s %d->%d vnet=%d vc=%d %d/%d}",
		f.PacketID, f.Type, f.Src, f.Dst, f.VNet, f.VC, f.SeqInPkt+1, f.PktFlits)
}

// flitPool holds the flits and packet envelopes of a network. Flits are
// returned when they leave the network: consumed by a compute unit,
// drained into the CPM overflow path, or reassembled at an ejection NI;
// an envelope is returned by its source NI when the packet's tail flit is
// minted.
type flitPool struct {
	flits flat.Pool[Flit]
	pkts  flat.Pool[Packet]
}

// envelope returns a pooled copy of p, its payload through clone (nil
// shares it).
func (p *flitPool) envelope(src *Packet, clone func(any) any) *Packet {
	e := p.pkts.Get()
	*e = clonePacket(src, clone)
	return e
}

// mintFlit builds flit i of the n that p serializes into, bound for the
// router's local input VC vc. The head carries the payload, which leaves
// the envelope with it: from then on the flit is its only holder.
func mintFlit(p *Packet, i, n int32, vc int8, pool *flitPool) *Flit {
	f := pool.flits.Get()
	switch {
	case n == 1:
		f.Type = HeadTailFlit
	case i == 0:
		f.Type = HeadFlit
	case i == n-1:
		f.Type = TailFlit
	default:
		f.Type = BodyFlit
	}
	f.PacketID = p.ID
	f.Src = p.Src
	f.Dst = p.Dst
	f.VNet = int8(p.VNet)
	f.VC = vc
	f.SeqInPkt = i
	f.PktFlits = n
	f.Loop = p.Loop
	f.InjectCycle = p.InjectCycle
	if i == 0 {
		f.Payload, p.Payload = p.Payload, nil
	}
	return f
}
