package noc

import "fmt"

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

// flitPool recycles Flit objects and Packet envelopes within one shard
// of a network (the whole network when unsharded). Each shard runs on at
// most one goroutine at a time, so plain free-lists need no locking and
// — unlike sync.Pool — are fully deterministic. A flit that crosses a
// shard boundary retires into the destination shard's pool. Flits are
// returned when they leave the network: consumed by a compute unit,
// drained into the CPM overflow path, or reassembled at an ejection NI;
// an envelope is returned by its source NI when the packet's tail flit
// is minted.
type flitPool struct {
	flits freeList[Flit]
	pkts  freeList[Packet]
}

// freeList is a stack of zeroed objects. It refills a chunk at a time (a
// network's first traffic costs a few allocations, not one per object in
// flight) and put zeroes what it takes back, so which object a get hands
// out is unobservable and nothing pooled retains a payload reference.
type freeList[T any] struct {
	free []*T
	// out is gets minus puts. Summed over a network's pools it is 0 once
	// the network has drained.
	out int
}

// poolChunk is how many objects an empty free-list allocates at once.
const poolChunk = 32

func (l *freeList[T]) get() *T {
	if len(l.free) == 0 {
		chunk := make([]T, poolChunk)
		if cap(l.free) < poolChunk {
			l.free = make([]*T, 0, 2*poolChunk)
		}
		for i := range chunk {
			l.free = append(l.free, &chunk[i])
		}
	}
	n := len(l.free) - 1
	x := l.free[n]
	l.free = l.free[:n]
	l.out++
	return x
}

func (l *freeList[T]) put(x *T) {
	var zero T
	*x = zero
	l.free = append(l.free, x)
	l.out--
}

// envelope returns a pooled copy of p, its payload through clone (nil
// shares it).
func (p *flitPool) envelope(src *Packet, clone func(any) any) *Packet {
	e := p.pkts.get()
	*e = clonePacket(src, clone)
	return e
}

// mintFlit builds flit i of the n that p serializes into, bound for the
// router's local input VC vc. The head carries the payload, which leaves
// the envelope with it: from then on the flit is its only holder.
func mintFlit(p *Packet, i, n int32, vc int8, pool *flitPool) *Flit {
	f := pool.flits.get()
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
