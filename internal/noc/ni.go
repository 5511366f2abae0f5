package noc

import (
	"fmt"
	"slices"

	"snacknoc/internal/attrib"
	"snacknoc/internal/sim"
	"snacknoc/internal/stats"
	"snacknoc/internal/trace"
)

// Client receives packets ejected at a node: a cache controller, memory
// controller, traffic sink, or the SnackNoC Central Packet Manager.
//
// The delivered Packet is borrowed: it is the ejecting NI's own scratch
// envelope, valid only for the duration of the Deliver call and cleared
// after it. Clients that need any field past that point must copy it out
// (every in-tree client consumes the packet synchronously).
type Client interface {
	Deliver(p *Packet, cycle int64)
}

// txn is one packet mid-injection: its envelope, how many of its n flits
// have been minted and sent (flit next is minted the cycle it leaves) and
// the router input VC it holds.
type txn struct {
	pkt      *Packet
	next, n  int32
	vnet, vc int32
}

// injectReq is a staged Inject call (pkt is a pooled envelope); it becomes
// visible to the NI on the cycle after it was issued, keeping client/NI
// ordering deterministic.
type injectReq struct {
	pkt   *Packet
	stamp int64
}

// NI is the network interface of one node: it holds injected packets,
// performs VC allocation on the router's local input port, serializes a
// granted packet one flit per send under credit-based flow control, and
// reassembles ejected flits back into packets for delivery to the
// attached Client.
type NI struct {
	node NodeID
	cfg  *Config
	pool *flitPool

	toRouter   *wire // router local-port arrivals (we write)
	fromRouter *wire // ejected flits (we read)

	// rd is the reading end of fromRouter (bit 1 of rd.pending); its
	// handle also wakes the NI for Inject calls while asleep.
	rd wireReader

	// vnetOff/nvcOf are the network's shared per-vnet geometry; credits
	// ([vnetOff[v]+c], the router's local input port) and vcRR (per vnet)
	// are windows of the Network's credits slab.
	vnetOff []int32
	nvcOf   []int32
	credits []int32
	vcRR    []int32

	// incoming, each waiting queue and active start as windows of the
	// Network's queue slabs and grow past them by plain append; every
	// packet in them is an envelope from pool.
	incoming []injectReq
	waiting  []pktQueue // per-vnet FIFO of packets awaiting a VC
	active   []txn      // in VC-grant order
	staged   *Flit

	client Client
	// reasm[vnetOff[v]+c] holds the head flit of the multi-flit packet
	// arriving on ejection VC (v, c) until its tail does: the router holds
	// an output VC from a packet's head to its tail, so each slot carries
	// at most one packet at a time. pkt is the envelope lent to the client
	// for the duration of Deliver (see Client).
	reasm []*Flit
	pkt   Packet

	// statistics (the counters are in niScalars)
	latSum   []int64 // per-vnet total packet latency
	latCount []int64

	// tr records packet/flit lifecycle events; nil disables tracing.
	tr *trace.Tracer

	// at classifies each evaluated cycle for attribution; nil disables.
	at *attrib.Counters

	niScalars
}

// niScalars is an NI's mutable state outside the slabs; a checkpoint
// copies it whole.
type niScalars struct {
	vcBusy       uint64 // bit vnetOff[v]+c: local-port VC held by a transmission
	waitingCount int    // total packets across all waiting queues
	txRR         int
	// credited is set when the router returns a slot (in its Advance) and
	// cleared by the next Evaluate, whose idle fast path it rules out.
	credited bool

	// pktSeq numbers packets injected at this node; combined with the node
	// tag it forms globally unique, interleaving-independent packet IDs.
	pktSeq uint64

	injected  stats.Counter
	ejected   stats.Counter
	flitsIn   stats.Counter
	flitsOut  stats.Counter
	maxQueued int
}

// pktQueue is a FIFO of packets over one backing array: pop advances head,
// O(1) at any length, and q[head:] moves back to the front only when a push
// finds the array full, which therefore grows only when the packets fill it.
type pktQueue struct {
	q    []*Packet
	head int
}

func (w *pktQueue) len() int { return len(w.q) - w.head }

func (w *pktQueue) push(p *Packet) {
	if w.head > 0 && len(w.q) == cap(w.q) {
		n := copy(w.q, w.q[w.head:])
		clear(w.q[n:])
		w.q, w.head = w.q[:n], 0
	}
	w.q = append(w.q, p)
}

func (w *pktQueue) pop() *Packet {
	p := w.q[w.head]
	w.q[w.head] = nil
	if w.head++; w.head == len(w.q) {
		w.q, w.head = w.q[:0], 0
	}
	return p
}

// Name implements sim.Component.
func (ni *NI) Name() string { return fmt.Sprintf("ni%d", ni.node) }

// nextPktID allocates the next packet ID injected at this node: the node
// tag (+1, so node 0 yields nonzero IDs) in bits 32..62 and a local
// sequence number in the low 32. Bit 63 is reserved for compute-port IDs.
func (ni *NI) nextPktID() uint64 {
	ni.pktSeq++
	return uint64(ni.node+1)<<32 | ni.pktSeq
}

// setHandle makes the NI the reader of its ejection wire and keeps its
// engine wake handle for Inject-time wake-ups.
func (ni *NI) setHandle(h *sim.Handle) {
	ni.rd.handle = h
	ni.fromRouter.rd, ni.fromRouter.bit = &ni.rd, 1
}

// AttachClient sets the packet receiver for this node.
func (ni *NI) AttachClient(c Client) { ni.client = c }

// inject queues a pooled envelope, its ID and InjectCycle already stamped
// by the Network, for injection. The queue is unbounded (clients model
// their own back-pressure); the packet enters NI processing on the
// following cycle.
func (ni *NI) inject(p *Packet, cycle int64) {
	ni.incoming = append(ni.incoming, injectReq{pkt: p, stamp: cycle})
	if ni.tr != nil {
		rec := ni.pktRecord(trace.KindInject, cycle, cycle, p.ID, p.VNet)
		ni.tr.Emit(rec)
	}
	ni.rd.handle.WakeAt(cycle + 1)
}

// InjectedPackets returns the count of packets accepted for injection.
func (ni *NI) InjectedPackets() int64 { return ni.injected.Value() }

// EjectedPackets returns the count of packets delivered to the client.
func (ni *NI) EjectedPackets() int64 { return ni.ejected.Value() }

// AvgLatency returns the mean inject-to-deliver packet latency in cycles
// for the given vnet at this node's ejection side (0 when no packets).
func (ni *NI) AvgLatency(vnet int) float64 {
	if ni.latCount[vnet] == 0 {
		return 0
	}
	return float64(ni.latSum[vnet]) / float64(ni.latCount[vnet])
}

// Quiescent implements sim.Quiescer: the NI may sleep when no packet is
// queued, staged, or mid-transmission and its ejection wire holds no
// entries. Inject and wire pushes rouse it; a returned credit need not.
// Reassembly state may be non-empty while asleep — the packet's remaining
// flits are upstream, and their eventual arrival wakes the NI.
func (ni *NI) Quiescent() bool {
	return len(ni.incoming) == 0 && len(ni.active) == 0 && ni.staged == nil &&
		ni.waitingCount == 0 && ni.rd.pending == 0
}

// CatchUp implements sim.Quiescer. An idle NI records no per-cycle
// statistics, so skipped cycles need no replay beyond the attribution
// idle count: a quiescent NI has no injection work at all.
func (ni *NI) CatchUp(idle int64) {
	ni.at.Add(attrib.NIIdle, idle)
}

// Evaluate implements sim.Component: VC allocation for waiting packets,
// flit transmission, and ejection-side reassembly.
func (ni *NI) Evaluate(cycle int64) {
	credited := ni.credited
	ni.credited = false
	// Fast path: a fully idle NI (the common case on the paper's
	// low-utilization NoCs) costs four checks per cycle. waitingCount is
	// not one: a waiting packet gets a VC only on a cycle with an injection,
	// a transmission, an ejected flit or a returned credit (ROADMAP item 3).
	if len(ni.incoming) == 0 && len(ni.active) == 0 && ni.rd.pending == 0 && !credited {
		if ni.at != nil {
			if ni.waitingCount > 0 {
				ni.at.Inc(attrib.NIBackpressure)
			} else {
				ni.at.Inc(attrib.NIIdle)
			}
		}
		return
	}
	// Stage newly injected packets (only those issued on earlier cycles).
	keep := ni.incoming[:0]
	for _, req := range ni.incoming {
		if req.stamp < cycle {
			ni.waiting[req.pkt.VNet].push(req.pkt)
			ni.waitingCount++
			ni.injected.Inc()
		} else {
			keep = append(keep, req)
		}
	}
	ni.incoming = keep
	if q := ni.totalQueued(); q > ni.maxQueued {
		ni.maxQueued = q
	}

	// VC allocation: the front packet of each vnet queue may claim a free
	// VC on the router's local input port. The count check skips the
	// per-vnet scan entirely when nothing waits.
	for v := 0; ni.waitingCount > 0 && v < len(ni.waiting); v++ {
		if ni.waiting[v].len() == 0 {
			continue
		}
		nvc, off := ni.nvcOf[v], ni.vnetOff[v]
		for j := int32(0); j < nvc; j++ {
			c := (ni.vcRR[v] + j) % nvc
			if ni.vcBusy&(1<<uint(off+c)) != 0 {
				continue
			}
			p := ni.waiting[v].pop()
			ni.waitingCount--
			ni.vcBusy |= 1 << uint(off+c)
			ni.vcRR[v] = c + 1
			ni.active = append(ni.active, txn{
				pkt: p, n: int32(ni.cfg.FlitsFor(p.SizeBytes)), vnet: int32(v), vc: c,
			})
			break
		}
	}

	// Transmit: one flit per cycle across all vnets, round-robin over
	// active transmissions with credit available. The flit is minted here,
	// so only buffers and links ever hold flits.
	if ni.staged == nil && len(ni.active) > 0 {
		n := len(ni.active)
		for i := 0; i < n; i++ {
			k := (ni.txRR + i) % n
			t := &ni.active[k]
			slot := ni.vnetOff[t.vnet] + t.vc
			if ni.credits[slot] <= 0 {
				continue
			}
			f := mintFlit(t.pkt, t.next, t.n, int8(t.vc), ni.pool)
			t.next++
			ni.credits[slot]--
			ni.staged = f
			ni.flitsOut.Inc()
			if ni.tr != nil {
				rec := ni.pktRecord(trace.KindFlitSend, cycle, cycle, f.PacketID, int(f.VNet))
				rec.Seq = int16(f.SeqInPkt)
				rec.VC = f.VC
				ni.tr.Emit(rec)
			}
			ni.txRR = (ni.txRR + i + 1) % n
			if t.next == t.n {
				// Tail sent: free the VC and the envelope; the removal keeps
				// list order, which txRR's positions count on.
				ni.vcBusy &^= 1 << uint(slot)
				ni.pool.pkts.put(t.pkt)
				ni.active = slices.Delete(ni.active, k, k+1)
			}
			break
		}
	}

	// Injection-side attribution, exactly once per evaluated cycle: a
	// staged flit is an active cycle; remaining transactions or waiting
	// packets with nothing staged are injection backpressure (no credit,
	// or the one-flit-per-cycle port is the limit); otherwise only
	// ejection-side work ran, which the taxonomy counts as idle.
	if ni.at != nil {
		switch {
		case ni.staged != nil:
			ni.at.Inc(attrib.NIActive)
		case len(ni.active) > 0 || ni.waitingCount > 0:
			ni.at.Inc(attrib.NIBackpressure)
		default:
			ni.at.Inc(attrib.NIIdle)
		}
	}

	// Ejection: reassemble arriving flits into packets.
	if ni.rd.pending == 0 {
		return
	}
	ready := ni.fromRouter.ready(cycle)
	for _, e := range ready {
		f := e.f
		ni.flitsIn.Inc()
		if ni.tr != nil {
			rec := ni.pktRecord(trace.KindEject, cycle, cycle, f.PacketID, int(f.VNet))
			rec.Seq = int16(f.SeqInPkt)
			rec.VC = f.VC
			ni.tr.Emit(rec)
		}
		st := &ni.reasm[ni.vnetOff[f.VNet]+int32(f.VC)]
		head := *st
		if f.IsHead() == (head != nil) {
			panic(fmt.Sprintf("%s: %s out of packet order on its ejection VC", ni.Name(), f))
		}
		if !f.IsTail() {
			// Flits of a packet arrive in order on one VC: park the head,
			// drop the bodies, and deliver when the tail closes the packet.
			if head == nil {
				*st = f
			} else {
				ni.pool.flits.put(f)
			}
			continue
		}
		if head == nil {
			head = f
		} else {
			*st = nil
			ni.pool.flits.put(f)
		}
		ni.pkt = Packet{
			ID: head.PacketID, Src: head.Src, Dst: head.Dst, VNet: int(head.VNet),
			Payload: head.Payload, Loop: head.Loop, InjectCycle: head.InjectCycle,
		}
		ni.pool.flits.put(head)
		p := &ni.pkt
		ni.ejected.Inc()
		ni.latSum[p.VNet] += cycle - p.InjectCycle
		ni.latCount[p.VNet]++
		if ni.tr != nil {
			// Packet-lifetime span: injection to delivery.
			ni.tr.Emit(ni.pktRecord(trace.KindDeliver, cycle, p.InjectCycle, p.ID, p.VNet))
		}
		if ni.client != nil {
			ni.client.Deliver(p, cycle)
		}
		*p = Packet{}
	}
	ni.fromRouter.consume(len(ready))
}

// Advance pushes the staged flit onto the local link.
func (ni *NI) Advance(cycle int64) {
	if ni.staged != nil {
		ni.toRouter.push(ni.staged, cycle+1)
		ni.staged = nil
	}
}

func (ni *NI) totalQueued() int { return len(ni.incoming) + len(ni.active) + ni.waitingCount }

// SetTracer installs (or, with nil, removes) the lifecycle-event tracer.
func (ni *NI) SetTracer(t *trace.Tracer) { ni.tr = t }

// SetAttrib installs (or, with nil, removes) the cycle-attribution counters.
func (ni *NI) SetAttrib(c *attrib.Counters) { ni.at = c }

// pktRecord builds a trace record for a packet-level NI event.
func (ni *NI) pktRecord(k trace.Kind, cycle, start int64, pktID uint64, vnet int) trace.Record {
	cl := int8(trace.ClassComm)
	if vnet == ni.cfg.SnackVNet {
		cl = trace.ClassSnack
	}
	return trace.Record{
		Kind:   k,
		Cycle:  cycle,
		Start:  start,
		Packet: pktID,
		Node:   int32(ni.node),
		Seq:    -1,
		Class:  cl,
		Port:   -1,
		VNet:   int8(vnet),
		VC:     -1,
	}
}

// RegisterMetrics names the NI's statistics in reg under the prefix
// "niN.": packet and flit counts, the peak injection-queue depth, and
// per-vnet delivered-packet latency.
func (ni *NI) RegisterMetrics(reg *stats.Registry) {
	p := fmt.Sprintf("ni%d.", ni.node)
	reg.AddCounter(p+"packets.injected", &ni.injected)
	reg.AddCounter(p+"packets.ejected", &ni.ejected)
	reg.AddCounter(p+"flits.in", &ni.flitsIn)
	reg.AddCounter(p+"flits.out", &ni.flitsOut)
	reg.AddGauge(p+"queue.max", func() float64 { return float64(ni.maxQueued) })
	for v := range ni.latSum {
		v := v
		reg.AddGauge(fmt.Sprintf("%svnet%d.delivered", p, v),
			func() float64 { return float64(ni.latCount[v]) })
		reg.AddGauge(fmt.Sprintf("%svnet%d.avglat", p, v),
			func() float64 { return ni.AvgLatency(v) })
	}
}
