package noc

import (
	"fmt"

	"snacknoc/internal/stats"
)

// Checkpoint support. The Network owns its state as slabs, so a
// NetworkState is those slabs over again: SnapshotState copies each
// mutable slab (and the routers', output ports', NIs' and inject ports'
// scalar blocks) with one copy call, and RestoreState copies them back
// onto the same network. What is not a flat array is flattened on the
// way: buffered flits are saved sparsely (slab index + clone), wire
// queues and the allocator work lists are packed end to end behind their
// lengths, and the NIs' injection queues are concatenated with their
// packets held by value. Snapshot owns its copies; restore returns every
// flit and envelope it overwrites to the pool and draws the restored ones
// from it, so one snapshot restores (forks) any number of times and a
// restored network still drains to empty pools.
//
// Flit and packet payloads are opaque to this package: the caller passes
// a clone function (nil shares pointers, correct for immutable
// payloads). A payload in flight has one holder, the flit or envelope
// carrying it, so a clone need only copy it.
//
// Snapshots must be taken at a settled point — between engine runs, when
// every staged output has been committed by Advance. The snapshot
// asserts this rather than trying to save mid-cycle transients.

// NetworkState is a saved network.
type NetworkState struct {
	vcs     []inputVC
	flits   []flitAt // the occupied bufSlab slots
	reasm   []flitAt // the occupied reassembly slots
	credits []int32
	counts  []int64
	routers []routerScalars
	outs    []outScalars
	nis     []niScalars
	ports   []injScalars

	// lens packs every variable length, in walk order: per wire its
	// queue length; per router its work lists, each as length then
	// entries; per NI its incoming, waiting (per vnet) and active counts.
	lens  []int32
	flitQ []wireEntry
	reqs  []reqState // incoming, then waiting (stamp unused), per NI
	txns  []txnState

	samples stats.SampleSlab // when sampling is on
}

// flitAt is one held flit and its index in Network.bufSlab or .reasm.
type flitAt struct {
	at int
	f  *Flit
}

// reqState is one queued packet, by value (see injectReq).
type reqState struct {
	pkt   Packet
	stamp int64
}

// txnState is one packet mid-injection, by value (see txn). Flits before
// next were already handed to the router and live on in wires or buffers.
type txnState struct {
	pkt               Packet
	next, n, vnet, vc int32
}

// cloneFlit copies f, payload through clone, into dst and returns dst.
func cloneFlit(dst, f *Flit, clone func(any) any) *Flit {
	*dst = *f
	if clone != nil && dst.Payload != nil {
		dst.Payload = clone(dst.Payload)
	}
	return dst
}

// clonePacket returns a copy of p, payload through clone.
func clonePacket(p *Packet, clone func(any) any) Packet {
	np := *p
	if clone != nil && np.Payload != nil {
		np.Payload = clone(np.Payload)
	}
	return np
}

// workLists returns r's saved allocator work lists in a fixed order.
func (r *Router) workLists() (lists [2 + 2*numDirections]*[]int32) {
	lists[0], lists[1] = &r.needRoute, &r.waitVA
	for d := range r.saCand {
		lists[2+2*d], lists[3+2*d] = &r.saCand[d][classComm], &r.saCand[d][classSnack]
	}
	return lists
}

// SnapshotState captures the network. clone copies flit/packet payloads
// (nil shares them).
func (n *Network) SnapshotState(clone func(any) any) *NetworkState {
	// Size the packed arrays first so each is allocated once.
	nLens, nFlitQ, nFlits, nReasm, nReqs, nTxns := len(n.flitWires), 0, 0, 0, 0, 0
	for _, f := range n.reasm {
		if f != nil {
			nReasm++
		}
	}
	for k := range n.flitWires {
		nFlitQ += len(n.flitWires[k].q)
	}
	for i := range n.routers {
		r := &n.routers[i]
		if r.stagedCount != 0 || len(r.stagedCredits) != 0 {
			panic(fmt.Sprintf("%s: snapshot with uncommitted staged state", r.Name()))
		}
		nFlits += r.occupancy
		for _, l := range r.workLists() {
			nLens += 1 + len(*l)
		}
		ni := &n.nis[i]
		if ni.staged != nil {
			panic(fmt.Sprintf("%s: snapshot with uncommitted staged flit", ni.Name()))
		}
		nLens += 2 + len(ni.waiting)
		nReqs += len(ni.incoming) + ni.waitingCount
		nTxns += len(ni.active)
	}

	s := &NetworkState{
		vcs:     append([]inputVC(nil), n.vcs...),
		flits:   make([]flitAt, 0, nFlits),
		reasm:   make([]flitAt, 0, nReasm),
		credits: append([]int32(nil), n.credits...),
		counts:  append([]int64(nil), n.counts...),
		routers: make([]routerScalars, len(n.routers)),
		outs:    make([]outScalars, len(n.outPorts)),
		nis:     make([]niScalars, len(n.nis)),
		ports:   make([]injScalars, len(n.ports)),
		lens:    make([]int32, 0, nLens),
		flitQ:   make([]wireEntry, 0, nFlitQ),
		reqs:    make([]reqState, 0, nReqs),
		txns:    make([]txnState, 0, nTxns),
	}
	for at, f := range n.bufSlab {
		if f != nil {
			s.flits = append(s.flits, flitAt{at: at, f: cloneFlit(new(Flit), f, clone)})
		}
	}
	for at, f := range n.reasm {
		if f != nil {
			s.reasm = append(s.reasm, flitAt{at: at, f: cloneFlit(new(Flit), f, clone)})
		}
	}
	for k := range n.flitWires {
		s.lens = append(s.lens, int32(len(n.flitWires[k].q)))
		for _, e := range n.flitWires[k].q {
			s.flitQ = append(s.flitQ, wireEntry{f: cloneFlit(new(Flit), e.f, clone), arrive: e.arrive})
		}
	}
	for i := range n.outPorts {
		if n.outPorts[i].staged != nil {
			panic("noc: snapshot with staged output flit")
		}
		s.outs[i] = n.outPorts[i].outScalars
	}
	for i := range n.ports {
		s.ports[i] = n.ports[i].injScalars
	}
	for i := range n.routers {
		r := &n.routers[i]
		s.routers[i] = r.routerScalars
		for _, l := range r.workLists() {
			s.lens = append(s.lens, int32(len(*l)))
			s.lens = append(s.lens, *l...)
		}
	}
	for i := range n.nis {
		ni := &n.nis[i]
		s.nis[i] = ni.niScalars
		s.lens = append(s.lens, int32(len(ni.incoming)), int32(len(ni.active)))
		for _, req := range ni.incoming {
			s.reqs = append(s.reqs, reqState{pkt: clonePacket(&req.pkt.Packet, clone), stamp: req.stamp})
		}
		for v := range ni.waiting {
			at := len(s.lens)
			s.lens = append(s.lens, 0)
			for e := ni.waiting[v].head; e != nil; e = e.next {
				s.reqs = append(s.reqs, reqState{pkt: clonePacket(&e.Packet, clone)})
				s.lens[at]++
			}
		}
		for _, t := range ni.active {
			s.txns = append(s.txns, txnState{
				pkt: clonePacket(&t.pkt.Packet, clone), next: t.next, n: t.n, vnet: t.vnet, vc: t.vc,
			})
		}
	}
	s.samples.CopyFrom(&n.samples)
	return s
}

// RestoreState writes a saved network state back. clone copies payloads
// out of the state, as the snapshot's clone copied them in.
func (n *Network) RestoreState(s *NetworkState, clone func(any) any) {
	pool := &n.pool
	copy(n.vcs, s.vcs)
	copy(n.credits, s.credits)
	copy(n.counts, s.counts)
	restoreFlits(n.bufSlab, s.flits, clone, pool)
	restoreFlits(n.reasm, s.reasm, clone, pool)
	lens, flitQ := s.lens, s.flitQ
	next := func() int {
		l := int(lens[0])
		lens = lens[1:]
		return l
	}
	for k := range n.flitWires {
		fw := &n.flitWires[k]
		for _, e := range fw.q {
			pool.flits.Put(e.f)
		}
		fw.q = fw.q[:0]
		for _, e := range flitQ[:next()] {
			fw.q = append(fw.q, wireEntry{f: cloneFlit(pool.flits.Get(), e.f, clone), arrive: e.arrive})
		}
		flitQ = flitQ[len(fw.q):]
		fw.sync()
	}
	for i := range n.outPorts {
		n.outPorts[i].outScalars = s.outs[i]
		n.outPorts[i].staged = nil
	}
	for i := range n.ports {
		n.ports[i].injScalars = s.ports[i]
	}
	for i := range n.routers {
		r := &n.routers[i]
		r.routerScalars = s.routers[i]
		r.stagedCount = 0
		r.stagedCredits = r.stagedCredits[:0]
		for _, l := range r.workLists() {
			k := next()
			*l = append((*l)[:0], lens[:k]...)
			lens = lens[k:]
		}
	}
	reqs, txns := s.reqs, s.txns
	for i := range n.nis {
		ni := &n.nis[i]
		ni.niScalars = s.nis[i]
		ni.staged = nil
		nIncoming, nActive := next(), next()
		for _, req := range ni.incoming {
			ni.pool.pkts.Put(req.pkt)
		}
		ni.incoming = ni.incoming[:0]
		for j := range reqs[:nIncoming] {
			ni.incoming = append(ni.incoming, injectReq{pkt: ni.pool.wrap(&reqs[j].pkt, clone), stamp: reqs[j].stamp})
		}
		reqs = reqs[nIncoming:]
		for v := range ni.waiting {
			w := &ni.waiting[v]
			for w.head != nil {
				ni.pool.pkts.Put(w.pop())
			}
			k := next()
			for j := range reqs[:k] {
				w.push(ni.pool.wrap(&reqs[j].pkt, clone))
			}
			reqs = reqs[k:]
		}
		for _, t := range ni.active {
			ni.pool.pkts.Put(t.pkt)
		}
		ni.active = ni.active[:0]
		for j := range txns[:nActive] {
			ts := &txns[j]
			ni.active = append(ni.active, txn{
				pkt: ni.pool.wrap(&ts.pkt, clone), next: ts.next, n: ts.n, vnet: ts.vnet, vc: ts.vc,
			})
		}
		txns = txns[nActive:]
	}
	n.samples.CopyFrom(&s.samples)
}

// restoreFlits makes slots hold clones of exactly the saved flits, through
// pool both ways.
func restoreFlits(slots []*Flit, saved []flitAt, clone func(any) any, pool *flitPool) {
	for _, f := range slots {
		if f != nil {
			pool.flits.Put(f)
		}
	}
	clear(slots)
	for _, e := range saved {
		slots[e.at] = cloneFlit(pool.flits.Get(), e.f, clone)
	}
}
