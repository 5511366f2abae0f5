package noc

import (
	"fmt"

	"snacknoc/internal/attrib"
	"snacknoc/internal/stats"
)

// Checkpoint support. The Network owns its state as slabs, so a
// NetworkState is those slabs over again: SnapshotState copies each
// mutable slab (and the routers', output ports', NIs' and inject ports'
// scalar blocks) with one copy call, and RestoreState copies them back
// onto the same network. What is not a flat array is flattened on the
// way: buffered flits are saved sparsely (slab index + clone), wire
// queues and the allocator work lists are packed end to end behind their
// lengths, and the NIs' injection queues are concatenated. Snapshot owns
// its clones and restore clones them again into the live structures, so
// one snapshot restores (forks) any number of times.
//
// Flit and packet payloads are opaque to this package: the caller passes
// a clone function (nil shares pointers, correct for immutable payloads
// such as cache protocol messages). The SnackNoC layer passes an
// identity-preserving token cloner so the aliasing between buffered
// tokens and RCU/CPM bookkeeping survives the copy.
//
// Snapshots must be taken at a settled point — between engine runs, when
// every staged output has been committed by Advance and, on a sharded
// network, the boundary stubs have been drained by the barrier. The
// snapshot asserts these invariants rather than trying to save
// mid-cycle transients.

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
	reqs  []injectReq // incoming, then waiting (stamp unused), per NI
	txns  []txnState
	tx    []*Flit // the transactions' unsent flits, concatenated

	histTotals []int64
	series     []stats.TimeSeriesState // when sampling is on
	attrib     []attrib.CountersState  // routers then NIs, when attributed
}

// flitAt is one held flit and its index in Network.bufSlab or .reasm.
type flitAt struct {
	at int32
	f  *Flit
}

// txnState is one packet mid-injection: its VC and how many flits (the
// unsent suffix) it contributes to NetworkState.tx.
type txnState struct {
	vnet, vc, n int32
}

func cloneFlit(f *Flit, clone func(any) any) *Flit {
	nf := &Flit{}
	*nf = *f
	if clone != nil && nf.Payload != nil {
		nf.Payload = clone(nf.Payload)
	}
	return nf
}

func clonePacket(p *Packet, clone func(any) any) *Packet {
	np := &Packet{}
	*np = *p
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

// SnapshotState captures the network. clone deep-copies flit/packet
// payloads (nil shares them).
func (n *Network) SnapshotState(clone func(any) any) *NetworkState {
	for i := range n.flitB {
		if len(n.flitB[i].stub.q) != 0 || len(n.credB[i].stub) != 0 {
			panic("noc: SnapshotState with undrained shard boundary (snapshot only between cycles)")
		}
	}
	// Size the packed arrays first so each is allocated once.
	nLens, nFlitQ, nFlits, nReasm, nReqs, nTxns, nTx := len(n.flitWires), 0, 0, 0, 0, 0, 0
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
		for _, t := range ni.active {
			nTx += len(t.flits) - t.next
		}
	}

	s := &NetworkState{
		vcs:        append([]inputVC(nil), n.vcs...),
		flits:      make([]flitAt, 0, nFlits),
		reasm:      make([]flitAt, 0, nReasm),
		credits:    append([]int32(nil), n.credits...),
		counts:     append([]int64(nil), n.counts...),
		routers:    make([]routerScalars, len(n.routers)),
		outs:       make([]outScalars, len(n.outPorts)),
		nis:        make([]niScalars, len(n.nis)),
		ports:      make([]injScalars, len(n.ports)),
		lens:       make([]int32, 0, nLens),
		flitQ:      make([]wireEntry, 0, nFlitQ),
		reqs:       make([]injectReq, 0, nReqs),
		txns:       make([]txnState, 0, nTxns),
		tx:         make([]*Flit, 0, nTx),
		histTotals: make([]int64, len(n.routers)),
	}
	for at, f := range n.bufSlab {
		if f != nil {
			s.flits = append(s.flits, flitAt{at: int32(at), f: cloneFlit(f, clone)})
		}
	}
	for at, f := range n.reasm {
		if f != nil {
			s.reasm = append(s.reasm, flitAt{at: int32(at), f: cloneFlit(f, clone)})
		}
	}
	for k := range n.flitWires {
		s.lens = append(s.lens, int32(len(n.flitWires[k].q)))
		for _, e := range n.flitWires[k].q {
			s.flitQ = append(s.flitQ, wireEntry{f: cloneFlit(e.f, clone), arrive: e.arrive})
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
		s.histTotals[i] = r.bufHist.Total()
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
			s.reqs = append(s.reqs, injectReq{pkt: clonePacket(req.pkt, clone), stamp: req.stamp})
		}
		for _, w := range ni.waiting {
			s.lens = append(s.lens, int32(w.len()))
			for _, p := range w.q[w.head:] {
				s.reqs = append(s.reqs, injectReq{pkt: clonePacket(p, clone)})
			}
		}
		for _, t := range ni.active {
			// Flits before t.next were already handed to the router (they
			// live on in wires or buffers); only the unsent suffix belongs
			// to the transaction.
			s.txns = append(s.txns, txnState{vnet: int32(t.vnet), vc: int32(t.vc), n: int32(len(t.flits) - t.next)})
			for _, f := range t.flits[t.next:] {
				s.tx = append(s.tx, cloneFlit(f, clone))
			}
		}
	}
	if n.series != nil {
		s.series = make([]stats.TimeSeriesState, len(n.series))
		for i := range n.series {
			s.series[i] = n.series[i].State()
		}
	}
	if n.routers[0].at != nil {
		s.attrib = make([]attrib.CountersState, 0, 2*len(n.routers))
		for i := range n.routers {
			s.attrib = append(s.attrib, n.routers[i].at.State())
		}
		for i := range n.nis {
			s.attrib = append(s.attrib, n.nis[i].at.State())
		}
	}
	return s
}

// RestoreState writes a saved network state back. clone must mirror the
// snapshot-side cloner (same payload semantics, fresh identity map).
func (n *Network) RestoreState(s *NetworkState, clone func(any) any) {
	copy(n.vcs, s.vcs)
	copy(n.credits, s.credits)
	copy(n.counts, s.counts)
	clear(n.bufSlab)
	for _, e := range s.flits {
		n.bufSlab[e.at] = cloneFlit(e.f, clone)
	}
	clear(n.reasm)
	for _, e := range s.reasm {
		n.reasm[e.at] = cloneFlit(e.f, clone)
	}
	lens, flitQ := s.lens, s.flitQ
	next := func() int {
		l := int(lens[0])
		lens = lens[1:]
		return l
	}
	for k := range n.flitWires {
		fw := &n.flitWires[k]
		fw.q = fw.q[:0]
		for _, e := range flitQ[:next()] {
			fw.q = append(fw.q, wireEntry{f: cloneFlit(e.f, clone), arrive: e.arrive})
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
		r.bufHist.Restore(stats.HistogramState{Total: s.histTotals[i]}) // buckets came back with counts
		r.stagedCount = 0
		r.stagedCredits = r.stagedCredits[:0]
		for _, l := range r.workLists() {
			k := next()
			*l = append((*l)[:0], lens[:k]...)
			lens = lens[k:]
		}
	}
	reqs, txns, tx := s.reqs, s.txns, s.tx
	for i := range n.nis {
		ni := &n.nis[i]
		ni.niScalars = s.nis[i]
		ni.staged = nil
		nIncoming, nActive := next(), next()
		ni.incoming = ni.incoming[:0]
		for _, req := range reqs[:nIncoming] {
			ni.incoming = append(ni.incoming, injectReq{pkt: clonePacket(req.pkt, clone), stamp: req.stamp})
		}
		reqs = reqs[nIncoming:]
		for v := range ni.waiting {
			w := &ni.waiting[v]
			w.q, w.head = w.q[:0], 0
			k := next()
			for _, req := range reqs[:k] {
				w.q = append(w.q, clonePacket(req.pkt, clone))
			}
			reqs = reqs[k:]
		}
		for _, t := range ni.active {
			ni.pool.putSlice(t.flits)
			t.flits = nil
			ni.txnFree = append(ni.txnFree, t)
		}
		ni.active = ni.active[:0]
		for _, ts := range txns[:nActive] {
			flits := ni.pool.getSlice(int(ts.n))
			for j, f := range tx[:ts.n] {
				flits[j] = cloneFlit(f, clone)
			}
			tx = tx[ts.n:]
			ni.active = append(ni.active, ni.newTxn(flits, int(ts.vnet), int(ts.vc)))
		}
		txns = txns[nActive:]
	}
	for i := range s.series {
		n.series[i].Restore(s.series[i])
	}
	if s.attrib != nil {
		for i := range n.routers {
			n.routers[i].at.Restore(s.attrib[i])
			n.nis[i].at.Restore(s.attrib[len(n.routers)+i])
		}
	}
}

// ALODetectorState is an ALO congestion detector's saved state.
type ALODetectorState struct{ LastBusy int64 }

// State captures the detector.
func (d *ALODetector) State() ALODetectorState { return ALODetectorState{LastBusy: d.lastBusy} }

// Restore writes a saved state back.
func (d *ALODetector) Restore(s ALODetectorState) { d.lastBusy = s.LastBusy }

// SnackALOState is the snack-vnet detector's saved state.
type SnackALOState struct {
	LastBusy   int64
	Streak     int64
	LastSample int64
}

// State captures the detector.
func (d *SnackALODetector) State() SnackALOState {
	return SnackALOState{LastBusy: d.lastBusy, Streak: d.streak, LastSample: d.lastSample}
}

// Restore writes a saved state back.
func (d *SnackALODetector) Restore(s SnackALOState) {
	d.lastBusy, d.streak, d.lastSample = s.LastBusy, s.Streak, s.LastSample
}
