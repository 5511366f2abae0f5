package noc

import "fmt"

// QueueLen returns the number of packets queued or mid-injection at the
// NI for the given vnet; test injectors throttle themselves on it.
func (ni *NI) QueueLen(vnet int) int {
	n := ni.waiting[vnet].count()
	for _, t := range ni.active {
		if int(t.vnet) == vnet {
			n++
		}
	}
	for _, r := range ni.incoming {
		if r.pkt.VNet == vnet {
			n++
		}
	}
	return n
}

// count walks the chain and returns its length.
func (q *chain) count() int {
	n := 0
	for e := q.head; e != nil; e = e.next {
		n++
	}
	return n
}

// Outstanding returns gets minus puts on the network's pool: the flits
// and the packet envelopes currently out of it.
func (n *Network) Outstanding() (flits, envelopes int) {
	return n.pool.flits.Out(), n.pool.pkts.Out()
}

// CheckDrained is the drain-conservation check (ROADMAP 6e, noc half): on
// a network that has run to quiescence — whether or not it restored a
// checkpoint or reset on the way — every pooled flit and envelope is
// back in a pool, no buffer slot holds a flit, no NI holds a packet and
// no reassembly slot a head flit. It returns the first leak found.
func (n *Network) CheckDrained() error {
	if flits, envelopes := n.Outstanding(); flits != 0 || envelopes != 0 {
		return fmt.Errorf("noc: %d pooled flits and %d packet envelopes outstanding at drain", flits, envelopes)
	}
	for slot, f := range n.bufSlab {
		if f != nil {
			return fmt.Errorf("noc: buffer slot %d still holds %s at drain", slot, f)
		}
	}
	for i := range n.nis {
		ni := &n.nis[i]
		waiting := 0
		for v := range ni.waiting {
			waiting += ni.waiting[v].count()
		}
		if len(ni.incoming) != 0 || waiting != 0 || ni.waitingCount != 0 || len(ni.active) != 0 {
			return fmt.Errorf("noc: %s holds %d incoming, %d waiting (count %d) and %d active packets at drain",
				ni.Name(), len(ni.incoming), waiting, ni.waitingCount, len(ni.active))
		}
		for slot, f := range ni.reasm {
			if f != nil {
				return fmt.Errorf("noc: %s reassembly slot %d still holds %s at drain", ni.Name(), slot, f)
			}
		}
	}
	return nil
}

// Payloads returns the payload of every packet the network holds, in
// walk order: on a buffered flit, a head flit parked for reassembly or a
// flit on a wire, and in an NI's incoming, waiting and active envelopes.
// Call it between cycles, when no router or NI has a flit staged.
func (n *Network) Payloads() []any {
	var out []any
	add := func(p any) {
		if p != nil {
			out = append(out, p)
		}
	}
	for _, f := range n.bufSlab {
		if f != nil {
			add(f.Payload)
		}
	}
	for _, f := range n.reasm {
		if f != nil {
			add(f.Payload)
		}
	}
	for k := range n.flitWires {
		for _, e := range n.flitWires[k].q {
			add(e.f.Payload)
		}
	}
	for i := range n.nis {
		ni := &n.nis[i]
		for _, r := range ni.incoming {
			add(r.pkt.Payload)
		}
		for v := range ni.waiting {
			for e := ni.waiting[v].head; e != nil; e = e.next {
				add(e.Payload)
			}
		}
		for _, t := range ni.active {
			add(t.pkt.Payload)
		}
	}
	return out
}

// FreeOutputVCsAtLeast exposes the ALO detector's early-exit count.
func (r *Router) FreeOutputVCsAtLeast(n int) bool { return r.freeOutputVCsAtLeast(n) }

// xbarSamples returns a copy of r's crossbar samples.
func xbarSamples(r *Router) []float64 {
	if r.samples == nil {
		return nil
	}
	return r.samples.Column(int(r.id))
}

// XbarMoves returns the cumulative count of crossbar traversals.
func (r *Router) XbarMoves() int64 { return r.xbarMoves.Value() }

// LoopNext returns the router's successor on the transient-data loop.
func (r *Router) LoopNext() NodeID { return r.loopNext }

// NI returns the network interface at the given node.
func (n *Network) NI(id NodeID) *NI { return &n.nis[id] }
