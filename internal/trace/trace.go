// Package trace records flit-lifecycle and compute-layer events from one
// simulation and renders them as Chrome/Perfetto trace-event JSON.
//
// The design splits recording from rendering. During the run every event
// is a fixed-size binary Record appended to an in-memory buffer (optionally
// a bounded ring that keeps only the newest records, for multi-billion-
// cycle runs); JSON is produced once, at dump time. Recording therefore
// costs one bounds check and a struct copy per event, and a disabled
// tracer costs a single nil comparison at the instrumentation site:
//
//	if r.tr != nil {
//	        r.tr.Emit(trace.Record{...})
//	}
//
// A nil *Tracer is valid and inert — every method has a nil-receiver fast
// path — so components hold a plain field and never branch on a separate
// "enabled" flag.
//
// One Tracer belongs to one simulation goroutine and is not locked.
// Parallel sweeps give every engine its own Tracer and merge them through
// a Collector, whose registration and dump paths are mutex-protected.
package trace

// Kind identifies what happened. The lifecycle kinds follow one flit
// through the network (§III-D of the paper: inject, VC allocation, switch
// allocation, link traversal, ejection); the remaining kinds cover the
// SnackNoC compute layer (RCU operand capture/execution, CPM scheduling).
type Kind uint8

// Event kinds.
const (
	// KindInject: a packet entered NI injection queues.
	KindInject Kind = iota
	// KindFlitSend: the NI put one flit onto its router's local link.
	KindFlitSend
	// KindFlitArrive: a router buffered an arriving flit (span start for
	// the router-residency duration event).
	KindFlitArrive
	// KindVCAlloc: a head flit was granted an output virtual channel.
	KindVCAlloc
	// KindSwitch: a flit won switch allocation and traversed the crossbar
	// onto its output link (span end: Start holds the arrival cycle).
	KindSwitch
	// KindEject: a flit reached the ejection-side network interface.
	KindEject
	// KindDeliver: a packet finished reassembly and was delivered (span:
	// Start holds the packet's inject cycle).
	KindDeliver
	// KindConsume: a router compute unit consumed a snack flit on arrival.
	KindConsume
	// KindDrain: the CPM absorbed a buffered loop token (overflow path).
	KindDrain
	// KindRCUCapture: an RCU captured operand value(s) from a data token
	// (Aux holds the fill count).
	KindRCUCapture
	// KindRCUExec: an RCU dispatched an instruction to its ALU (span:
	// Start holds the dispatch cycle, Cycle the completion).
	KindRCUExec
	// KindRCUEmit: an RCU queued a result token for injection.
	KindRCUEmit
	// KindCPMIssue: the CPM issued one instruction or reinjected one
	// spilled token onto the NoC.
	KindCPMIssue
	// KindCPMSubmit: a kernel was accepted by the CPM (Aux: entry count).
	KindCPMSubmit
	// KindCPMFinish: a kernel completed and its results were written back.
	KindCPMFinish
	// KindCPMThrottle: the CPM held issue this cycle because the ALO
	// congestion estimator reported the NoC congested.
	KindCPMThrottle
	// KindCounter: a windowed counter sample ("C" phase in the JSON dump).
	// Aux holds the counter-track id (see Tracer.CounterTrack), Packet the
	// sample value; Node is -1 — counter tracks are per-process, not per
	// (node, unit) thread.
	KindCounter
	numKinds
)

// kindNames index by Kind; these become the event names in the JSON dump.
var kindNames = [numKinds]string{
	"inject", "flit-send", "flit-arrive", "vc-alloc", "switch",
	"eject", "deliver", "consume", "drain", "rcu-capture",
	"rcu-exec", "rcu-emit", "cpm-issue", "cpm-submit", "cpm-finish",
	"cpm-throttle", "counter",
}

// String returns the event name used in the JSON dump.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Unit is the hardware track an event belongs to; each (node, unit) pair
// becomes one named thread track in the trace viewer.
type Unit uint8

// Track units.
const (
	UnitRouter Unit = iota
	UnitNI
	UnitCompute // RCU and CPM share the node's compute track
)

// unit maps a Kind to its track.
func (k Kind) unit() Unit {
	switch k {
	case KindInject, KindFlitSend, KindEject, KindDeliver:
		return UnitNI
	case KindFlitArrive, KindVCAlloc, KindSwitch, KindConsume, KindDrain:
		return UnitRouter
	default:
		return UnitCompute
	}
}

// Priority classes, mirroring the router's §III-D3 arbitration split.
const (
	ClassComm  = 0 // communication (CMP) traffic — keeps priority
	ClassSnack = 1 // snack (compute) traffic — fills the slack
)

// Record is one fixed-size binary trace event. Cycle is when the event
// happened; Start, for span kinds (KindSwitch, KindDeliver, KindRCUExec),
// is when the spanned interval began and equals Cycle for instants.
// Port/VNet/VC/Seq are -1 when not applicable.
type Record struct {
	Cycle  int64
	Start  int64
	Packet uint64
	Node   int32
	Aux    int32
	Seq    int16
	Kind   Kind
	Class  int8
	Port   int8
	VNet   int8
	VC     int8
}

// Instant fills the common case of a point event: Start == Cycle and no
// flit coordinates.
func Instant(k Kind, cycle int64, node int32) Record {
	return Record{Kind: k, Cycle: cycle, Start: cycle, Node: node,
		Port: -1, VNet: -1, VC: -1, Seq: -1}
}

// Tracer accumulates Records for one simulation. The zero limit keeps
// every record; a positive limit keeps only the newest limit records in a
// ring (the "-trace-last N" mode), counting the overwritten ones.
type Tracer struct {
	name    string
	limit   int
	recs    []Record
	next    int // ring write position once len(recs) == limit
	wrapped bool
	dropped int64
	tracks  []string // counter-track names, indexed by KindCounter Aux
}

// New returns a tracer labelled name. limit <= 0 records everything;
// limit > 0 keeps only the newest limit records.
func New(name string, limit int) *Tracer {
	if limit < 0 {
		limit = 0
	}
	return &Tracer{name: name, limit: limit}
}

// Emit appends one record. Nil-safe: a nil tracer discards the event
// after a single comparison, which is the disabled fast path.
func (t *Tracer) Emit(r Record) {
	if t == nil {
		return
	}
	if t.limit > 0 && len(t.recs) == t.limit {
		t.recs[t.next] = r
		t.next++
		if t.next == t.limit {
			t.next = 0
		}
		t.wrapped = true
		t.dropped++
		return
	}
	t.recs = append(t.recs, r)
}

// Dropped returns how many records the ring overwrote.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// CounterTrack registers a named counter track and returns its id, to
// be carried in a KindCounter record's Aux. Tracks survive ring wrap —
// only records live in the ring.
func (t *Tracer) CounterTrack(name string) int32 {
	if t == nil {
		return -1
	}
	t.tracks = append(t.tracks, name)
	return int32(len(t.tracks) - 1)
}

// CounterTrackName resolves a track id ("" when out of range).
func (t *Tracer) CounterTrackName(id int32) string {
	if t == nil || id < 0 || int(id) >= len(t.tracks) {
		return ""
	}
	return t.tracks[id]
}

// Records returns the held records oldest-first. The slice is a copy when
// the ring has wrapped and the live buffer otherwise; callers must not
// mutate it either way.
func (t *Tracer) Records() []Record {
	if t == nil {
		return nil
	}
	if !t.wrapped {
		return t.recs
	}
	out := make([]Record, 0, len(t.recs))
	out = append(out, t.recs[t.next:]...)
	out = append(out, t.recs[:t.next]...)
	return out
}
