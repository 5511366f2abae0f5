package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// This file renders recorded events in the Chrome trace-event format
// (the JSON Perfetto and chrome://tracing load directly): an object with
// a "traceEvents" array of metadata ("M"), complete-span ("X"), and
// instant ("i") events. One simulation is one process track (pid); each
// router, NI, and compute unit is one named thread track (tid) within it.
// Cycles map 1:1 onto the viewer's microsecond timestamps.

// tid flattens (node, unit) into a stable thread id.
func tid(node int32, u Unit) int32 { return node*3 + int32(u) }

var unitPrefix = [3]string{"router", "ni", "snack"}

var classNames = [2]string{"comm", "snack"}

func className(c int8) string {
	if c == ClassSnack {
		return classNames[ClassSnack]
	}
	return classNames[ClassComm]
}

// writeEvents emits one tracer's metadata and events under pid, keeping
// the shared first-comma state for merged dumps.
func (t *Tracer) writeEvents(bw *bufio.Writer, pid int, first *bool) error {
	if t == nil {
		return nil
	}
	recs := t.Records()
	// Spans use Start as their viewer timestamp, so a strict-ts dump needs
	// a sorted index; the sort is stable on (ts, record order).
	idx := make([]int, len(recs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return recs[idx[a]].Start < recs[idx[b]].Start
	})

	emit := func(format string, args ...any) {
		if !*first {
			bw.WriteString(",")
		}
		*first = false
		bw.WriteString("\n")
		fmt.Fprintf(bw, format, args...)
	}

	name := t.name
	if name == "" {
		name = "sim"
	}
	if t.dropped > 0 {
		name = fmt.Sprintf("%s (ring: %d events dropped)", name, t.dropped)
	}
	emit(`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%s}}`, pid, jsonString(name))

	// Name every (node, unit) track that appears. Counter samples live on
	// named process-level counter tracks, not (node, unit) threads.
	seen := map[int32]bool{}
	for _, r := range recs {
		if r.Kind == KindCounter {
			continue
		}
		u := r.Kind.unit()
		id := tid(r.Node, u)
		if !seen[id] {
			seen[id] = true
			emit(`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":"%s%d"}}`,
				pid, id, unitPrefix[u], r.Node)
		}
	}

	for _, i := range idx {
		r := recs[i]
		u := r.Kind.unit()
		switch r.Kind {
		case KindCounter:
			track := t.CounterTrackName(r.Aux)
			if track == "" {
				track = "counter"
			}
			emit(`{"name":%s,"ph":"C","ts":%d,"pid":%d,"args":{"value":%d}}`,
				jsonString(track), r.Cycle, pid, r.Packet)
		case KindSwitch, KindDeliver, KindRCUExec:
			dur := r.Cycle - r.Start
			if dur < 0 {
				dur = 0
			}
			emit(`{"name":%s,"ph":"X","ts":%d,"dur":%d,"pid":%d,"tid":%d,"args":{%s}}`,
				jsonString(spanName(r)), r.Start, dur, pid, tid(r.Node, u), args(r))
		default:
			emit(`{"name":%s,"ph":"i","ts":%d,"pid":%d,"tid":%d,"s":"t","args":{%s}}`,
				jsonString(r.Kind.String()), r.Cycle, pid, tid(r.Node, u), args(r))
		}
	}
	return nil
}

// jsonString quotes s by JSON's rules. Go's %q is not JSON for a control
// byte or invalid UTF-8: it writes \x01 where JSON needs \u0001.
func jsonString(s string) string {
	b, _ := json.Marshal(s) // a string always marshals
	return string(b)
}

// spanName labels a duration event: flit spans by packet.seq so one
// flit's hops line up across router tracks, RCU spans by the event name.
func spanName(r Record) string {
	switch r.Kind {
	case KindSwitch:
		return fmt.Sprintf("pkt%d.%d", r.Packet, r.Seq)
	case KindDeliver:
		return fmt.Sprintf("pkt%d", r.Packet)
	default:
		return r.Kind.String()
	}
}

// args renders the record's coordinates, omitting unset (-1) fields.
func args(r Record) string {
	s := fmt.Sprintf(`"class":%q`, className(r.Class))
	if r.Packet != 0 {
		s += fmt.Sprintf(`,"pkt":%d`, r.Packet)
	}
	if r.Seq >= 0 {
		s += fmt.Sprintf(`,"seq":%d`, r.Seq)
	}
	if r.VNet >= 0 {
		s += fmt.Sprintf(`,"vnet":%d`, r.VNet)
	}
	if r.VC >= 0 {
		s += fmt.Sprintf(`,"vc":%d`, r.VC)
	}
	if r.Port >= 0 {
		s += fmt.Sprintf(`,"port":%d`, r.Port)
	}
	if r.Aux != 0 {
		s += fmt.Sprintf(`,"aux":%d`, r.Aux)
	}
	return s
}

// Collector merges the tracers of a multi-simulation run (a parallel
// experiment sweep) into one dump, one process track per tracer. NewTracer
// and WriteJSON are safe to call from concurrent sweep workers; each
// returned Tracer itself must stay on its simulation's goroutine.
type Collector struct {
	mu      sync.Mutex
	limit   int
	tracers []*Tracer
}

// NewCollector returns a collector whose tracers keep the newest limit
// records each (<= 0: unbounded).
func NewCollector(limit int) *Collector {
	return &Collector{limit: limit}
}

// NewTracer registers and returns a tracer for one simulation.
func (c *Collector) NewTracer(name string) *Tracer {
	t := New(name, c.limit)
	c.mu.Lock()
	c.tracers = append(c.tracers, t)
	c.mu.Unlock()
	return t
}

// Tracers returns the registered tracers in registration order.
func (c *Collector) Tracers() []*Tracer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Tracer(nil), c.tracers...)
}

// WriteJSON dumps every registered tracer into one trace-event JSON
// document, sorted by tracer name so parallel sweep completion order
// cannot change the output.
func (c *Collector) WriteJSON(w io.Writer) error {
	tracers := c.Tracers()
	sort.SliceStable(tracers, func(a, b int) bool { return tracers[a].name < tracers[b].name })
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")
	first := true
	for i, t := range tracers {
		if err := t.writeEvents(bw, i+1, &first); err != nil {
			return err
		}
	}
	fmt.Fprintf(bw, "\n]}\n")
	return bw.Flush()
}
