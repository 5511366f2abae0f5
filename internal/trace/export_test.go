package trace

import (
	"bufio"
	"fmt"
	"io"
)

// Events returns the total number of records held across tracers.
func (c *Collector) Events() int {
	n := 0
	for _, t := range c.Tracers() {
		n += t.Len()
	}
	return n
}

// Name returns the tracer's label (the process track name in the dump).
func (t *Tracer) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// WriteJSON dumps the tracer's records as trace-event JSON under the
// given process id. Records are emitted in timestamp order.
func (t *Tracer) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")
	first := true
	if err := t.writeEvents(bw, 1, &first); err != nil {
		return err
	}
	fmt.Fprintf(bw, "\n]}\n")
	return bw.Flush()
}

// Len returns the number of records currently held.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.recs)
}
