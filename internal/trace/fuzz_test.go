package trace

import (
	"bytes"
	"testing"
)

// FuzzValidateTrace checks the trace-JSON readers on inputs the fuzzer
// picks: go test -fuzz FuzzValidateTrace ./internal/trace. Neither
// Validate nor DroppedFromJSON panics on any document, and a tracer
// named by the fuzzer, with a counter track named the same, writes a
// dump that Validate accepts. Its corpus is in
// testdata/fuzz/FuzzValidateTrace.
func FuzzValidateTrace(f *testing.F) {
	for _, c := range []struct{ name, doc string }{
		{"sim", `{"traceEvents":[{"name":"process_name","ph":"M","pid":1,"args":{"name":"x (ring: 3 events dropped)"}}]}`},
		{"a\x01b", `[{"name":"x","ph":"X","ts":1,"dur":2,"pid":1}]`},
		{"", `{"traceEvents":[{"name":"c","ph":"C","ts":1,"pid":1,"args":{"value":2}}]}`},
		{"\xff", `{"traceEvents":{}}`},
		{"x (ring: 9223372036854775807 events dropped)", `{"traceEvents":[{"name":"process_name","ph":"M","pid":1,"args":{"name":"(ring: 99999999999999999999 events dropped)"}}]}`},
	} {
		f.Add(c.name, []byte(c.doc))
	}
	f.Fuzz(func(t *testing.T, name string, doc []byte) {
		_ = Validate(doc)
		_ = DroppedFromJSON(doc)

		tr := New(name, 0)
		track := tr.CounterTrack(name)
		tr.Emit(Instant(KindInject, 1, 0))
		tr.Emit(Record{Kind: KindCounter, Cycle: 2, Aux: track, Packet: 3})
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if err := Validate(buf.Bytes()); err != nil {
			t.Fatalf("a tracer named %q wrote a dump that does not validate: %v\n%s", name, err, buf.Bytes())
		}
		_ = DroppedFromJSON(buf.Bytes())
	})
}
