package trace

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Validate checks that data is well-formed Chrome trace-event JSON of the
// shape this package emits: a top-level object with a "traceEvents" array
// (or a bare array), every event carrying a name, a known phase, and the
// per-phase required fields. It is the CI smoke gate for -trace output,
// so it reports the first violation with its event index.
func Validate(data []byte) error {
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("trace: not valid JSON: %w", err)
	}
	var events []any
	switch d := doc.(type) {
	case []any:
		events = d
	case map[string]any:
		te, ok := d["traceEvents"]
		if !ok {
			return fmt.Errorf("trace: top-level object lacks \"traceEvents\"")
		}
		events, ok = te.([]any)
		if !ok {
			return fmt.Errorf("trace: \"traceEvents\" is not an array")
		}
	default:
		return fmt.Errorf("trace: top level is neither object nor array")
	}
	for i, e := range events {
		if err := validateEvent(e); err != nil {
			return fmt.Errorf("trace: event %d: %w", i, err)
		}
	}
	return nil
}

func validateEvent(e any) error {
	ev, ok := e.(map[string]any)
	if !ok {
		return fmt.Errorf("not an object")
	}
	name, ok := ev["name"].(string)
	if !ok || name == "" {
		return fmt.Errorf("missing or empty \"name\"")
	}
	ph, ok := ev["ph"].(string)
	if !ok {
		return fmt.Errorf("%q: missing \"ph\"", name)
	}
	if _, ok := number(ev["pid"]); !ok {
		return fmt.Errorf("%q: missing numeric \"pid\"", name)
	}
	switch ph {
	case "M":
		if name != "process_name" && name != "thread_name" {
			return fmt.Errorf("metadata event %q is not a name record", name)
		}
		argm, ok := ev["args"].(map[string]any)
		if !ok {
			return fmt.Errorf("%q: metadata without args", name)
		}
		if s, ok := argm["name"].(string); !ok || s == "" {
			return fmt.Errorf("%q: metadata args lack a name", name)
		}
		return nil
	case "X":
		if err := requireTime(ev, name, "ts"); err != nil {
			return err
		}
		return requireTime(ev, name, "dur")
	case "i", "I":
		return requireTime(ev, name, "ts")
	case "B", "E":
		return requireTime(ev, name, "ts")
	case "C":
		if err := requireTime(ev, name, "ts"); err != nil {
			return err
		}
		argm, ok := ev["args"].(map[string]any)
		if !ok {
			return fmt.Errorf("%q: counter without args", name)
		}
		if _, ok := number(argm["value"]); !ok {
			return fmt.Errorf("%q: counter args lack a numeric value", name)
		}
		return nil
	default:
		return fmt.Errorf("%q: unknown phase %q", name, ph)
	}
}

func requireTime(ev map[string]any, name, key string) error {
	v, ok := number(ev[key])
	if !ok {
		return fmt.Errorf("%q: missing numeric %q", name, key)
	}
	if v < 0 {
		return fmt.Errorf("%q: negative %q (%v)", name, key, v)
	}
	return nil
}

func number(v any) (float64, bool) {
	f, ok := v.(float64)
	return f, ok
}

// DroppedFromJSON sums the ring-overwritten event counts a dump's
// process names advertise ("<name> (ring: N events dropped)").
// snackscope check-trace warns when the total is nonzero — a wrapped ring means
// the trace silently lost its oldest events. Malformed input returns 0;
// run Validate first for structural errors.
func DroppedFromJSON(data []byte) int64 {
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0
	}
	var total int64
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "M" || ev.Name != "process_name" {
			continue
		}
		i := strings.LastIndex(ev.Args.Name, "(ring: ")
		if i < 0 {
			continue
		}
		var n int64
		if _, err := fmt.Sscanf(ev.Args.Name[i:], "(ring: %d events dropped)", &n); err == nil {
			total += n
		}
	}
	return total
}
