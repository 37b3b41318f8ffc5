package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Event is one Chrome trace-event (the JSON array format consumed by
// Perfetto and chrome://tracing). Timestamps are in the recording clock's
// units, emitted in the "ts"/"dur" microsecond fields: the event-driven
// simulator maps one CPU cycle to one displayed microsecond.
type Event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Tracer records finished spans, each with explicit start and end stamps in
// the caller's clock units (the timing simulator's cycles; the flight
// recorder's microseconds), and exports them as Chrome trace-event JSON. All
// methods are safe on a nil receiver (no-ops), so components can be
// instrumented unconditionally; non-nil tracers are safe for concurrent use.
// Lanes stand in for thread IDs: one access holds a lane for its lifetime so
// its spans nest properly in the viewer.
type Tracer struct {
	mu     sync.Mutex
	events []Event
	lanes  []bool // lane allocation bitmap; index = tid
}

// NewTracer builds an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Lane allocates the lowest free lane (trace tid). Release it with
// FreeLane when the access completes.
func (t *Tracer) Lane() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, used := range t.lanes {
		if !used {
			t.lanes[i] = true
			return i
		}
	}
	t.lanes = append(t.lanes, true)
	return len(t.lanes) - 1
}

// FreeLane returns a lane to the pool.
func (t *Tracer) FreeLane(lane int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if lane >= 0 && lane < len(t.lanes) {
		t.lanes[lane] = false
	}
}

// Complete records a finished span [start, end] on the given lane.
func (t *Tracer) Complete(lane int, name, cat string, start, end uint64) {
	t.CompleteArgs(lane, name, cat, start, end, nil)
}

// CompleteArgs is Complete with span arguments attached.
func (t *Tracer) CompleteArgs(lane int, name, cat string, start, end uint64, args map[string]any) {
	if t == nil {
		return
	}
	if end < start {
		end = start
	}
	t.mu.Lock()
	t.events = append(t.events, Event{
		Name: name, Cat: cat, Ph: "X", TS: start, Dur: end - start,
		PID: 1, TID: lane, Args: args,
	})
	t.mu.Unlock()
}

// Events returns a copy of the recorded events (tests and exporters).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// Len reports the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// traceFile is the Chrome trace-event JSON object format.
type traceFile struct {
	TraceEvents     []Event `json:"traceEvents"`
	DisplayTimeUnit string  `json:"displayTimeUnit,omitempty"`
}

// WriteJSON exports the recorded events as a Chrome trace-event JSON
// object ({"traceEvents": [...]}) that Perfetto and chrome://tracing open
// directly.
func (t *Tracer) WriteJSON(w io.Writer) error {
	tf := traceFile{TraceEvents: t.Events(), DisplayTimeUnit: "ms"}
	if tf.TraceEvents == nil {
		tf.TraceEvents = []Event{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(tf)
}

// validPhases are the trace-event phase codes this exporter emits.
var validPhases = map[string]bool{"X": true, "i": true, "I": true, "B": true, "E": true, "C": true, "M": true}

// ValidateTrace schema-checks Chrome trace-event JSON produced by
// WriteJSON (or compatible tools): a top-level object with a traceEvents
// array whose entries carry a name, a known phase, and a non-negative
// timestamp. It returns the number of events.
func ValidateTrace(data []byte) (int, error) {
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		return 0, fmt.Errorf("telemetry: trace is not a JSON object: %w", err)
	}
	if tf.TraceEvents == nil {
		return 0, fmt.Errorf("telemetry: trace has no traceEvents array")
	}
	for i, ev := range tf.TraceEvents {
		name, ok := ev["name"].(string)
		if !ok || name == "" {
			return 0, fmt.Errorf("telemetry: event %d has no name", i)
		}
		ph, ok := ev["ph"].(string)
		if !ok || !validPhases[ph] {
			return 0, fmt.Errorf("telemetry: event %d (%q) has invalid phase %v", i, name, ev["ph"])
		}
		ts, ok := ev["ts"].(float64)
		if !ok || ts < 0 {
			return 0, fmt.Errorf("telemetry: event %d (%q) has invalid ts %v", i, name, ev["ts"])
		}
		if dur, present := ev["dur"]; present {
			d, ok := dur.(float64)
			if !ok || d < 0 {
				return 0, fmt.Errorf("telemetry: event %d (%q) has invalid dur %v", i, name, dur)
			}
		}
	}
	return len(tf.TraceEvents), nil
}
