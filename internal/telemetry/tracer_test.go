package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

func TestTracerSpansAndExport(t *testing.T) {
	tr := NewTracer()

	lane := tr.Lane()
	if lane != 0 {
		t.Fatalf("first lane = %d, want 0", lane)
	}
	lane2 := tr.Lane()
	if lane2 != 1 {
		t.Fatalf("second lane = %d, want 1", lane2)
	}
	tr.FreeLane(lane2)
	if got := tr.Lane(); got != 1 {
		t.Fatalf("freed lane not reused: got %d", got)
	}

	tr.Complete(lane, "link.send", "link", 100, 120)
	tr.CompleteArgs(lane, "dram.path", "dram", 120, 150, map[string]any{"sd": 3})
	tr.CompleteArgs(lane, "miss", "access", 100, 150, map[string]any{"addr": 42})
	tr.Complete(lane, "health", "fault", 150, 150)

	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	// The miss span covers [100, 150].
	var miss *Event
	for i := range evs {
		if evs[i].Name == "miss" {
			miss = &evs[i]
		}
	}
	if miss == nil || miss.TS != 100 || miss.Dur != 50 || miss.Ph != "X" {
		t.Fatalf("miss span = %+v", miss)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	n, err := ValidateTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("ValidateTrace: %v", err)
	}
	if n != 4 {
		t.Fatalf("validated %d events, want 4", n)
	}
	if !strings.Contains(buf.String(), `"traceEvents"`) {
		t.Fatalf("export missing traceEvents: %s", buf.String())
	}
}

func TestTracerBackwardsSpanClamped(t *testing.T) {
	tr := NewTracer()
	tr.Complete(0, "x", "c", 50, 40) // end < start must clamp, not underflow
	ev := tr.Events()[0]
	if ev.Dur != 0 || ev.TS != 50 {
		t.Fatalf("clamped span = %+v", ev)
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	lane := tr.Lane()
	tr.FreeLane(lane)
	tr.Complete(lane, "a", "b", 0, 1)
	tr.CompleteArgs(lane, "a", "b", 0, 1, nil)
	if tr.Len() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer recorded something")
	}
}

func TestValidateTraceRejects(t *testing.T) {
	cases := map[string]string{
		"not json":     `[{]`,
		"no array":     `{"foo": 1}`,
		"missing name": `{"traceEvents":[{"ph":"X","ts":1}]}`,
		"bad phase":    `{"traceEvents":[{"name":"a","ph":"Z","ts":1}]}`,
		"missing ts":   `{"traceEvents":[{"name":"a","ph":"X"}]}`,
		"negative dur": `{"traceEvents":[{"name":"a","ph":"X","ts":1,"dur":-5}]}`,
		"string ts":    `{"traceEvents":[{"name":"a","ph":"X","ts":"now"}]}`,
	}
	for what, data := range cases {
		if _, err := ValidateTrace([]byte(data)); err == nil {
			t.Errorf("%s: validated but should not", what)
		}
	}
	if n, err := ValidateTrace([]byte(`{"traceEvents":[]}`)); err != nil || n != 0 {
		t.Fatalf("empty trace: n=%d err=%v", n, err)
	}
}
