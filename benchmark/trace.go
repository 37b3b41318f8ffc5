package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"sdimm/internal/fault"
)

var processStart = time.Now()

// nowNS is nanoseconds since the process started, on the monotonic clock.
func nowNS() int64 { return int64(time.Since(processStart)) }

// Span lanes of the Chrome trace: one row per kind of caller, one per link.
const (
	laneOps    = 1  // each Read/Write of the single caller
	laneDo     = 2  // each Pipeline.Do
	laneProbe  = 3  // each standalone layer probe
	laneClient = 10 // + tenant index: client send → response
	laneLink   = 20 // + SDIMM index: host frame → device frame
)

type span struct {
	name       string
	lane       int
	start, end int64
	id, parent int
}

// maxSpans bounds what a traced run keeps in memory and writes out; later
// spans are counted and dropped, the counters they feed are not affected.
const maxSpans = 200000

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu      sync.Mutex
	spans   []span
	dropped int
	// current is the id of the single caller's span in progress: the span
	// that caused whatever link exchange is observed meanwhile.
	current atomic.Int64
}

// add records a span and returns its id (0 when the log is nil or full).
func (l *spanLog) add(name string, lane int, start, end int64, parent int) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= maxSpans {
		l.dropped++
		return 0
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{name: name, lane: lane, start: start, end: end, id: id, parent: parent})
	return id
}

// open starts a span now; close ends it.
func (l *spanLog) open(name string, lane int, parent int) int {
	return l.add(name, lane, nowNS(), 0, parent)
}

// close ends the span open returned.
func (l *spanLog) close(id int) {
	if id == 0 {
		return
	}
	end := nowNS()
	l.mu.Lock()
	l.spans[id-1].end = end
	l.mu.Unlock()
}

// timed runs fn as one probe span.
func (l *spanLog) timed(name string, fn func()) {
	id := l.open(name, laneProbe, 0)
	fn()
	l.close(id)
}

// writeChrome publishes the spans as Chrome trace-event JSON (Perfetto and
// chrome://tracing open it) through a temp file and a rename.
func (l *spanLog) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args,omitempty"`
	}
	l.mu.Lock()
	events := make([]event, len(l.spans))
	for i, s := range l.spans {
		events[i] = event{Name: s.name, Ph: "X", TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: s.lane, Args: map[string]int{"id": s.id, "parent": s.parent}}
	}
	dropped := l.dropped
	l.mu.Unlock()
	return publishJSON(path, map[string]any{"traceEvents": events, "droppedSpans": dropped})
}

// publishJSON writes v to path atomically: a reader sees the old file or the
// whole new one.
func publishJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(b, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// linkTap observes what an attacker on the memory channel can: which link, which
// direction, how many bytes, when. Paired per SDIMM, a host frame and the
// device frame that answers it bound the time the device spent on the
// exchange; everything outside those intervals is host time.
type linkTap struct {
	log *spanLog
	sd  []tapLink
}

type tapLink struct {
	mu       sync.Mutex
	sentNS   int64
	frames   uint64
	bytes    uint64
	deviceNS int64
}

func newLinkTap(log *spanLog) *linkTap {
	return &linkTap{log: log, sd: make([]tapLink, members)}
}

func (t *linkTap) tap(sd int, dir fault.Direction, _ int, frame []byte) {
	now := nowNS()
	l := &t.sd[sd]
	l.mu.Lock()
	l.frames++
	l.bytes += uint64(len(frame))
	sent := l.sentNS
	if dir == fault.HostToDev {
		l.sentNS = now
	} else {
		l.deviceNS += now - sent
	}
	l.mu.Unlock()
	if dir == fault.DevToHost {
		t.log.add("exchange", laneLink+sd, sent, now, int(t.log.current.Load()))
	}
}

// totals sums the per-link counters.
func (t *linkTap) totals() (frames, bytes uint64, deviceNS int64) {
	for i := range t.sd {
		l := &t.sd[i]
		l.mu.Lock()
		frames += l.frames
		bytes += l.bytes
		deviceNS += l.deviceNS
		l.mu.Unlock()
	}
	return
}
