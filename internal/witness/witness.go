// Package witness promotes the offline attacker harness's link observables
// (internal/attacker: which link, which direction, how long — the only
// things a sealed frame leaks) into an online, bounded-memory obliviousness
// monitor for live clusters. It continuously checks two invariants on every
// tapped frame:
//
//   - Frame shape: after a short calibration window, no (member, direction)
//     may ever carry a frame length it has not already exhibited. A new
//     length is a perfect distinguisher for an attacker — the exact check
//     the elastic-rebalance harness applies offline, made continuous.
//   - Traffic balance: over a sliding window of frames, every member that
//     is receiving traffic at all must hold a share of it within a fixed
//     band around 1/members. Members with zero traffic in a window are
//     exempt — a failed or removed member is publicly observable anyway.
//
// Violations surface as telemetry counters (witness.violations{kind=...})
// and an HTTP verdict handler, turning the attacker tests into a production
// guardrail: the chaos and elastic sweeps run with the monitor attached and
// assert it stays silent.
//
// Memory is bounded by construction: per (member, direction) the monitor
// retains at most maxShapes frame lengths, plus one counter per member for
// the balance window — nothing grows with traffic.
package witness

import (
	"encoding/json"
	"net/http"
	"sync"

	"sdimm/internal/fault"
	"sdimm/internal/telemetry"
)

// Options configure a Monitor.
type Options struct {
	// Members is the cluster's member (link) count. Required.
	Members int
	// Window is the traffic-balance sliding window in frames (default
	// 4096). The check fires each time a window fills; runs shorter than
	// one window get shape checking only.
	Window int
	// Registry, when set, receives witness.frames and
	// witness.violations{kind=shape|balance} counters.
	Registry *telemetry.Registry
	// OnViolation, when set, is invoked (outside the monitor's lock, at
	// most once per Tap) after a frame raises a shape or balance
	// violation, with the violation kind ("shape" or "balance"). Serving
	// front ends hook their flight-recorder auto-dump here so the ring
	// snapshot captures the traffic that broke the invariant.
	OnViolation func(kind string)
}

// calibration is how many frames per (member, direction) may introduce new
// lengths before the shape set freezes. Every steady-state shape appears
// within the first access, so it leaves generous slack without weakening the
// check materially. maxShapes caps the learned length set per (member,
// direction); exceeding it during calibration is itself a violation — a
// channel with unbounded frame-length diversity is not shape-oblivious.
const (
	calibration = 64
	maxShapes   = 8
)

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = 4096
	}
	return o
}

// Monitor is the online obliviousness monitor. Tap it into a cluster's
// LinkTap (chaining with other taps as needed); it is safe for concurrent
// use from pipeline workers.
type Monitor struct {
	opt Options

	mu       sync.Mutex
	shapes   [][2][]int // learned frame lengths per member × direction
	seen     [][2]int   // calibration frames consumed per member × direction
	winCount []uint64   // frames per member in the current window
	winTotal int
	frames   uint64
	windows  uint64
	shapeV   uint64
	balV     uint64

	cFrames  *telemetry.Counter
	cShape   *telemetry.Counter
	cBalance *telemetry.Counter
	cWindows *telemetry.Counter
}

// New builds a monitor.
func New(opt Options) *Monitor {
	opt = opt.withDefaults()
	m := &Monitor{
		opt:      opt,
		shapes:   make([][2][]int, opt.Members),
		seen:     make([][2]int, opt.Members),
		winCount: make([]uint64, opt.Members),
		cFrames:  opt.Registry.Counter("witness.frames"),
		cShape:   opt.Registry.Counter("witness.violations", "kind", "shape"),
		cBalance: opt.Registry.Counter("witness.violations", "kind", "balance"),
		cWindows: opt.Registry.Counter("witness.windows"),
	}
	return m
}

// Tap observes one frame; it has the cluster LinkTap shape minus nothing —
// pass it directly or chain it after another tap. Retransmissions are
// ordinary observable events: a retried frame is byte-identical to the
// original by the transactor's replay-safety contract, so its length is
// always already calibrated.
func (m *Monitor) Tap(sd int, dir fault.Direction, attempt int, frame []byte) {
	if m == nil || sd < 0 || sd >= m.opt.Members {
		return
	}
	d := 0
	if dir == fault.DevToHost {
		d = 1
	}
	l := len(frame)

	m.mu.Lock()
	m.frames++
	m.cFrames.Inc()

	// Shape invariant.
	shapeFired := false
	known := false
	for _, s := range m.shapes[sd][d] {
		if s == l {
			known = true
			break
		}
	}
	if !known {
		if m.seen[sd][d] < calibration && len(m.shapes[sd][d]) < maxShapes {
			m.shapes[sd][d] = append(m.shapes[sd][d], l)
		} else {
			m.shapeV++
			m.cShape.Inc()
			shapeFired = true
		}
	}
	m.seen[sd][d]++

	// Balance invariant.
	balBefore := m.balV
	m.winCount[sd]++
	m.winTotal++
	if m.winTotal >= m.opt.Window {
		m.checkWindowLocked()
	}
	balFired := m.balV != balBefore
	m.mu.Unlock()

	if cb := m.opt.OnViolation; cb != nil {
		if shapeFired {
			cb("shape")
		}
		if balFired {
			cb("balance")
		}
	}
}

// checkWindowLocked applies the balance band to the completed window and
// resets it. The band is deliberately loose — [1/4, 4]× the fair share of
// the live members — because legitimate skew exists (the ACCESS leg lands
// only on the owning member, fault retries add frames to one link, and a
// member can fail mid-window), while a drained-by-silencing member or a
// hot-spotted channel blows far past 4×.
func (m *Monitor) checkWindowLocked() {
	live := 0
	for _, n := range m.winCount {
		if n > 0 {
			live++
		}
	}
	if live > 0 {
		fair := float64(m.winTotal) / float64(live)
		for _, n := range m.winCount {
			if n == 0 {
				continue
			}
			share := float64(n)
			if share < fair/4 || share > fair*4 {
				m.balV++
				m.cBalance.Inc()
			}
		}
	}
	m.windows++
	m.cWindows.Inc()
	clear(m.winCount)
	m.winTotal = 0
}

// Verdict is the monitor's current judgement.
type Verdict struct {
	OK                bool   `json:"ok"`
	Frames            uint64 `json:"frames"`
	Windows           uint64 `json:"windows_checked"`
	ShapeViolations   uint64 `json:"shape_violations"`
	BalanceViolations uint64 `json:"balance_violations"`
}

// Verdict snapshots the monitor. OK means zero violations of either kind.
func (m *Monitor) Verdict() Verdict {
	if m == nil {
		return Verdict{OK: true}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	v := Verdict{
		OK:                m.shapeV == 0 && m.balV == 0,
		Frames:            m.frames,
		Windows:           m.windows,
		ShapeViolations:   m.shapeV,
		BalanceViolations: m.balV,
	}
	return v
}

// Violations returns the total violation count (both kinds).
func (m *Monitor) Violations() uint64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.shapeV + m.balV
}

// Handler serves the verdict as JSON — the production guardrail endpoint
// for a serving front end: 200 with {"ok":true,...} while the invariants
// hold, 500 with the violation counts once they break.
func (m *Monitor) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		v := m.Verdict()
		w.Header().Set("Content-Type", "application/json")
		if !v.OK {
			w.WriteHeader(http.StatusInternalServerError)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(v)
	})
}
