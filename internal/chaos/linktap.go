package chaos

import (
	"bytes"
	"sync/atomic"

	"sdimm/internal/fault"
)

// linkTap judges exactly the traffic an attacker on the links would see. It
// enforces the retransmission invariant frame by frame — within one
// exchange, all frames per direction must be byte-identical (attempt 0 opens
// the exchange on the host→device leg) — counts exchanges for the driver's
// per-batch exchange-count check, and accumulates the frame shape per drain
// phase for the topology plan's checks.
//
// It is safe under the parallel engine without a lock: the aggregate
// counters are atomic, and each link's state is only ever touched by the
// single goroutine currently driving that link (worker i owns link i; the
// coordinator only uses links between barriers, which is also the only time
// it flips the phase).
type linkTap struct {
	started    atomic.Uint64 // exchanges opened (attempt-0 host→device frames)
	violations atomic.Uint64
	phase      atomic.Int32 // 0 before the drain, 1 during, 2 after
	links      []linkState
}

type linkState struct {
	req, resp []byte
	shapes    [3]map[[2]int]bool // (direction, frame length) seen, per phase
}

func newLinkTap(sdimms int) *linkTap {
	return &linkTap{links: make([]linkState, sdimms)}
}

func (t *linkTap) tap(sd int, dir fault.Direction, attempt int, frame []byte) {
	l := &t.links[sd]
	p := t.phase.Load()
	if l.shapes[p] == nil {
		l.shapes[p] = make(map[[2]int]bool)
	}
	l.shapes[p][[2]int{int(dir), len(frame)}] = true

	switch {
	case dir == fault.HostToDev && attempt == 0:
		t.started.Add(1)
		l.req = append(l.req[:0], frame...)
		l.resp = nil
	case dir == fault.HostToDev:
		if !bytes.Equal(frame, l.req) {
			t.violations.Add(1)
		}
	case l.resp == nil:
		l.resp = append([]byte(nil), frame...)
	case !bytes.Equal(frame, l.resp):
		t.violations.Add(1)
	}
}

// drainViolations applies the traffic-shape checks to a completed run: the
// drain window must introduce no new frame length on any (SDIMM, direction)
// — a migration step has to look exactly like workload on the wire — and the
// draining member must keep receiving frames for the whole window (it is
// drained by placement, not by silencing, which would be a trivially
// observable signal).
func (t *linkTap) drainViolations(member int) uint64 {
	var v uint64
	for i := range t.links {
		for shape := range t.links[i].shapes[1] {
			if !t.links[i].shapes[0][shape] {
				v++
			}
		}
	}
	if len(t.links[member].shapes[1]) == 0 {
		v++
	}
	return v
}
