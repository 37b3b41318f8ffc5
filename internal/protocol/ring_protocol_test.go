package protocol

import (
	"testing"

	"sdimm/internal/config"
	"sdimm/internal/event"
)

func TestRingReadsComplete(t *testing.T) {
	eng := &event.Engine{}
	b, err := NewRing(eng, cfgFor(config.Ring, 2, 20))
	if err != nil {
		t.Fatal(err)
	}
	drive(t, eng, b, 60, 4)
	st := b.Stats()
	if st.Probes == 0 {
		t.Fatal("no PROBE polling happened")
	}
	if st.HostBytes == 0 {
		t.Fatal("no host traffic")
	}
	// The wire shape is Independent's: one APPEND per SDIMM per accessORAM.
	var appends, dummies uint64
	for _, buf := range b.Buffers() {
		if !buf.Engine().Ring() {
			t.Fatal("ring backend built a path-mode engine")
		}
		s := buf.Stats()
		appends += s.Appends
		dummies += s.DummyAppends
	}
	if appends+dummies != st.AccessORAMs*uint64(4) {
		t.Fatalf("appends %d + dummies %d != 4*accesses %d", appends, dummies, 4*st.AccessORAMs)
	}
	chans, local := b.Channels()
	if len(chans) != 4 || !local[0] {
		t.Fatalf("want 4 on-DIMM channels, got %d local=%v", len(chans), local)
	}
}

func TestRingFactory(t *testing.T) {
	eng := &event.Engine{}
	b, err := New(eng, cfgFor(config.Ring, 1, 20))
	if err != nil {
		t.Fatal(err)
	}
	rb, ok := b.(*IndependentBackend)
	if !ok {
		t.Fatalf("factory returned %T", b)
	}
	if !rb.ring {
		t.Fatal("factory built a non-ring backend for config.Ring")
	}
	drive(t, eng, rb, 20, 9)
}

// TestRingLocalWritesBelowIndependent is the protocol-level half of the
// ring write-reduction claim (the functional half is
// TestClusterRingWriteReduction in the root package): the same workload
// generates materially fewer DRAM write commands on the on-DIMM buses under
// ring eviction, because only the deferred flushes (one path per A accesses,
// plus stash-pressure extras) write buckets back.
func TestRingLocalWritesBelowIndependent(t *testing.T) {
	localWrites := func(b Backend) uint64 {
		chans, _ := b.Channels()
		var w uint64
		for _, ch := range chans {
			w += ch.Stats().Writes
		}
		return w
	}

	engI := &event.Engine{}
	bi, err := NewIndependent(engI, cfgFor(config.Independent, 1, 20))
	if err != nil {
		t.Fatal(err)
	}
	drive(t, engI, bi, 80, 7)
	indW := localWrites(bi)

	engR := &event.Engine{}
	br, err := NewRing(engR, cfgFor(config.Ring, 1, 20))
	if err != nil {
		t.Fatal(err)
	}
	drive(t, engR, br, 80, 7)
	ringW := localWrites(br)

	if indW == 0 {
		t.Fatal("independent run produced no DRAM writes")
	}
	if float64(ringW) >= 0.8*float64(indW) {
		t.Fatalf("ring local writes %d not below 80%% of independent %d", ringW, indW)
	}
}

func TestRingDeterministicReplay(t *testing.T) {
	run := func() (event.Time, BackendStats) {
		eng := &event.Engine{}
		b, err := NewRing(eng, cfgFor(config.Ring, 1, 20))
		if err != nil {
			t.Fatal(err)
		}
		end := drive(t, eng, b, 50, 11)
		return end, b.Stats()
	}
	e1, s1 := run()
	e2, s2 := run()
	if e1 != e2 {
		t.Fatalf("end times differ: %d vs %d", e1, e2)
	}
	s1.MissLatency, s2.MissLatency = nil, nil
	if s1 != s2 {
		t.Fatalf("stats differ:\n%+v\n%+v", s1, s2)
	}
}
