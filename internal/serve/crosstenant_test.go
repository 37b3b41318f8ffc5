package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"sdimm/internal/attacker"
	"sdimm/internal/rng"
)

// runTenantWindow drives n serial ops for one tenant from a seeded stream
// over its own address range.
func runTenantWindow(t *testing.T, cl *Client, seed uint64, offset, space uint64, n int) {
	t.Helper()
	r := rng.Stream(seed, "crosstenant", 0)
	for i := 0; i < n; i++ {
		req := Request{Addr: offset + r.Uint64n(space)}
		if r.Bool(0.5) {
			req.Write = true
			req.Data = []byte(fmt.Sprintf("s%d-i%04d", seed, i))
		}
		resp, err := cl.Do(req)
		if err != nil || resp.Status != StatusOK {
			t.Fatalf("seed %d op %d: %v %s", seed, i, err, StatusString(resp.Status))
		}
	}
}

// TestServeCrossTenantLinkInvariance is the tentpole's obliviousness gate
// at the link level: what tenant A's co-tenant does — which addresses it
// touches, how write-heavy it is — must be invisible in the sealed link
// traffic. We record full link traces for two serving windows whose only
// difference is the co-tenant's workload (different seed, different address
// range, different write mix), and demand (a) no frame shape appears in one
// but not the other, and (b) the traces' (SDIMM, direction, length)
// distributions are within the ordinary window-to-window noise floor —
// measured from two windows with statistically identical workloads.
func TestServeCrossTenantLinkInvariance(t *testing.T) {
	rec := attacker.NewLinkRecorder()
	cfg := baseConfig(t)
	cfg.Cluster.LinkTap = rec.Tap
	s, addr := startServer(t, cfg)
	defer s.Shutdown(context.Background())

	const perTenant = 150
	window := func(seedA, seedB, offB uint64, writeFracB float64) *attacker.LinkTrace {
		clA, err := Dial(addr, "victim")
		if err != nil {
			t.Fatal(err)
		}
		defer clA.Close()
		clB, err := Dial(addr, "cotenant")
		if err != nil {
			t.Fatal(err)
		}
		defer clB.Close()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			runTenantWindow(t, clA, seedA, 0, 64, perTenant)
		}()
		go func() {
			defer wg.Done()
			rB := rng.Stream(seedB, "crosstenant-b", 0)
			for i := 0; i < perTenant; i++ {
				req := Request{Addr: offB + rB.Uint64n(64)}
				if rB.Bool(writeFracB) {
					req.Write = true
					req.Data = []byte(fmt.Sprintf("b%d-%04d", seedB, i))
				}
				resp, err := clB.Do(req)
				if err != nil || resp.Status != StatusOK {
					t.Errorf("cotenant seed %d op %d: %v %s", seedB, i, err, StatusString(resp.Status))
					return
				}
			}
		}()
		wg.Wait()
		return rec.Cut()
	}

	// Calibration window (shape learning) before any comparison.
	window(100, 300, 1000, 0.5)

	// Noise floor: two windows with identical co-tenant configuration,
	// fresh seeds — the distance an attacker must already tolerate.
	n1 := window(101, 301, 1000, 0.5)
	n2 := window(102, 302, 1000, 0.5)
	noise, err := attacker.LinkTotalVariation(n1, n2)
	if err != nil {
		t.Fatal(err)
	}

	// Probe: the co-tenant changes everything it can — seed, address
	// range, write mix — while tenant A and the op counts stay fixed in
	// distribution.
	p1 := window(103, 303, 1000, 0.5)
	p2 := window(104, 500, 9000, 0.9)
	cross, err := attacker.LinkTotalVariation(p1, p2)
	if err != nil {
		t.Fatal(err)
	}

	// (a) No novel frame shapes.
	known := n1.Shapes()
	for sh := range n2.Shapes() {
		known[sh] = true
	}
	for sh := range p1.Shapes() {
		known[sh] = true
	}
	for sh := range p2.Shapes() {
		if !known[sh] {
			t.Fatalf("co-tenant workload change produced novel frame shape %+v", sh)
		}
	}
	// (b) Distributional distance within the ordinary noise band.
	limit := 1.5*noise + 0.02
	if cross > limit {
		t.Fatalf("co-tenant workload observable on the links: cross-TV %.4f > %.4f (noise %.4f)",
			cross, limit, noise)
	}
	t.Logf("noise floor %.4f, co-tenant-change cross-TV %.4f", noise, cross)

	// (c) The witness stayed green across every window.
	if v := s.Witness().Verdict(); !v.OK {
		t.Fatalf("witness tripped: %+v", v)
	}

	// (d) Every member carried traffic in the probe window — no tenant's
	// placement silences a link.
	perMember := map[int]int{}
	for _, e := range p2.Events {
		perMember[e.SDIMM]++
	}
	for m := 0; m < 4; m++ {
		if perMember[m] == 0 {
			t.Fatalf("member %d silent during probe window", m)
		}
	}
}

// TestServeCrossTenantOverloadWitness runs the witness gate while the
// server is actively shedding: a co-tenant storm must not bend the victim's
// observable traffic — shapes stay calibrated, balance holds, and the
// victim still gets goodput.
func TestServeCrossTenantOverloadWitness(t *testing.T) {
	s, addr := startServer(t, baseConfig(t))
	defer s.Shutdown(context.Background())

	var wg sync.WaitGroup
	wg.Add(1)
	var stormRep LoadReport
	go func() {
		defer wg.Done()
		var err error
		stormRep, err = RunLoad(LoadOptions{
			Addr: addr, Tenant: "storm", Workers: 160, Ops: 1600,
			Space: 64, DeadlineMS: 2000, Seed: 13,
		})
		if err != nil {
			t.Errorf("storm: %v", err)
		}
	}()

	victim, err := Dial(addr, "victim")
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	st := &BlockStore{C: victim, DeadlineMS: 2000, Retries: 20}
	ok := 0
	for i := 0; i < 60; i++ {
		v := fmt.Sprintf("victim-%04d", i)
		if err := st.Write(uint64(i%16), []byte(v)); err == nil {
			ok++
		}
	}
	wg.Wait()

	if ok == 0 {
		t.Fatal("victim starved completely during co-tenant storm")
	}
	if stormRep.Shed == 0 {
		t.Fatalf("storm was not actually overloading: %+v", stormRep)
	}
	slo := s.SLO()
	if !slo.Witness.OK {
		t.Fatalf("witness tripped during overload: %+v", slo.Witness)
	}
	if slo.AcceptedDeadlineMissed != 0 {
		t.Fatalf("%d accepted deadline misses during storm", slo.AcceptedDeadlineMissed)
	}
}
