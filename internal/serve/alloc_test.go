package serve

import (
	"context"
	"testing"

	"sdimm/internal/raceflag"
)

// TestServeRoundTripAllocBudget holds one served round trip at 0 objects
// for a write and 2 for a read, counted over both ends of the wire in one
// process as the benchmark runs them: a warm client's Do over loopback TCP,
// through admission and the pipeline, and back. Nothing on the wire
// allocates once a connection is warm: each end frames into and reads into
// buffers it reuses, the typed decoders box no message, and the server's
// reader swaps frames with the slot it takes. A read's 2 objects are its
// block, copied once by the pipeline out of the access response and once by
// the client for the caller, who owns resp.Data. Before the wire reused its
// frames the budget was 8 and 9: each end encoded, framed, read and boxed a
// message per frame. Part of `make alloc-gates`.
func TestServeRoundTripAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc gates run without -race")
	}
	s, addr := startServer(t, baseConfig(t))
	defer s.Shutdown(context.Background())
	cl, err := Dial(addr, "alloc")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	payload := make([]byte, cl.BlockSize())
	for _, tc := range []struct {
		name   string
		req    Request
		budget float64
	}{
		{"write", Request{Addr: 5, Write: true, Data: payload}, 0},
		{"read", Request{Addr: 5}, 2},
	} {
		do := func() {
			if resp, err := cl.Do(tc.req); err != nil || resp.Status != StatusOK {
				t.Fatalf("%s: %v %s", tc.name, err, StatusString(resp.Status))
			}
		}
		for i := 0; i < 100; i++ { // warm credit to its ceiling and the pools
			do()
		}
		got := testing.AllocsPerRun(500, do)
		t.Logf("%s: %.0f objects per round trip", tc.name, got)
		if got > tc.budget {
			t.Errorf("%s: a served round trip allocates %.0f objects, budget %.0f", tc.name, got, tc.budget)
		}
	}
}
