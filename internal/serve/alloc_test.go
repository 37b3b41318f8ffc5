package serve

import (
	"context"
	"testing"

	"sdimm/internal/raceflag"
)

// TestServeRoundTripAllocBudget holds one served round trip at 8 objects
// for a write and 9 for a read, counted over both ends of the wire in one
// process as the benchmark runs them: a warm client's Do over loopback TCP,
// through admission and the pipeline, and back. Each end still encodes,
// frames, reads and boxes a decoded message per frame; a read adds the
// payload the pipeline hands back. The client's reusable calls and Decode's
// views into the frame took off three: 13 and 14 when each Do made a result
// channel (two objects) and Decode copied the payload. Peeking each frame's
// length from the bufio.Reader took off two more, one header per end. Part
// of `make alloc-gates`.
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
		{"write", Request{Addr: 5, Write: true, Data: payload}, 8},
		{"read", Request{Addr: 5}, 9},
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
