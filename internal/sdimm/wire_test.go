package sdimm

import (
	"bytes"
	"testing"
	"testing/quick"

	"sdimm/internal/oram"
)

func TestAccessWireRoundTrip(t *testing.T) {
	req := AccessRequest{
		Addr: 42, Op: oram.OpWrite, Data: bytes.Repeat([]byte{7}, 64),
		OldLeaf: 9, NewLeaf: 13, Keep: true,
	}
	got, err := UnmarshalAccessView(AppendAccess(nil, req, 64), 64)
	if err != nil {
		t.Fatal(err)
	}
	if got.Addr != 42 || got.Op != oram.OpWrite || got.OldLeaf != 9 || got.NewLeaf != 13 || !got.Keep {
		t.Fatalf("round trip: %+v", got)
	}
	if !bytes.Equal(got.Data, req.Data) {
		t.Fatal("payload lost")
	}
}

func TestAccessWireReadHidesPayload(t *testing.T) {
	// Reads and writes must be the same wire length (op hiding), and a
	// read decodes with no payload attached.
	r := AppendAccess(nil, AccessRequest{Addr: 1, Op: oram.OpRead}, 64)
	w := AppendAccess(nil, AccessRequest{Addr: 1, Op: oram.OpWrite, Data: make([]byte, 64)}, 64)
	if len(r) != len(w) {
		t.Fatalf("read frame %d bytes, write frame %d", len(r), len(w))
	}
	got, err := UnmarshalAccessView(r, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got.Data != nil {
		t.Fatal("read carried payload")
	}
}

func TestWireLengthChecks(t *testing.T) {
	if _, err := UnmarshalAccessView([]byte{1, 2, 3}, 64); err == nil {
		t.Error("short ACCESS accepted")
	}
	if _, _, err := UnmarshalBlockView([]byte{1}, 64); err == nil {
		t.Error("short block message accepted")
	}
}

func TestResponseWire(t *testing.T) {
	resp := AccessResponse{Block: oram.Block{Addr: 7, Leaf: 3, Data: bytes.Repeat([]byte{9}, 64)}}
	got, dummy, err := UnmarshalBlockView(AppendBlock(nil, resp.Block, resp.Dummy, 64), 64)
	if err != nil {
		t.Fatal(err)
	}
	if dummy || got.Addr != 7 || got.Leaf != 3 || !bytes.Equal(got.Data, resp.Block.Data) {
		t.Fatalf("round trip: %v %+v", dummy, got)
	}
	// Dummy responses look identical in length.
	d := AppendBlock(nil, oram.Block{}, true, 64)
	if len(d) != len(AppendBlock(nil, resp.Block, false, 64)) {
		t.Fatal("dummy response length differs")
	}
	if _, dummy, err := UnmarshalBlockView(d, 64); err != nil || !dummy {
		t.Fatalf("dummy round trip: %v %v", dummy, err)
	}
}

// TestWireDecodersReturnViews pins the decoders' contract: a payload is the
// tail of the body it was decoded from, not a copy, so a caller that keeps
// it past the body's reuse must copy it out.
func TestWireDecodersReturnViews(t *testing.T) {
	data := bytes.Repeat([]byte{5}, 64)
	bodies := []struct {
		name string
		body []byte
		view func(b []byte) []byte
	}{
		{"ACCESS", AppendAccess(nil, AccessRequest{Addr: 1, Op: oram.OpWrite, Data: data}, 64), func(b []byte) []byte {
			r, err := UnmarshalAccessView(b, 64)
			if err != nil {
				t.Fatal(err)
			}
			return r.Data
		}},
		{"block", AppendBlock(nil, oram.Block{Addr: 1, Data: data}, false, 64), func(b []byte) []byte {
			blk, _, err := UnmarshalBlockView(b, 64)
			if err != nil {
				t.Fatal(err)
			}
			return blk.Data
		}},
	}
	for _, c := range bodies {
		got := c.view(c.body)
		if len(got) != 64 || &got[0] != &c.body[len(c.body)-64] {
			t.Errorf("%s: payload is not the body's last 64 bytes", c.name)
		}
		c.body[len(c.body)-1] = 0xee
		if got[63] != 0xee {
			t.Errorf("%s: payload does not see a write to the body", c.name)
		}
	}
}

// Property: APPEND frames round-trip for arbitrary blocks and are
// length-identical to dummies.
func TestPropertyAppendWire(t *testing.T) {
	f := func(addr, leaf uint64, payload [64]byte, dummy bool) bool {
		blk := oram.Block{Addr: addr, Leaf: leaf, Data: payload[:]}
		frame := AppendBlock(nil, blk, dummy, 64)
		if len(frame) != len(AppendBlock(nil, oram.Block{}, true, 64)) {
			return false
		}
		got, gotDummy, err := UnmarshalBlockView(frame, 64)
		if err != nil || gotDummy != dummy {
			return false
		}
		if dummy {
			return true
		}
		return got.Addr == addr && got.Leaf == leaf && bytes.Equal(got.Data, payload[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
