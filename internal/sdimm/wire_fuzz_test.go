package sdimm

import (
	"bytes"
	"testing"

	"sdimm/internal/oram"
)

// The wire decoders sit directly behind the authenticated channel, but the
// fault layer deliberately feeds them traffic that survived bit-flips and
// truncation in tests — and defence in depth says a hostile buffer must
// never be able to panic the host. Each fuzz target checks two properties:
// no panic on arbitrary input, and accept→re-encode→accept stability.

func fuzzBlockSizes(i int) int {
	// Exercise a few plausible block sizes, including degenerate ones.
	return []int{0, 1, 8, 64, 256}[((i%5)+5)%5]
}

func FuzzUnmarshalAccess(f *testing.F) {
	f.Add(AppendAccess(nil, AccessRequest{Addr: 7, Op: oram.OpWrite, Data: make([]byte, 64),
		OldLeaf: 3, NewLeaf: 9, Keep: true}, 64), 64)
	f.Add(AppendAccess(nil, AccessRequest{Addr: 1, Op: oram.OpRead, OldLeaf: 0, NewLeaf: 0}, 8), 8)
	f.Add([]byte{}, 64)
	f.Add(bytes.Repeat([]byte{0xff}, 200), 64)
	f.Fuzz(func(t *testing.T, data []byte, szHint int) {
		sz := fuzzBlockSizes(szHint)
		req, err := UnmarshalAccessView(data, sz)
		if err != nil {
			return
		}
		// Round-trip: a message we accepted must re-encode to bytes we
		// accept again, identically.
		enc := AppendAccess(nil, req, sz)
		req2, err := UnmarshalAccessView(enc, sz)
		if err != nil {
			t.Fatalf("re-encoded message rejected: %v", err)
		}
		if req2.Addr != req.Addr || req2.Op != req.Op || req2.OldLeaf != req.OldLeaf ||
			req2.NewLeaf != req.NewLeaf || req2.Keep != req.Keep {
			t.Fatalf("round trip changed the request: %+v vs %+v", req, req2)
		}
	})
}

// FuzzUnmarshalResponse covers both messages the block codec carries: the
// FETCH_RESULT response and the APPEND body. Seeds 0-2 are the response's,
// 3-4 the APPEND body's; the two sets share the dummy seed.
func FuzzUnmarshalResponse(f *testing.F) {
	f.Add(AppendBlock(nil, oram.Block{Addr: 3, Leaf: 5, Data: make([]byte, 64)}, false, 64), 64)
	f.Add(AppendBlock(nil, oram.Block{}, true, 8), 8)
	f.Add([]byte{0x01}, 64)
	f.Add(AppendBlock(nil, oram.Block{Addr: 2, Leaf: 4, Data: make([]byte, 64)}, false, 64), 64)
	f.Add(bytes.Repeat([]byte{0x55}, 17), 64)
	f.Fuzz(func(t *testing.T, data []byte, szHint int) {
		sz := fuzzBlockSizes(szHint)
		blk, dummy, err := UnmarshalBlockView(data, sz)
		if err != nil {
			return
		}
		enc := AppendBlock(nil, blk, dummy, sz)
		blk2, dummy2, err := UnmarshalBlockView(enc, sz)
		if err != nil {
			t.Fatalf("re-encoded block message rejected: %v", err)
		}
		if dummy2 != dummy || blk2.Addr != blk.Addr || blk2.Leaf != blk.Leaf || !bytes.Equal(blk2.Data, blk.Data) {
			t.Fatalf("round trip changed the block message: %v/%+v vs %v/%+v", dummy, blk, dummy2, blk2)
		}
	})
}
