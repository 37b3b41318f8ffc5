package sdimm

import (
	"encoding/binary"
	"fmt"

	"sdimm/internal/oram"
)

// Wire marshalling for the message bodies that travel (sealed by package
// seccomm) between the CPU and the secure buffers. Fixed-size layouts keep
// every message of a given kind the same length on the bus — part of the
// protocol's obliviousness argument. There are two layouts, ACCESS and the
// block message that FETCH_RESULT and APPEND share; each has one encoder,
// which appends, and one decoder, whose payload is a view into the body.

const wireHeader = 8 + 1 + 8 + 8 + 1 // addr, op, oldLeaf, newLeaf, keep

// AppendAccess appends the encoded AccessRequest (with a blockBytes payload
// slot — dummy data for reads, so reads and writes are indistinguishable) to
// dst and returns the extended slice.
func AppendAccess(dst []byte, req AccessRequest, blockBytes int) []byte {
	base := len(dst)
	dst = appendZeros(dst, wireHeader+blockBytes)
	out := dst[base:]
	binary.BigEndian.PutUint64(out[0:], req.Addr)
	if req.Op == oram.OpWrite {
		out[8] = 1
	}
	binary.BigEndian.PutUint64(out[9:], req.OldLeaf)
	binary.BigEndian.PutUint64(out[17:], req.NewLeaf)
	if req.Keep {
		out[25] = 1
	}
	copy(out[wireHeader:], req.Data)
	return dst
}

// UnmarshalAccessView decodes an AccessRequest whose Data (writes only)
// aliases b — zero-copy for dispatchers that consume the request before the
// underlying frame is reused.
func UnmarshalAccessView(b []byte, blockBytes int) (AccessRequest, error) {
	if len(b) != wireHeader+blockBytes {
		return AccessRequest{}, fmt.Errorf("sdimm: ACCESS body %d bytes, want %d", len(b), wireHeader+blockBytes)
	}
	req := AccessRequest{
		Addr:    binary.BigEndian.Uint64(b[0:]),
		OldLeaf: binary.BigEndian.Uint64(b[9:]),
		NewLeaf: binary.BigEndian.Uint64(b[17:]),
		Keep:    b[25] == 1,
	}
	if b[8] == 1 {
		req.Op = oram.OpWrite
		req.Data = b[wireHeader:]
	}
	return req, nil
}

// appendZeros extends dst by n zero bytes (reusing capacity when present).
func appendZeros(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		tail := dst[len(dst) : len(dst)+n]
		clear(tail)
		return dst[:len(dst)+n]
	}
	return append(dst, make([]byte, n)...)
}

const blockHeader = 1 + 8 + 8 // dummy flag, addr, leaf

// AppendBlock appends the encoded block message to dst and returns the
// extended slice. The FETCH_RESULT response and the APPEND command carry
// the same body: a dummy flag, the block's addr and leaf, and a blockBytes
// payload slot, all zero for a dummy.
func AppendBlock(dst []byte, blk oram.Block, dummy bool, blockBytes int) []byte {
	base := len(dst)
	dst = appendZeros(dst, blockHeader+blockBytes)
	out := dst[base:]
	if dummy {
		out[0] = 1
		return dst
	}
	binary.BigEndian.PutUint64(out[1:], blk.Addr)
	binary.BigEndian.PutUint64(out[9:], blk.Leaf)
	copy(out[blockHeader:], blk.Data)
	return dst
}

// UnmarshalBlockView decodes a block message (a FETCH_RESULT response or an
// APPEND body) whose Data aliases b — zero-copy: the caller owns b and
// copies out what must outlive it.
func UnmarshalBlockView(b []byte, blockBytes int) (blk oram.Block, dummy bool, err error) {
	if len(b) != blockHeader+blockBytes {
		return oram.Block{}, false, fmt.Errorf("sdimm: block message %d bytes, want %d", len(b), blockHeader+blockBytes)
	}
	if b[0] == 1 {
		return oram.Block{}, true, nil
	}
	return oram.Block{
		Addr: binary.BigEndian.Uint64(b[1:]),
		Leaf: binary.BigEndian.Uint64(b[9:]),
		Data: b[blockHeader:],
	}, false, nil
}
