// Package integrity implements PMMAC-style memory authentication as used by
// Freecursive ORAM and inherited by the SDIMM protocols: every bucket
// carries a MAC bound to (bucket position, monotonic write counter, bucket
// contents), so stale or relocated ciphertext is detected without a Merkle
// tree — the position map already authenticates freshness transitively.
//
// Nothing in the functional stack calls it: the store authenticates a
// bucket with the AES-GCM tag of the call that encrypts it, bound to the
// same (position, counter) through the nonce, and the links and the state
// directory seal with AES-GCM too. PMMAC stays as the primitive that
// benchmark/ times against the store's seal.
//
// PMMAC keeps its HMAC state and output scratch across calls so the verify
// path is allocation-free; as a consequence it is not safe for concurrent
// use.
package integrity

import (
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"hash"
)

// TagSize is the truncated MAC size in bytes, matching the 8-byte per-bucket
// MAC budget assumed by the paper's bucket layout.
const TagSize = 8

// PMMAC authenticates buckets under one secret key. Not safe for concurrent
// use: the HMAC state and output buffer are reused across calls.
type PMMAC struct {
	mac hash.Hash
	hdr [20]byte
	sum [sha256.Size]byte
}

// New creates a PMMAC instance with the given key. The key is copied.
func New(key []byte) *PMMAC {
	return &PMMAC{mac: hmac.New(sha256.New, key)}
}

// AppendTag appends the whole-bucket MAC to dst and returns the extended
// slice, allocating only if dst lacks capacity.
func (p *PMMAC) AppendTag(dst []byte, bucket uint64, counter uint64, data []byte) []byte {
	return append(dst, p.tag(bucket, counter, data)...)
}

// Verify checks a whole-bucket MAC in constant time. It does not allocate.
func (p *PMMAC) Verify(bucket uint64, counter uint64, data, tag []byte) bool {
	want := p.tag(bucket, counter, data)
	return len(tag) == TagSize && subtle.ConstantTimeCompare(want, tag) == 1
}

// tag returns the truncated MAC in p's reusable output buffer — valid only
// until the next call on p. Header bytes 8…11 are the constant 0xffffffff:
// the field once told a whole-bucket tag from a per-shard one.
func (p *PMMAC) tag(bucket uint64, counter uint64, data []byte) []byte {
	p.mac.Reset()
	binary.BigEndian.PutUint64(p.hdr[0:8], bucket)
	binary.BigEndian.PutUint32(p.hdr[8:12], ^uint32(0))
	binary.BigEndian.PutUint64(p.hdr[12:20], counter)
	p.mac.Write(p.hdr[:])
	p.mac.Write(data)
	return p.mac.Sum(p.sum[:0])[:TagSize]
}
