// Package integrity implements PMMAC-style memory authentication as used by
// Freecursive ORAM and inherited by the SDIMM protocols: every bucket
// carries a MAC bound to (bucket position, monotonic write counter, bucket
// contents), so stale or relocated ciphertext is detected without a Merkle
// tree — the position map already authenticates freshness transitively.
//
// Since sealed-bucket format 2 the functional store authenticates a bucket
// with the AES-GCM tag of the call that encrypts it, bound to the same
// (position, counter) through the nonce. PMMAC stays for what still holds its
// tags: oram.MemStore.RestoreRaw verifies a format-1 bucket with it before
// resealing it format 2, and benchmark/ times it as a primitive. Chain
// authenticates the durability journal.
//
// PMMAC and Chain keep their HMAC state and output scratch across calls so
// the verify/append paths are allocation-free; as a consequence neither type
// is safe for concurrent use. Every holder in this repo (a MemStore upgrading
// a bucket, a durable Manager) is already single-threaded by construction.
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

// Tag computes the MAC for a whole (unsplit) bucket. The result is a fresh
// allocation the caller owns; the hot path uses AppendTag instead.
func (p *PMMAC) Tag(bucket uint64, counter uint64, data []byte) []byte {
	return append([]byte(nil), p.tag(bucket, counter, data)...)
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
// the field once told a whole-bucket tag from a per-shard one, and the
// format-1 buckets still on disk verify under those bytes.
func (p *PMMAC) tag(bucket uint64, counter uint64, data []byte) []byte {
	p.mac.Reset()
	binary.BigEndian.PutUint64(p.hdr[0:8], bucket)
	binary.BigEndian.PutUint32(p.hdr[8:12], ^uint32(0))
	binary.BigEndian.PutUint64(p.hdr[12:20], counter)
	p.mac.Write(p.hdr[:])
	p.mac.Write(data)
	return p.mac.Sum(p.sum[:0])[:TagSize]
}

// ChainTagSize is the per-record MAC size of a journal hash chain.
const ChainTagSize = 16

// Chain authenticates an append-only record sequence (the durability
// journal): each record's tag is an HMAC over the previous tag and the
// record bytes, so truncating, reordering, or splicing records breaks the
// chain at the first tampered point and the decoder fails closed there.
// Not safe for concurrent use.
type Chain struct {
	mac  hash.Hash
	last []byte
}

// NewChain starts a chain under key, seeded with an initial link (the
// journal header's MAC), which binds every record to its file's identity.
func NewChain(key, seed []byte) *Chain {
	return &Chain{
		mac:  hmac.New(sha256.New, key),
		last: append(make([]byte, 0, sha256.Size), seed...),
	}
}

// Next absorbs one record and returns its ChainTagSize-byte tag as a fresh
// allocation. The tag becomes the chain state for the following record.
func (c *Chain) Next(record []byte) []byte {
	c.advance(record)
	return append([]byte(nil), c.last...)
}

// AppendNext absorbs one record and appends its tag to dst, returning the
// extended slice — the allocation-free form of Next. record may alias dst:
// it is fully absorbed before dst is extended.
func (c *Chain) AppendNext(dst, record []byte) []byte {
	c.advance(record)
	return append(dst, c.last...)
}

func (c *Chain) advance(record []byte) {
	c.mac.Reset()
	c.mac.Write(c.last)
	c.mac.Write(record)
	c.last = c.mac.Sum(c.last[:0])[:ChainTagSize]
}
