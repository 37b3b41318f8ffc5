package durable

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"sdimm/internal/oram"
)

// checkpointMagic identifies a checkpoint file (version 4: the body of
// version 3 sealed with AES-GCM in place of an HMAC-SHA256 trailer).
const checkpointMagic = "SDIMMCP4"

// saltSize is the random salt in every file header, tagSize the AES-GCM
// tag that ends every seal.
const saltSize, tagSize = 16, 16

// fileAEAD draws salt afresh when fresh is set, and returns the AES-256-GCM
// of the file it heads, keyed SHA-256("sdimm/durable/v1|" ‖ salt ‖ key). No
// two files share a key, so a nonce — 4 zero bytes and a seq: 0 for a
// checkpoint or a header, a group's first seq — need only be unique in one.
func fileAEAD(key []byte, salt *[saltSize]byte, fresh bool) cipher.AEAD {
	if fresh {
		rand.Read(salt[:]) // cannot fail: crypto/rand crashes the program instead
	}
	k := sha256.Sum256(append(append([]byte("sdimm/durable/v1|"), salt[:]...), key...))
	blk, _ := aes.NewCipher(k[:]) // neither call can fail on a 32-byte key
	a, _ := cipher.NewGCM(blk)
	return a
}

// PosEntry is one position-map binding. For the Independent protocol Value
// encodes the global leaf (SDIMM routing included); for Split it is the
// shared local leaf.
type PosEntry struct {
	Addr  uint64
	Value uint64
}

// BucketState is one sealed tree bucket at its store index, its bytes
// captured verbatim (counter || AES-GCM ciphertext || 12-byte GCM tag).
// Restoring the raw form keeps the at-rest tags intact so the recovery
// scrub can re-verify every bucket.
type BucketState struct {
	Idx uint64
	Raw []byte
}

// HealthState snapshots one member's fault state machine.
type HealthState struct {
	State       int
	Consecutive int
	Successes   uint64
	Failures    uint64
}

// MemberState is everything mutable inside one SDIMM plus its host-side
// session: RNG streams, the blocks held outside the tree (stash and transfer
// queue, as the engine and buffer hand them out), sealed buckets, health,
// and the seccomm send/receive counters of both link endpoints.
type MemberState struct {
	EngineRNG [4]uint64
	BufferRNG [4]uint64
	Stash     []oram.Block  // sorted by Addr
	Transfer  []oram.Block  // queue order (head first)
	Buckets   []BucketState // sorted by Idx
	Health    HealthState
	HostSend  uint64
	HostRecv  uint64
	DevSend   uint64
	DevRecv   uint64
	// Incarnation counts how many times this slot has been (re)populated:
	// 0 for the founding member, +1 per join. Join replay derives the fresh
	// member's seeds from (cluster seed, slot, incarnation), so a recovered
	// run rebuilds bit-identical members.
	Incarnation uint64
	// Detached marks a slot whose member was removed and not yet replaced.
	// A detached slot holds no blocks and serves no exchanges.
	Detached bool
	// Ring is the engine's ring-eviction state (eviction pointer, flush
	// phase, dead-slot masks), nil for a path-mode member. The codec walks
	// it; the engine validates it on restore.
	Ring *oram.RingState
}

// DrainState is one in-progress drain: how many migration steps have
// committed for the member being drained. Completed drains leave the list.
type DrainState struct {
	Member uint64 // slot index being drained
	Moved  uint64 // migration records committed for this drain
}

// Checkpoint is the full recoverable state of a cluster at sequence Seq
// (Seq = number of committed logical records: workload accesses plus
// migration and topology records).
type Checkpoint struct {
	FP        [8]byte
	Seq       uint64
	RNG       [4]uint64  // cluster-level coordinator RNG
	Positions []PosEntry // sorted by Addr
	Members   []MemberState
	Poisoned  []uint64     // sorted addrs lost to unrecoverable corruption
	MigSeq    uint64       // lifetime count of committed migration records
	TopoSeq   uint64       // lifetime count of committed topology records
	Drains    []DrainState // sorted by Member
}

// codec is a cursor over persisted bytes that runs in one of two
// directions: encoding appends each visited field to b, decoding consumes it
// from the front of b into the field. All integers are big-endian. The first
// error sticks; every later decoded field is then a no-op. Every durable
// byte is a walk of it: the checkpoint envelope (envelope) and body (walk),
// a member's ring section (ring), the journal header (header) and each
// record group (group, of records), with seal as the walks' AES-GCM step.
type codec struct {
	b   []byte
	dec bool
	err error
}

func (c *codec) fail(why string) {
	if c.err == nil {
		c.err = errors.New(why)
	}
}

// take consumes the next n body bytes, or returns nil once they run past
// the body (a truncated field, or a byte string longer than the body) or an
// earlier field failed.
func (c *codec) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n > len(c.b) {
		c.fail("truncated body")
		return nil
	}
	p := c.b[:n]
	c.b = c.b[n:]
	return p
}

// fixed codes a fixed-width byte field.
func (c *codec) fixed(p []byte) {
	if !c.dec {
		c.b = append(c.b, p...)
		return
	}
	copy(p, c.take(len(p)))
}

func (c *codec) u64(v *uint64) {
	if !c.dec {
		c.b = binary.BigEndian.AppendUint64(c.b, *v)
	} else if p := c.take(8); p != nil {
		*v = binary.BigEndian.Uint64(p)
	}
}

// magic codes a file's fixed identifier: decoding fails unless the next
// bytes are exactly m.
func (c *codec) magic(m string) {
	p := []byte(m)
	if c.fixed(p); string(p) != m {
		c.fail("bad magic")
	}
}

// u8 codes one byte.
func (c *codec) u8(v *byte) {
	if !c.dec {
		c.b = append(c.b, *v)
	} else if p := c.take(1); p != nil {
		*v = p[0]
	}
}

// u32 codes an int as a 32-bit field (list counts, byte lengths, health).
func (c *codec) u32(v *int) {
	if !c.dec {
		c.b = binary.BigEndian.AppendUint32(c.b, uint32(*v))
	} else if p := c.take(4); p != nil {
		*v = int(binary.BigEndian.Uint32(p))
	}
}

func (c *codec) rng(s *[4]uint64) {
	for i := range s {
		c.u64(&s[i])
	}
}

// flag codes a bool as one byte that must decode as 0 or 1.
func (c *codec) flag(v *bool) {
	var b byte
	if *v {
		b = 1
	}
	if c.u8(&b); b > 1 {
		c.fail("flag byte not 0 or 1")
	}
	*v = b == 1
}

// bytes codes a u32-length-prefixed byte string. A decoded length must fit
// in the rest of the body (take checks it); an empty string decodes as nil.
func (c *codec) bytes(p *[]byte) {
	n := len(*p)
	c.u32(&n)
	if !c.dec {
		c.b = append(c.b, *p...)
	} else if src := c.take(n); len(src) > 0 {
		*p = append([]byte(nil), src...)
	}
}

// padded codes a payload as exactly n bytes, zero-padded. Encoding fails on
// a longer payload; decoding takes exactly n bytes and leaves *p a view of
// them, not a copy.
func (c *codec) padded(p *[]byte, n int) {
	if c.dec {
		*p = c.take(n)
	} else if len(*p) > n {
		c.fail(fmt.Sprintf("payload %d bytes exceeds %d", len(*p), n))
	} else {
		c.b = append(append(c.b, *p...), make([]byte, n-len(*p))...)
	}
}

// seal is a walk's AES-GCM step, under nonce and additional data ad.
// Encoding seals everything walked since offset from in place and appends
// the tag. Decoding opens the next n bytes and their tag in place and
// returns the plaintext, or fails the walk and returns nil.
func (c *codec) seal(a cipher.AEAD, nonce, ad []byte, from, n int) []byte {
	if !c.dec {
		c.b = a.Seal(c.b[:from], nonce, c.b[from:], ad)
		return nil
	}
	if p := c.take(n + tagSize); p != nil {
		if pt, err := a.Open(p[:0], nonce, p, ad); err == nil {
			return pt
		}
		c.fail("failed authentication")
	}
	return nil
}

// list codes a u32 count followed by each element through f. A decoded
// count is checked against the rest of the body at minSize bytes per entry
// before anything is allocated, so a corrupt count cannot drive allocation.
func list[T any](c *codec, s *[]T, minSize int, f func(*T)) {
	n := len(*s)
	c.u32(&n)
	if c.dec {
		if c.err != nil || uint64(n)*uint64(minSize) > uint64(len(c.b)) {
			c.fail("list count exceeds body")
			return
		}
		*s = make([]T, n)
	}
	for i := range *s {
		f(&(*s)[i])
	}
}

// walk visits every checkpoint field in file order. It is the one statement
// of the checkpoint format: encodeCheckpoint and decodeCheckpoint both run
// it, so a format change is a change here (and to checkpointMagic).
func (c *codec) walk(cp *Checkpoint) {
	block := func(b *oram.Block) { c.u64(&b.Addr); c.u64(&b.Leaf); c.bytes(&b.Data) }
	const blockMin, memberMin = 8 + 8 + 4, 32 + 32 + 3*4 + 2*4 + 2*8 + 4*8 + 8 + 1 + 4
	c.fixed(cp.FP[:])
	c.u64(&cp.Seq)
	c.rng(&cp.RNG)
	list(c, &cp.Positions, 16, func(p *PosEntry) { c.u64(&p.Addr); c.u64(&p.Value) })
	list(c, &cp.Members, memberMin, func(m *MemberState) {
		c.rng(&m.EngineRNG)
		c.rng(&m.BufferRNG)
		list(c, &m.Stash, blockMin, block)
		list(c, &m.Transfer, blockMin, block)
		list(c, &m.Buckets, 8+4, func(b *BucketState) { c.u64(&b.Idx); c.bytes(&b.Raw) })
		c.u32(&m.Health.State)
		c.u32(&m.Health.Consecutive)
		c.u64(&m.Health.Successes)
		c.u64(&m.Health.Failures)
		c.u64(&m.HostSend)
		c.u64(&m.HostRecv)
		c.u64(&m.DevSend)
		c.u64(&m.DevRecv)
		c.u64(&m.Incarnation)
		c.flag(&m.Detached)
		c.ring(&m.Ring)
	})
	list(c, &cp.Poisoned, 8, c.u64)
	c.u64(&cp.MigSeq)
	c.u64(&cp.TopoSeq)
	list(c, &cp.Drains, 16, func(d *DrainState) { c.u64(&d.Member); c.u64(&d.Moved) })
}

// ring codes a member's ring-eviction section behind a u32 byte length: 0
// for nil (a path-mode member), else 16 + 16·n for the counter, the phase,
// the entry count and n (bucket, mask) entries. The length prefix is what
// the section carried when it was an opaque byte string, so every file
// decodes and re-encodes unchanged; a decoder walks the section inside
// exactly that many bytes and fails on any left over.
func (c *codec) ring(p **oram.RingState) {
	n := 0
	if *p != nil {
		n = 16 + 16*len((*p).Dead)
	}
	c.u32(&n)
	s := c
	if c.dec {
		s = &codec{b: c.take(n), dec: true, err: c.err}
		if n > 0 {
			*p = new(oram.RingState)
		}
	}
	if st := *p; st != nil {
		s.u64(&st.Counter)
		s.u32(&st.Phase)
		list(s, &st.Dead, 16, func(d *oram.DeadSlots) { s.u64(&d.Bucket); s.u64(&d.Mask) })
	}
	if len(s.b) != 0 && s.dec {
		s.fail("ring section length does not match its entry count")
	}
	c.err = s.err
}

// envelope codes a checkpoint file's frame ahead of the sealed body: the
// magic, the salt and the body length (the tag not included). It is the
// additional data of the body's seal.
func (c *codec) envelope(salt *[saltSize]byte, n *uint64) {
	c.magic(checkpointMagic)
	c.fixed(salt[:])
	c.u64(n)
}

// encodeCheckpoint serializes and seals a checkpoint under a fresh salt: the
// envelope, then the walked body sealed in place. The envelope goes out
// first with a zero length and is walked again in place once the body's
// length is known.
func encodeCheckpoint(key []byte, cp *Checkpoint) []byte {
	var salt [saltSize]byte
	var n uint64
	a := fileAEAD(key, &salt, true)
	var c codec
	c.envelope(&salt, &n)
	head := len(c.b)
	c.walk(cp)
	n = uint64(len(c.b) - head)
	(&codec{b: c.b[:0]}).envelope(&salt, &n)
	c.seal(a, make([]byte, 12), c.b[:head], head, 0)
	return c.b
}

// decodeBody walks an opened checkpoint body, which must be consumed
// exactly.
func decodeBody(body []byte) (*Checkpoint, error) {
	c := codec{b: body, dec: true}
	cp := &Checkpoint{}
	c.walk(cp)
	if c.err != nil {
		return nil, fmt.Errorf("durable: corrupt checkpoint: %w", c.err)
	}
	if len(c.b) != 0 {
		return nil, fmt.Errorf("durable: %d trailing bytes after checkpoint body", len(c.b))
	}
	return cp, nil
}

// decodeCheckpoint opens and parses a checkpoint file, in place: data is
// the decoder's. Any truncation, trailing garbage, or failed tag rejects
// the whole file — recovery then falls back to the previous checkpoint.
func decodeCheckpoint(key, data []byte) (*Checkpoint, error) {
	c := codec{b: data, dec: true}
	var salt [saltSize]byte
	var n uint64
	c.envelope(&salt, &n)
	if c.err != nil || len(c.b) < tagSize || n != uint64(len(c.b)-tagSize) {
		return nil, errors.New("durable: bad checkpoint magic or length")
	}
	body := c.seal(fileAEAD(key, &salt, false), make([]byte, 12), data[:len(data)-len(c.b)], 0, int(n))
	if c.err != nil {
		return nil, errors.New("durable: checkpoint failed authentication")
	}
	return decodeBody(body)
}
