package oram

import (
	"cmp"
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"sdimm/internal/integrity"
)

// DummyAddr marks an empty bucket slot.
const DummyAddr = ^uint64(0)

// Block is one ORAM block: its logical address, its assigned leaf, and (in
// functional mode) its payload.
type Block struct {
	Addr uint64
	Leaf uint64
	Data []byte // nil in sparse/timing mode
}

// IsDummy reports whether the slot is empty.
func (b Block) IsDummy() bool { return b.Addr == DummyAddr }

// Bucket is one tree node: Z slots plus the monotonic write counter used
// for encryption and PMMAC freshness.
type Bucket struct {
	Slots   []Block
	Counter uint64
}

// NewBucket returns an all-dummy bucket with z slots.
func NewBucket(z int) Bucket {
	b := Bucket{Slots: make([]Block, z)}
	for i := range b.Slots {
		b.Slots[i].Addr = DummyAddr
	}
	return b
}

// RealBlocks returns the number of non-dummy slots.
func (b Bucket) RealBlocks() int {
	n := 0
	for _, s := range b.Slots {
		if !s.IsDummy() {
			n++
		}
	}
	return n
}

// Store abstracts bucket storage. Bucket indices follow Geometry's heap
// order. Reading a never-written bucket returns an all-dummy bucket.
type Store interface {
	ReadBucket(idx uint64) (Bucket, error)
	// ReadBucketInto is ReadBucket decoding into a caller-provided bucket,
	// resizing b.Slots as needed. Slot Data may alias store-internal scratch
	// valid only until the next call on the store; callers that retain
	// payloads must copy them. This is the engine's hot-path read.
	ReadBucketInto(idx uint64, b *Bucket) error
	WriteBucket(idx uint64, b Bucket) error
	// Z returns the slots per bucket.
	Z() int
}

// resetSlots sizes b.Slots to z and fills it with dummies, reusing capacity.
func resetSlots(b *Bucket, z int) {
	if cap(b.Slots) < z {
		b.Slots = make([]Block, z)
	}
	b.Slots = b.Slots[:z]
	for i := range b.Slots {
		b.Slots[i] = Block{Addr: DummyAddr}
	}
}

// SparseStore keeps bucket placement metadata only (no payloads, no
// cryptography): the timing simulator's backing store. Memory grows with
// the number of buckets ever written.
type SparseStore struct {
	z       int
	buckets map[uint64]Bucket
}

// NewSparseStore builds an empty sparse store with z slots per bucket.
func NewSparseStore(z int) *SparseStore {
	return &SparseStore{z: z, buckets: make(map[uint64]Bucket)}
}

// Z implements Store.
func (s *SparseStore) Z() int { return s.z }

// ReadBucket implements Store.
func (s *SparseStore) ReadBucket(idx uint64) (Bucket, error) {
	if b, ok := s.buckets[idx]; ok {
		// Return a copy so callers cannot alias stored state.
		cp := Bucket{Slots: append([]Block(nil), b.Slots...), Counter: b.Counter}
		return cp, nil
	}
	return NewBucket(s.z), nil
}

// ReadBucketInto implements Store without allocating (sparse slots carry no
// payloads, so the slot copy is the whole read).
func (s *SparseStore) ReadBucketInto(idx uint64, b *Bucket) error {
	if st, ok := s.buckets[idx]; ok {
		if cap(b.Slots) < s.z {
			b.Slots = make([]Block, s.z)
		}
		b.Slots = b.Slots[:s.z]
		copy(b.Slots, st.Slots)
		b.Counter = st.Counter
		return nil
	}
	resetSlots(b, s.z)
	b.Counter = 0
	return nil
}

// WriteBucket implements Store. The write counter is owned by the store and
// advances monotonically regardless of the Counter field passed in.
func (s *SparseStore) WriteBucket(idx uint64, b Bucket) error {
	if len(b.Slots) != s.z {
		return fmt.Errorf("oram: bucket with %d slots written to Z=%d store", len(b.Slots), s.z)
	}
	old, ok := s.buckets[idx]
	if ok {
		// The stored slots are the store's own copy: overwrite them in place.
		copy(old.Slots, b.Slots)
	} else {
		old.Slots = append([]Block(nil), b.Slots...)
	}
	old.Counter++
	s.buckets[idx] = old
	return nil
}

// Materialized returns how many buckets have ever been written (test and
// memory-footprint introspection).
func (s *SparseStore) Materialized() int { return len(s.buckets) }

// ErrIntegrity is returned when a bucket fails authentication.
var ErrIntegrity = errors.New("oram: bucket failed integrity verification")

// MemStore is the functional store: every bucket is serialized and sealed
// with one AES-128-GCM call, opened with one. It is what a real secure buffer
// does to its DRAM contents; unit and property tests run the full engine
// against it. Not safe for concurrent use: the nonce, AAD and plaintext
// buffers are reused across calls.
//
// Sealed format 2 is counter(8) || GCM ciphertext || tag(12). The nonce is
// idx(6) || counter(6) with GCM's own 32-bit block counter beside it, so no
// two blocks of any two writes of any two buckets share a pad; the 8-byte
// bucket index is the AAD. The tag is bound to the nonce, which makes it
// PMMAC's (position, counter, ciphertext) binding with GHASH in HMAC's
// place: stale, relocated or flipped bytes fail Open. Both nonce fields are
// 48 bits, so the store refuses a bucket index or write counter at or past
// nonceFieldLimit. The AES key is SHA-256("sdimm/bucket/v2|" || key)[:16]:
// every byte of key reaches the cipher. Format 1 (AES-CTR under
// idx(8) || counter(8), an 8-byte PMMAC tag) is never sealed again;
// RestoreRaw recognises it by length and upgrades it (see format1).
//
// Sealed buckets (one fixed size per store) live in an arena, so an open or
// a seal finds its bucket with an array load, not a hash. The arena is lazy:
// a bucket claims the next slot the first time it is written, slots are
// carved from slabs of slabBuckets sealed buckets allocated one at a time,
// and a slab is never reallocated — a bucket's bytes stay where they were
// first put and every later write reseals them in place. Memory therefore
// follows the buckets touched, not the 2^Levels the tree could hold. index
// maps a bucket index below denseLimit to its slot and grows to the next
// power of two past the largest index written (a tree's first writeback
// reaches the leaf level, so it is sized once); the rare index at or past
// denseLimit — no tree that fits in memory has one — is kept in far, a list
// sorted by index.
//
// An engine may hand the top rows of its tree to trusted memory (setTop):
// those buckets then live in rows as plaintext, and only the rest of each
// path is sealed into the arena. Every accessor answers for a row exactly
// as it would for the same bucket in DRAM — see row.
type MemStore struct {
	z          int
	blockBytes int
	rawSize    int // counter (8) || ciphertext || tag, fixed by the shape
	gcm        cipher.AEAD
	key        []byte      // as given to NewMemStore; format1 derives the old schedule from it
	index      []uint32    // idx -> slot, 0 = never written; len is a power of two
	far        []farBucket // buckets at idx >= denseLimit, ascending
	slabs      [][]byte    // slot n (1-based) is the (n-1)th rawSize run across the slabs
	slots      uint32      // slots claimed so far
	writes     uint64      // physical bucket seals (see Writes)
	rows       []row       // rows[idx]: bucket idx held in trusted memory (setTop)
	rowPT      []byte      // the rows' plaintexts, plainSize bytes each
	rowWrites  uint64      // writes of rows, the seals they stand in for

	// Reusable scratch: the GCM nonce and AAD, and the plaintext staging
	// buffer shared by open (decrypt) and put (encode).
	nonce [12]byte // idx(6) || counter(6)
	aad   [8]byte  // idx
	ptBuf []byte

	touched byte // touch's loads land here, so they are not dead code
}

// row is one bucket of the tree top held in trusted memory. Its write
// counter advances exactly as the arena's would, and its sealed form is
// produced on demand (RawBucket) by the same seal at that counter, so no
// byte a caller can observe differs from the DRAM bucket it replaces.
// Sealed bytes that arrive from outside (RestoreRaw, Corrupt) are held as
// they came until the first read opens and verifies them, exactly as a DRAM
// bucket's would be. A row is empty (never written), plain (its plaintext in
// rowPT, counter its write counter) or sealed (raw non-nil).
type row struct {
	raw     []byte
	counter uint64
	plain   bool
}

// farBucket is one entry of MemStore.far.
type farBucket struct {
	idx  uint64
	slot uint32
}

const (
	// denseLimit bounds the dense index (4 bytes an entry, 64 MB at the
	// limit): it covers every tree of up to 24 levels.
	denseLimit = 1 << 24
	// slabBuckets is the arena's growth step, about 82 KB of sealed bytes
	// at the default shape — small against a warmed tree, so the unfilled
	// tail of the last slab is the only memory the store holds idle.
	slabBuckets = 256

	// tagSize is the truncated GCM tag of a format-2 bucket.
	tagSize = 12
	// nonceFieldLimit bounds bucket indices and write counters: each is a
	// 48-bit field of the nonce. NewGeometry caps a tree at 48 levels, so
	// its largest index is 2^48 - 2.
	nonceFieldLimit = 1 << 48

	// maxTopLevels is how many tree levels the secure buffer keeps on chip:
	// the paper's "7-level cache" (Fig. 11), config.ORAM.CachedLevels in
	// the timing model.
	maxTopLevels = 7
)

// topLevels is how many levels of a tree of levels levels an engine keeps
// in trusted memory: the paper's seven, but never more than half the path,
// so a small test tree still seals its lower half into the arena.
func topLevels(levels int) int { return min(maxTopLevels, levels/2) }

// NewMemStore builds a functional store. key seeds the bucket cipher (see
// MemStore for the derivation); blockBytes is the payload size of every block.
func NewMemStore(z, blockBytes int, key []byte) (*MemStore, error) {
	if z <= 0 || blockBytes <= 0 {
		return nil, fmt.Errorf("oram: invalid store shape z=%d block=%d", z, blockBytes)
	}
	kd := sha256.Sum256(append([]byte("sdimm/bucket/v2|"), key...))
	blk, err := aes.NewCipher(kd[:16])
	if err != nil {
		return nil, fmt.Errorf("oram: store cipher: %w", err)
	}
	gcm, err := cipher.NewGCMWithTagSize(blk, tagSize)
	if err != nil {
		return nil, fmt.Errorf("oram: store cipher: %w", err)
	}
	return &MemStore{
		z:          z,
		blockBytes: blockBytes,
		rawSize:    8 + z*(slotHeader+blockBytes) + tagSize,
		gcm:        gcm,
		key:        append([]byte(nil), key...),
	}, nil
}

// setTop moves the top k levels of the tree — the buckets at heap indices
// below 2^k - 1 — into trusted memory. A bucket of those already in the
// arena (a store restored before its engine was built) is lifted into its
// row as sealed bytes; its arena slot stays claimed but unreachable. The
// first call fixes k: the store is built for one tree.
func (s *MemStore) setTop(k int) {
	n := 1<<k - 1
	if s.rows != nil || n == 0 {
		return
	}
	s.rows = make([]row, n)
	s.rowPT = make([]byte, n*s.plainSize())
	for idx := range min(n, len(s.index)) {
		if slot := s.index[idx]; slot != 0 {
			s.rows[idx].raw = append([]byte(nil), s.at(slot)...)
			s.index[idx] = 0
		}
	}
}

// row returns bucket idx's row, or nil when idx is not in the tree top.
func (s *MemStore) row(idx uint64) *row {
	if idx < uint64(len(s.rows)) {
		return &s.rows[idx]
	}
	return nil
}

// plainRow returns bucket idx's row if it holds plaintext, else nil.
func (s *MemStore) plainRow(idx uint64) *row {
	if r := s.row(idx); r != nil && r.plain {
		return r
	}
	return nil
}

// rowText returns the plaintext of row idx.
func (s *MemStore) rowText(idx uint64) []byte {
	ps := s.plainSize()
	off := int(idx) * ps
	return s.rowPT[off : off+ps : off+ps]
}

// sealRow seals plain row idx into dst (rawSize bytes) at its counter: the
// bytes a DRAM bucket written the same way would hold.
func (s *MemStore) sealRow(idx uint64, r *row, dst []byte) []byte {
	binary.BigEndian.PutUint64(dst[:8], r.counter)
	s.bind(idx, r.counter)
	s.gcm.Seal(dst[:8], s.nonce[:], s.rowText(idx), s.aad[:])
	return dst
}

// touch loads one byte of every 64-byte line of each arena bucket on path,
// so the path's cache misses are in flight together before the first open
// waits on its bytes, the way the secure buffer issues a path's DRAM reads
// back to back. Rows are skipped: they are already on chip.
func (s *MemStore) touch(path []uint64) {
	var x byte
	for _, idx := range path {
		if idx < uint64(len(s.rows)) {
			continue
		}
		raw := s.sealed(idx)
		for i := 0; i < len(raw); i += 64 {
			x ^= raw[i]
		}
	}
	s.touched = x
}

// farAt returns where idx sits, or would be inserted, in s.far.
func (s *MemStore) farAt(idx uint64) (int, bool) {
	return slices.BinarySearchFunc(s.far, idx, func(f farBucket, idx uint64) int {
		return cmp.Compare(f.idx, idx)
	})
}

// sealed returns the stored bytes of bucket idx — the arena's own, not a
// copy — or nil if the bucket was never written. A row has sealed bytes
// only while it is sealed (see row).
func (s *MemStore) sealed(idx uint64) []byte {
	if r := s.row(idx); r != nil {
		return r.raw
	}
	var slot uint32
	if idx < uint64(len(s.index)) {
		slot = s.index[idx]
	} else if idx >= denseLimit {
		if i, ok := s.farAt(idx); ok {
			slot = s.far[i].slot
		}
	}
	if slot == 0 {
		return nil
	}
	return s.at(slot)
}

// at returns the bytes of a claimed slot, capacity clipped to the slot.
func (s *MemStore) at(slot uint32) []byte {
	off := int((slot-1)%slabBuckets) * s.rawSize
	return s.slabs[(slot-1)/slabBuckets][off : off+s.rawSize : off+s.rawSize]
}

// claim is sealed for a bucket about to be written: a first touch takes the
// next arena slot, opening a new slab when the last one is full. A row
// claimed this way becomes sealed.
func (s *MemStore) claim(idx uint64) []byte {
	if r := s.row(idx); r != nil {
		if r.raw == nil {
			r.raw = make([]byte, s.rawSize)
		}
		r.plain = false
		return r.raw
	}
	if raw := s.sealed(idx); raw != nil {
		return raw
	}
	if s.slots%slabBuckets == 0 {
		s.slabs = append(s.slabs, make([]byte, slabBuckets*s.rawSize))
	}
	s.slots++
	if idx < denseLimit {
		if idx >= uint64(len(s.index)) {
			grown := make([]uint32, 1<<bits.Len64(idx))
			copy(grown, s.index)
			s.index = grown
		}
		s.index[idx] = s.slots
	} else {
		i, _ := s.farAt(idx)
		s.far = slices.Insert(s.far, i, farBucket{idx: idx, slot: s.slots})
	}
	return s.at(s.slots)
}

// Z implements Store.
func (s *MemStore) Z() int { return s.z }

const slotHeader = 16 // addr (8) + leaf (8)

func (s *MemStore) plainSize() int { return s.rawSize - 8 - tagSize }

// scratch returns the plaintext staging buffer sized to one bucket.
func (s *MemStore) scratch() []byte {
	if cap(s.ptBuf) < s.plainSize() {
		s.ptBuf = make([]byte, s.plainSize())
	}
	return s.ptBuf[:s.plainSize()]
}

// bind loads the nonce and AAD of (idx, counter), both below nonceFieldLimit.
func (s *MemStore) bind(idx, counter uint64) {
	binary.BigEndian.PutUint64(s.aad[:], idx)
	copy(s.nonce[:6], s.aad[2:])
	s.nonce[6], s.nonce[7] = byte(counter>>40), byte(counter>>32)
	binary.BigEndian.PutUint32(s.nonce[8:], uint32(counter))
}

// open authenticates the sealed bytes of bucket idx and decrypts them into
// the plaintext scratch. A stored counter past the nonce field was sealed by
// nobody, whatever its low 48 bits would verify as.
func (s *MemStore) open(idx uint64, raw []byte) (pt []byte, counter uint64, err error) {
	counter = binary.BigEndian.Uint64(raw[:8])
	if counter < nonceFieldLimit {
		s.bind(idx, counter)
		if pt, err = s.gcm.Open(s.scratch()[:0], s.nonce[:], raw[8:], s.aad[:]); err == nil {
			return pt, counter, nil
		}
	}
	return nil, counter, fmt.Errorf("%w: bucket %d", ErrIntegrity, idx)
}

// seal encrypts and tags pt as bucket idx under counter, straight into the
// bucket's arena slot: the slot is the bucket's for life, and its capacity
// ends with it, so the tag lands in its last bytes. A row keeps pt as it is
// instead, under the same counter.
func (s *MemStore) seal(idx, counter uint64, pt []byte) error {
	if idx >= nonceFieldLimit || counter >= nonceFieldLimit {
		return fmt.Errorf("oram: bucket %d at write counter %d: both must be below 2^48", idx, counter)
	}
	if r := s.row(idx); r != nil {
		copy(s.rowText(idx), pt)
		*r = row{counter: counter, plain: true}
		s.rowWrites++
		return nil
	}
	raw := s.claim(idx)
	binary.BigEndian.PutUint64(raw[:8], counter)
	s.bind(idx, counter)
	s.gcm.Seal(raw[:8], s.nonce[:], pt, s.aad[:])
	s.writes++
	return nil
}

// ReadBucket implements Store: it decrypts and verifies the bucket. Slot
// payloads are fresh allocations the caller owns; the engine's hot path
// uses ReadBucketInto instead.
func (s *MemStore) ReadBucket(idx uint64) (Bucket, error) {
	var b Bucket
	if err := s.ReadBucketInto(idx, &b); err != nil {
		return Bucket{}, err
	}
	for i := range b.Slots {
		if b.Slots[i].Data != nil {
			b.Slots[i].Data = append([]byte(nil), b.Slots[i].Data...)
		}
	}
	return b, nil
}

// ReadBucketInto implements Store: verify and decrypt into b without
// allocating. Non-dummy slot Data aliases the store's plaintext scratch (a
// row's own plaintext for the tree top) — valid only until the next call on
// the store. A sealed row that verifies is kept as plaintext from then on.
func (s *MemStore) ReadBucketInto(idx uint64, b *Bucket) error {
	r := s.plainRow(idx)
	if r == nil {
		raw := s.sealed(idx)
		if raw == nil {
			resetSlots(b, s.z)
			b.Counter = 0
			return nil
		}
		pt, counter, err := s.open(idx, raw)
		if err != nil {
			return err
		}
		if r = s.row(idx); r == nil {
			s.decode(pt, counter, b)
			return nil
		}
		copy(s.rowText(idx), pt)
		*r = row{counter: counter, plain: true}
	}
	s.decode(s.rowText(idx), r.counter, b)
	return nil
}

// decode fills b from a bucket's plaintext; non-dummy slot Data aliases pt.
func (s *MemStore) decode(pt []byte, counter uint64, b *Bucket) {
	if cap(b.Slots) < s.z {
		b.Slots = make([]Block, s.z)
	}
	b.Slots = b.Slots[:s.z]
	b.Counter = counter
	for i := 0; i < s.z; i++ {
		off := i * (slotHeader + s.blockBytes)
		b.Slots[i].Addr = binary.BigEndian.Uint64(pt[off:])
		b.Slots[i].Leaf = binary.BigEndian.Uint64(pt[off+8:])
		if b.Slots[i].IsDummy() {
			b.Slots[i].Data = nil
		} else {
			b.Slots[i].Data = pt[off+slotHeader : off+slotHeader+s.blockBytes]
		}
	}
}

// WriteBucket implements Store: it bumps the counter and reseals the bucket
// (every Path ORAM writeback re-encrypts). The counter is owned by the store
// and advances monotonically, so no (idx, counter) nonce is sealed twice.
func (s *MemStore) WriteBucket(idx uint64, b Bucket) error {
	return s.put(idx, b, s.Counter(idx)+1)
}

// PutBucketAt seals b at idx under an explicit write counter instead of
// bumping the stored one. The scrub pass uses it to reconstruct a corrupted
// shard bucket bit-exactly: with the sibling shards' (identical, lockstep)
// counter and the parity-recovered plaintext, the seal reproduces the exact
// pre-corruption ciphertext and tag. Under GCM a repeated (idx, counter)
// with any other plaintext is fatal, so while the stored bucket verifies the
// counter must exceed its own; when it is absent or does not verify — the
// rebuild, where the stored counter bytes may themselves be the damage — any
// counter in range is taken. Slot Data must not alias the store's read
// scratch: payloads obtained from ReadBucketInto have to be copied before
// being written back.
func (s *MemStore) PutBucketAt(idx uint64, b Bucket, counter uint64) error {
	if r := s.plainRow(idx); r != nil && counter <= r.counter {
		return fmt.Errorf("oram: bucket %d resealed at counter %d, not past its verified counter %d", idx, counter, r.counter)
	}
	if raw := s.sealed(idx); raw != nil && counter <= binary.BigEndian.Uint64(raw[:8]) {
		if _, stored, err := s.open(idx, raw); err == nil {
			return fmt.Errorf("oram: bucket %d resealed at counter %d, not past its verified counter %d", idx, counter, stored)
		}
	}
	return s.put(idx, b, counter)
}

// put serializes b into the scratch and seals it at (idx, counter).
func (s *MemStore) put(idx uint64, b Bucket, counter uint64) error {
	if len(b.Slots) != s.z {
		return fmt.Errorf("oram: bucket with %d slots written to Z=%d store", len(b.Slots), s.z)
	}
	pt := s.scratch()
	for i := range pt {
		pt[i] = 0
	}
	for i, slot := range b.Slots {
		off := i * (slotHeader + s.blockBytes)
		binary.BigEndian.PutUint64(pt[off:], slot.Addr)
		binary.BigEndian.PutUint64(pt[off+8:], slot.Leaf)
		if !slot.IsDummy() {
			if len(slot.Data) > s.blockBytes {
				return fmt.Errorf("oram: block %d payload %d exceeds %d bytes", slot.Addr, len(slot.Data), s.blockBytes)
			}
			copy(pt[off+slotHeader:off+slotHeader+s.blockBytes], slot.Data)
		}
	}
	return s.seal(idx, counter, pt)
}

// Writes returns the number of physical bucket seals this store has
// performed — every encrypt-and-tag of a DRAM bucket, whatever triggered
// it. Writes of the tree-top rows stay on chip and are not counted. The
// ring-eviction write-traffic gate compares this across backends at equal
// workload.
func (s *MemStore) Writes() uint64 { return s.writes }

// BucketIndices returns the indices of every bucket ever written, ascending
// (the rows, the dense index and far each hold a larger range of indices
// than the one before and are walked in order, so nothing is sorted here).
// Checkpoint capture and the recovery scrub pass iterate it so their work
// (and any RNG-free repair decisions) is deterministic.
func (s *MemStore) BucketIndices() []uint64 {
	idxs := make([]uint64, 0, s.slots)
	for idx, r := range s.rows {
		if r.plain || r.raw != nil {
			idxs = append(idxs, uint64(idx))
		}
	}
	for idx, slot := range s.index {
		if slot != 0 {
			idxs = append(idxs, uint64(idx))
		}
	}
	for _, f := range s.far {
		idxs = append(idxs, f.idx)
	}
	return idxs
}

// RawBucket returns a copy of the sealed on-"DRAM" bytes of a bucket
// (counter || ciphertext || tag) and whether the bucket exists. Checkpoints
// persist the sealed form verbatim so a restore is bit-exact and the
// stored tags keep protecting the payload at rest. A plain row is sealed
// here, at its counter, into the bytes DRAM would have held.
func (s *MemStore) RawBucket(idx uint64) ([]byte, bool) {
	if r := s.plainRow(idx); r != nil {
		return s.sealRow(idx, r, make([]byte, s.rawSize)), true
	}
	raw := s.sealed(idx)
	if raw == nil {
		return nil, false
	}
	return append([]byte(nil), raw...), true
}

// RestoreRaw installs sealed bucket bytes captured by RawBucket. The two
// sealed formats differ in length (an 8-byte tag against a 12-byte one), so
// for one store shape the length says which this is. Format-2 bytes are
// installed verbatim — authenticity is checked by ReadBucket (and the
// post-restore scrub pass) via the embedded tag. Format-1 bytes are upgraded
// on the way in (see format1).
func (s *MemStore) RestoreRaw(idx uint64, raw []byte) error {
	if idx >= nonceFieldLimit {
		return fmt.Errorf("oram: restored bucket index %d: must be below 2^48", idx)
	}
	switch len(raw) {
	case s.rawSize:
		copy(s.claim(idx), raw)
		return nil
	case s.rawSize - tagSize + integrity.TagSize:
		return s.format1(idx, raw)
	}
	return fmt.Errorf("oram: restored bucket %d is %d bytes, want %d", idx, len(raw), s.rawSize)
}

// format1 is the one-way upgrade of a bucket sealed before format 2
// (counter || AES-CTR ciphertext || 8-byte PMMAC tag, the AES key the first
// 16 bytes of key, the IV idx(8) || counter(8)). A bucket whose PMMAC
// verifies is decrypted with the old schedule and resealed format 2 under
// the same counter, so the members of a Split cluster stay in lockstep. One
// that does not is installed as it came, short of a tag that could verify,
// so the scrub counts and repairs it exactly where it would have. The old
// schedule is rebuilt per call: a state directory is upgraded once, and the
// store keeps nothing of format 1 between calls. Nothing seals format 1.
func (s *MemStore) format1(idx uint64, raw []byte) error {
	counter := binary.BigEndian.Uint64(raw[:8])
	ct, tag := raw[8:8+s.plainSize()], raw[8+s.plainSize():]
	if !integrity.New(append([]byte("pmmac|"), s.key...)).Verify(idx, counter, ct, tag) {
		dst := s.claim(idx)
		clear(dst[copy(dst, raw):])
		return nil
	}
	kb := make([]byte, 16)
	copy(kb, s.key)
	blk, err := aes.NewCipher(kb)
	if err != nil {
		return fmt.Errorf("oram: format-1 cipher: %w", err)
	}
	var iv [aes.BlockSize]byte
	binary.BigEndian.PutUint64(iv[:8], idx)
	binary.BigEndian.PutUint64(iv[8:], counter)
	pt := s.scratch()
	cipher.NewCTR(blk, iv[:]).XORKeyStream(pt, ct)
	return s.seal(idx, counter, pt)
}

// Counter returns the stored write counter of a bucket (0 if the bucket was
// never written). The Split scrub pass reads a healthy sibling's counter to
// reseal a reconstructed shard bucket bit-exactly.
func (s *MemStore) Counter(idx uint64) uint64 {
	if r := s.plainRow(idx); r != nil {
		return r.counter
	}
	raw := s.sealed(idx)
	if raw == nil {
		return 0
	}
	return binary.BigEndian.Uint64(raw[:8])
}

// Corrupt flips a ciphertext bit in a stored bucket (test hook for
// integrity-failure injection). It reports whether the bucket existed. A
// plain row is sealed first, so the flip lands where it would in DRAM.
func (s *MemStore) Corrupt(idx uint64) bool {
	if r := s.plainRow(idx); r != nil {
		r.raw, r.plain = s.sealRow(idx, r, make([]byte, s.rawSize)), false
	}
	raw := s.sealed(idx)
	if raw == nil {
		return false
	}
	raw[8] ^= 0x01
	return true
}
