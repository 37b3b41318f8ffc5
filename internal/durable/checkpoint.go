package durable

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// checkpointMagic identifies a checkpoint file (version 3: version 2 plus
// per-member ring-eviction state — the eviction pointer, flush phase, and
// dead-slot masks of ring-mode engines; empty for path-mode members).
const checkpointMagic = "SDIMMCP3"

// checkpointMACSize is the untruncated HMAC-SHA256 trailer over the whole
// file body. Checkpoints are read once per recovery, so the full 32 bytes
// cost nothing and leave no forgery margin.
const checkpointMACSize = sha256.Size

// maxCheckpointBody bounds how large a body a decoder will believe, so a
// corrupted length field cannot drive allocation.
const maxCheckpointBody = 1 << 30

// PosEntry is one position-map binding. For the Independent protocol Value
// encodes the global leaf (SDIMM routing included); for Split it is the
// shared local leaf.
type PosEntry struct {
	Addr  uint64
	Value uint64
}

// BlockState is one ORAM block held outside the tree (stash or transfer
// queue) at checkpoint time.
type BlockState struct {
	Addr uint64
	Leaf uint64
	Data []byte
}

// BucketState is one sealed tree bucket, captured verbatim from the store
// (format 2: counter || AES-GCM ciphertext || 12-byte GCM tag; a format-1
// directory still holds counter || AES-CTR ciphertext || 8-byte PMMAC tag).
// Restoring the raw form keeps the at-rest tags intact so the recovery scrub
// can re-verify every bucket.
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
// session: RNG streams, stash, transfer queue, sealed buckets, health, and
// the seccomm send/receive counters of both link endpoints.
type MemberState struct {
	EngineRNG [4]uint64
	BufferRNG [4]uint64
	Stash     []BlockState  // sorted by Addr
	Transfer  []BlockState  // queue order (head first)
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
	// Ring is the engine's opaque ring-eviction snapshot (oram.RingSnapshot):
	// eviction pointer, flush phase, and dead-slot masks. Empty for
	// path-mode members; the engine validates it on restore.
	Ring []byte
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

// --- encoding ---

type byteWriter struct{ b []byte }

func (w *byteWriter) u8(v byte)    { w.b = append(w.b, v) }
func (w *byteWriter) u32(v uint32) { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *byteWriter) u64(v uint64) { w.b = binary.BigEndian.AppendUint64(w.b, v) }
func (w *byteWriter) bytes(p []byte) {
	w.u32(uint32(len(p)))
	w.b = append(w.b, p...)
}
func (w *byteWriter) rng(s [4]uint64) {
	for _, v := range s {
		w.u64(v)
	}
}

func (w *byteWriter) block(b BlockState) {
	w.u64(b.Addr)
	w.u64(b.Leaf)
	w.bytes(b.Data)
}

// encodeCheckpoint serializes and authenticates a checkpoint.
func encodeCheckpoint(key []byte, cp *Checkpoint) []byte {
	var w byteWriter
	w.b = append(w.b, cp.FP[:]...)
	w.u64(cp.Seq)
	w.rng(cp.RNG)
	w.u32(uint32(len(cp.Positions)))
	for _, p := range cp.Positions {
		w.u64(p.Addr)
		w.u64(p.Value)
	}
	w.u32(uint32(len(cp.Members)))
	for _, m := range cp.Members {
		w.rng(m.EngineRNG)
		w.rng(m.BufferRNG)
		w.u32(uint32(len(m.Stash)))
		for _, b := range m.Stash {
			w.block(b)
		}
		w.u32(uint32(len(m.Transfer)))
		for _, b := range m.Transfer {
			w.block(b)
		}
		w.u32(uint32(len(m.Buckets)))
		for _, b := range m.Buckets {
			w.u64(b.Idx)
			w.bytes(b.Raw)
		}
		w.u32(uint32(m.Health.State))
		w.u32(uint32(m.Health.Consecutive))
		w.u64(m.Health.Successes)
		w.u64(m.Health.Failures)
		w.u64(m.HostSend)
		w.u64(m.HostRecv)
		w.u64(m.DevSend)
		w.u64(m.DevRecv)
		w.u64(m.Incarnation)
		if m.Detached {
			w.u8(1)
		} else {
			w.u8(0)
		}
		w.bytes(m.Ring)
	}
	w.u32(uint32(len(cp.Poisoned)))
	for _, a := range cp.Poisoned {
		w.u64(a)
	}
	w.u64(cp.MigSeq)
	w.u64(cp.TopoSeq)
	w.u32(uint32(len(cp.Drains)))
	for _, d := range cp.Drains {
		w.u64(d.Member)
		w.u64(d.Moved)
	}
	body := w.b

	out := make([]byte, 0, 8+8+len(body)+checkpointMACSize)
	out = append(out, checkpointMagic...)
	out = binary.BigEndian.AppendUint64(out, uint64(len(body)))
	out = append(out, body...)
	m := hmac.New(sha256.New, key)
	m.Write(out)
	return m.Sum(out)
}

// --- decoding ---

var errCheckpointCorrupt = errors.New("durable: corrupt checkpoint")

type byteReader struct{ b []byte }

func (r *byteReader) u8() (byte, error) {
	if len(r.b) < 1 {
		return 0, errCheckpointCorrupt
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v, nil
}

func (r *byteReader) u32() (uint32, error) {
	if len(r.b) < 4 {
		return 0, errCheckpointCorrupt
	}
	v := binary.BigEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v, nil
}

func (r *byteReader) u64() (uint64, error) {
	if len(r.b) < 8 {
		return 0, errCheckpointCorrupt
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v, nil
}

func (r *byteReader) bytes() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if uint64(n) > uint64(len(r.b)) {
		return nil, errCheckpointCorrupt
	}
	p := append([]byte(nil), r.b[:n]...)
	r.b = r.b[n:]
	return p, nil
}

func (r *byteReader) rng() (s [4]uint64, err error) {
	for i := range s {
		if s[i], err = r.u64(); err != nil {
			return s, err
		}
	}
	return s, nil
}

// count reads a list length and rejects counts that could not possibly fit
// in the remaining bytes at minSize bytes per entry (allocation guard).
func (r *byteReader) count(minSize int) (int, error) {
	n, err := r.u32()
	if err != nil {
		return 0, err
	}
	if uint64(n)*uint64(minSize) > uint64(len(r.b)) {
		return 0, errCheckpointCorrupt
	}
	return int(n), nil
}

func (r *byteReader) block() (BlockState, error) {
	var b BlockState
	var err error
	if b.Addr, err = r.u64(); err != nil {
		return b, err
	}
	if b.Leaf, err = r.u64(); err != nil {
		return b, err
	}
	b.Data, err = r.bytes()
	return b, err
}

func (r *byteReader) blockList() ([]BlockState, error) {
	n, err := r.count(8 + 8 + 4)
	if err != nil {
		return nil, err
	}
	out := make([]BlockState, n)
	for i := range out {
		if out[i], err = r.block(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// decodeCheckpoint authenticates and parses a checkpoint file. Any
// truncation, trailing garbage, or MAC failure rejects the whole file —
// recovery then falls back to the previous checkpoint.
func decodeCheckpoint(key, data []byte) (*Checkpoint, error) {
	if len(data) < 8+8+checkpointMACSize {
		return nil, errors.New("durable: checkpoint shorter than envelope")
	}
	if string(data[:8]) != checkpointMagic {
		return nil, errors.New("durable: bad checkpoint magic")
	}
	bodyLen := binary.BigEndian.Uint64(data[8:16])
	if bodyLen > maxCheckpointBody || uint64(len(data)) != 16+bodyLen+checkpointMACSize {
		return nil, errors.New("durable: checkpoint length mismatch")
	}
	macOff := 16 + bodyLen
	m := hmac.New(sha256.New, key)
	m.Write(data[:macOff])
	if !hmac.Equal(m.Sum(nil), data[macOff:]) {
		return nil, errors.New("durable: checkpoint failed authentication")
	}

	r := &byteReader{b: data[16:macOff]}
	cp := &Checkpoint{}
	if len(r.b) < 8 {
		return nil, errCheckpointCorrupt
	}
	copy(cp.FP[:], r.b[:8])
	r.b = r.b[8:]
	var err error
	if cp.Seq, err = r.u64(); err != nil {
		return nil, err
	}
	if cp.RNG, err = r.rng(); err != nil {
		return nil, err
	}
	nPos, err := r.count(16)
	if err != nil {
		return nil, err
	}
	cp.Positions = make([]PosEntry, nPos)
	for i := range cp.Positions {
		if cp.Positions[i].Addr, err = r.u64(); err != nil {
			return nil, err
		}
		if cp.Positions[i].Value, err = r.u64(); err != nil {
			return nil, err
		}
	}
	nMem, err := r.count(32 + 32 + 3*4 + 2*4 + 2*8 + 4*8 + 8 + 1 + 4)
	if err != nil {
		return nil, err
	}
	cp.Members = make([]MemberState, nMem)
	for i := range cp.Members {
		m := &cp.Members[i]
		if m.EngineRNG, err = r.rng(); err != nil {
			return nil, err
		}
		if m.BufferRNG, err = r.rng(); err != nil {
			return nil, err
		}
		if m.Stash, err = r.blockList(); err != nil {
			return nil, err
		}
		if m.Transfer, err = r.blockList(); err != nil {
			return nil, err
		}
		nBk, err := r.count(8 + 4)
		if err != nil {
			return nil, err
		}
		m.Buckets = make([]BucketState, nBk)
		for j := range m.Buckets {
			if m.Buckets[j].Idx, err = r.u64(); err != nil {
				return nil, err
			}
			if m.Buckets[j].Raw, err = r.bytes(); err != nil {
				return nil, err
			}
		}
		st, err := r.u32()
		if err != nil {
			return nil, err
		}
		m.Health.State = int(st)
		cons, err := r.u32()
		if err != nil {
			return nil, err
		}
		m.Health.Consecutive = int(cons)
		if m.Health.Successes, err = r.u64(); err != nil {
			return nil, err
		}
		if m.Health.Failures, err = r.u64(); err != nil {
			return nil, err
		}
		if m.HostSend, err = r.u64(); err != nil {
			return nil, err
		}
		if m.HostRecv, err = r.u64(); err != nil {
			return nil, err
		}
		if m.DevSend, err = r.u64(); err != nil {
			return nil, err
		}
		if m.DevRecv, err = r.u64(); err != nil {
			return nil, err
		}
		if m.Incarnation, err = r.u64(); err != nil {
			return nil, err
		}
		det, err := r.u8()
		if err != nil {
			return nil, err
		}
		if det > 1 {
			return nil, errCheckpointCorrupt
		}
		m.Detached = det == 1
		if m.Ring, err = r.bytes(); err != nil {
			return nil, err
		}
	}
	nPoison, err := r.count(8)
	if err != nil {
		return nil, err
	}
	cp.Poisoned = make([]uint64, nPoison)
	for i := range cp.Poisoned {
		if cp.Poisoned[i], err = r.u64(); err != nil {
			return nil, err
		}
	}
	if cp.MigSeq, err = r.u64(); err != nil {
		return nil, err
	}
	if cp.TopoSeq, err = r.u64(); err != nil {
		return nil, err
	}
	nDrain, err := r.count(16)
	if err != nil {
		return nil, err
	}
	cp.Drains = make([]DrainState, nDrain)
	for i := range cp.Drains {
		if cp.Drains[i].Member, err = r.u64(); err != nil {
			return nil, err
		}
		if cp.Drains[i].Moved, err = r.u64(); err != nil {
			return nil, err
		}
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("durable: %d trailing bytes after checkpoint body", len(r.b))
	}
	return cp, nil
}
