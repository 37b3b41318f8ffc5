// Package durable provides crash consistency for the secure-buffer
// simulator: a write-ahead journal of logical accesses, periodic whole-state
// checkpoints, and a recovery loader that reassembles the last committed
// state from disk. The design is redo-only — a journal record is appended
// strictly after the in-memory commit point of its access (the position-map
// update), so replaying the journal against the checkpointed image
// re-executes exactly the committed suffix and nothing else.
//
// The disk is untrusted, so both formats are sealed with AES-GCM (a
// checkpoint body per seal, a journal record group per seal, chained) and
// fail closed: truncation, bit flips, splices and wrong keys are detected
// rather than consumed, and a torn journal tail yields the valid prefix —
// never a partial record or group. One codec states every persisted byte:
// the checkpoint body and its ring sections, the journal header, and each
// record group are walks of it, run appending to write and consuming to
// read.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// journalMagic identifies a journal file (write-ahead log, version 3: the
// record groups of version 2 sealed with AES-GCM, chained by their tags).
const journalMagic = "SDIMMWL3"

// maxJournalBlockSize bounds the per-record payload a decoder will believe,
// so a corrupted header cannot drive allocation (fuzzing hits this).
const maxJournalBlockSize = 1 << 20

// RecordKind tags what a journal record describes. Workload accesses
// (reads and writes) share the sequence stream with rebalance records:
// migration steps (one re-homing read each) and topology changes (drain
// begin/end, member join), so replay reconstructs elastic history in the
// exact order it committed.
type RecordKind uint8

const (
	// KindRead is a committed read access (no payload).
	KindRead RecordKind = iota
	// KindWrite is a committed write access; Data is the written payload.
	KindWrite
	// KindDrainBegin marks the start of a drain of member Addr.
	KindDrainBegin
	// KindDrainEnd marks the completed drain (and detach) of member Addr.
	KindDrainEnd
	// KindJoin marks a fresh member joining at slot Addr.
	KindJoin
	// KindMigrate is one rebalance step: a read-shaped access of block
	// Addr whose remap re-homes it off the draining member.
	KindMigrate
	// kindCount bounds the valid kind values; the decoder treats anything
	// at or above it as a torn tail rather than inventing history.
	kindCount
)

// Record is one committed logical event. For KindRead/KindWrite/KindMigrate
// Addr is the block address (Data is the written payload for writes and
// empty otherwise); for topology kinds Addr is the member slot index. Every
// record consumes a sequence number, so Seq counts committed events of all
// kinds.
type Record struct {
	Seq  uint64
	Addr uint64
	Kind RecordKind
	Data []byte
}

// journalHeader is the fixed prefix of a journal file, before its tag.
type journalHeader struct {
	Salt      [saltSize]byte
	FP        [8]byte
	BaseSeq   uint64
	BlockSize int
}

// header codes the journal header's fields in file order: magic, salt,
// fingerprint, base seq, and the block size every record pads its payload
// to. They are the additional data of an empty seal, whose tag follows them
// and starts the group chain.
func (c *codec) header(h *journalHeader) {
	c.magic(journalMagic)
	c.fixed(h.Salt[:])
	c.fixed(h.FP[:])
	c.u64(&h.BaseSeq)
	c.u32(&h.BlockSize)
}

// recordSize is the encoded size of one record for a block size: seq, addr,
// kind, and the payload zero-padded to the block size.
func recordSize(blockSize int) int { return 8 + 8 + 1 + blockSize }

// record codes one record's fields in file order. Decoding leaves Data a
// view of the padded payload bytes, not a copy.
func (c *codec) record(r *Record, blockSize int) {
	c.u64(&r.Seq)
	c.u64(&r.Addr)
	c.u8((*byte)(&r.Kind))
	c.padded(&r.Data, blockSize)
}

// group codes one record group in file order: a u32 count, then each
// record. A group is the journal's atomic append unit (one per
// Manager.Append call — a pipeline wave, or a singleton for the sequential
// path), sealed as a whole, but NOT its durability unit: the writer never
// starts a group it does not finish, so a torn tail still yields every
// previously sealed group intact. On disk the count stays in the clear; it
// and the previous tag are the seal's additional data, which chains groups.
func (c *codec) group(recs *[]Record, blockSize int) {
	list(c, recs, recordSize(blockSize), func(r *Record) { c.record(r, blockSize) })
}

// walkGroup walks one opened group — its count, then its records — which
// must be consumed exactly, hold at least one record, and continue the
// sequence at first with known kinds. Each record's Data is a view of its
// padded payload.
func walkGroup(b []byte, blockSize int, first uint64) ([]Record, error) {
	c := codec{b: b, dec: true}
	var recs []Record
	switch c.group(&recs, blockSize); {
	case c.err != nil:
		return nil, c.err
	case len(c.b) != 0 || len(recs) == 0:
		return nil, errors.New("durable: group is empty or has trailing bytes")
	}
	for i, r := range recs {
		if r.Kind >= kindCount || r.Seq != first+uint64(i) {
			// An authenticated record with an unknown kind, or out of
			// sequence, can only come from a broken (e.g. newer-versioned)
			// writer; stop trusting the tail rather than misreplaying it.
			return nil, fmt.Errorf("durable: record %d has kind %d and seq %d, want a known kind and seq %d", i, r.Kind, r.Seq, first+uint64(i))
		}
	}
	return recs, nil
}

// decodeJournal opens and parses a journal file, in place: data is the
// decoder's. It returns the header, the longest valid record prefix (every
// record of every fully sealed group), and whether the file ended
// mid-group or at a group that fails its tag or its walk (torn). Header
// corruption is an error: with an unauthenticated header nothing after it
// can be trusted, so the whole file is rejected.
func decodeJournal(key, data []byte) (hdr journalHeader, recs []Record, torn bool, err error) {
	c := codec{b: data, dec: true}
	if c.header(&hdr); c.err != nil {
		return hdr, nil, false, fmt.Errorf("durable: corrupt journal header: %w", c.err)
	}
	a, nonce := fileAEAD(key, &hdr.Salt, false), make([]byte, 12)
	if c.seal(a, nonce, data[:len(data)-len(c.b)], 0, 0); c.err != nil {
		return hdr, nil, false, errors.New("durable: journal header failed authentication")
	}
	if hdr.BlockSize == 0 || hdr.BlockSize > maxJournalBlockSize {
		return hdr, nil, false, fmt.Errorf("durable: journal block size %d out of range", hdr.BlockSize)
	}

	var ad [4 + tagSize]byte // the next group's count, then the previous tag
	copy(ad[4:], data[len(data)-len(c.b)-tagSize:])
	size := recordSize(hdr.BlockSize)
	for len(c.b) > 0 {
		// The count alone sizes the group, so its tag is checked before any
		// record is walked. A group the remaining bytes cannot hold (bounds in
		// uint64, so a hostile count cannot overflow) is torn: unfinished,
		// and by construction holding nothing durable.
		g := c.b
		var count int
		c.u32(&count)
		n := uint64(count) * uint64(size)
		if c.err != nil || count == 0 || uint64(len(c.b)) < n+tagSize {
			return hdr, recs, true, nil
		}
		copy(ad[:4], g)
		first := hdr.BaseSeq + 1 + uint64(len(recs))
		binary.BigEndian.PutUint64(nonce[4:], first)
		if c.seal(a, nonce, ad[:], 0, int(n)); c.err != nil {
			return hdr, recs, true, nil
		}
		got, werr := walkGroup(g[:4+n], hdr.BlockSize, first)
		if werr != nil {
			return hdr, recs, true, nil
		}
		copy(ad[4:], g[4+n:])
		for _, rec := range got {
			if rec.Kind == KindWrite {
				rec.Data = append([]byte(nil), rec.Data...)
			} else {
				rec.Data = nil
			}
			recs = append(recs, rec)
		}
	}
	return hdr, recs, false, nil
}
