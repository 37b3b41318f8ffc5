// Package durable provides crash consistency for the secure-buffer
// simulator: a write-ahead journal of logical accesses, periodic whole-state
// checkpoints, and a recovery loader that reassembles the last committed
// state from disk. The design is redo-only — a journal record is appended
// strictly after the in-memory commit point of its access (the position-map
// update), so replaying the journal against the checkpointed image
// re-executes exactly the committed suffix and nothing else.
//
// Both on-disk formats fail closed: every byte is authenticated (HMAC-SHA256
// for checkpoints, a hash chain over record groups for the journal),
// truncation and bit flips are detected rather than consumed, and a torn
// journal tail yields the valid prefix — never a partial record or group.
// One codec states every persisted byte: the checkpoint body and its ring
// sections, the journal header, and each record group are walks of it, run
// appending to write and consuming to read.
package durable

import (
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"

	"sdimm/internal/integrity"
)

// journalMagic identifies a journal file (write-ahead log, version 2:
// chain-tagged record groups — one tag per appended batch, amortizing the
// HMAC extension over a pipeline wave instead of paying it per record).
const journalMagic = "SDIMMWL2"

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
	FP        [8]byte
	BaseSeq   uint64
	BlockSize int
}

// header codes the journal header's fields in file order: magic,
// fingerprint, base seq, and the block size every record pads its payload to.
func (c *codec) header(h *journalHeader) {
	c.magic(journalMagic)
	c.fixed(h.FP[:])
	c.u64(&h.BaseSeq)
	c.u32(&h.BlockSize)
}

// headerTag is the HMAC of the walked header fields, cut to a chain tag: it
// follows them on disk and seeds the record chain, binding it to the file.
func headerTag(key, fields []byte) []byte {
	m := hmac.New(sha256.New, key)
	m.Write(fields)
	return m.Sum(nil)[:integrity.ChainTagSize]
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
// path), sealed as a whole under one chain tag, but NOT its durability
// unit: the writer never starts a group it does not finish, so a torn tail
// still yields every previously sealed group intact. decodeJournal reads the
// count first, to check the tag before any record, then walks the records
// itself.
func (c *codec) group(recs *[]Record, blockSize int) {
	list(c, recs, recordSize(blockSize), func(r *Record) { c.record(r, blockSize) })
}

// decodeJournal parses a journal file. It returns the header, the longest
// valid record prefix (every record of every fully sealed group), and
// whether the file ended mid-group or at a broken chain link (torn). Header
// corruption is an error: with an unauthenticated header nothing after it
// can be trusted, so the whole file is rejected.
func decodeJournal(key, data []byte) (hdr journalHeader, recs []Record, torn bool, err error) {
	c := codec{b: data, dec: true}
	c.header(&hdr)
	fields := data[:len(data)-len(c.b)]
	tag := c.take(integrity.ChainTagSize)
	if c.err != nil {
		return hdr, nil, false, fmt.Errorf("durable: corrupt journal header: %w", c.err)
	}
	want := headerTag(key, fields)
	if !hmac.Equal(want, tag) {
		return hdr, nil, false, errors.New("durable: journal header failed authentication")
	}
	if hdr.BlockSize == 0 || hdr.BlockSize > maxJournalBlockSize {
		return hdr, nil, false, fmt.Errorf("durable: journal block size %d out of range", hdr.BlockSize)
	}

	chain := integrity.NewChain(key, want)
	size := recordSize(hdr.BlockSize)
	for len(c.b) > 0 {
		// The count alone sizes the group, so its tag is checked before any
		// record is parsed. A group the remaining bytes cannot hold (bounds in
		// uint64, so a hostile count cannot overflow) is torn: unfinished,
		// and by construction holding nothing durable.
		g := c
		var count int
		g.u32(&count)
		end := 4 + uint64(count)*uint64(size)
		if g.err != nil || count == 0 || uint64(len(c.b)) < end+integrity.ChainTagSize {
			return hdr, recs, true, nil
		}
		// On mismatch the chain has advanced past a group we discard, but
		// decoding stops here so the stale chain state is never reused.
		msg, tag := c.take(int(end)), c.take(integrity.ChainTagSize)
		if !hmac.Equal(chain.Next(msg), tag) {
			return hdr, recs, true, nil
		}
		g.b = msg[4:]
		for range count {
			var rec Record
			g.record(&rec, hdr.BlockSize)
			if rec.Kind >= kindCount || rec.Seq != hdr.BaseSeq+1+uint64(len(recs)) {
				// An authenticated record with an unknown kind, or out of
				// sequence, can only come from a broken (e.g. newer-versioned)
				// writer; stop trusting the tail rather than misreplaying it.
				return hdr, recs, true, nil
			}
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
