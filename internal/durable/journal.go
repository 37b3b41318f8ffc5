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
package durable

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"sdimm/internal/integrity"
)

// journalMagic identifies a journal file (write-ahead log, version 2:
// chain-tagged record groups — one tag per appended batch, amortizing the
// HMAC extension over a pipeline wave instead of paying it per record).
const journalMagic = "SDIMMWL2"

// journalHeaderSize is magic(8) + fingerprint(8) + baseSeq(8) +
// blockSize(4) + headerMAC(ChainTagSize).
const journalHeaderSize = 8 + 8 + 8 + 4 + integrity.ChainTagSize

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

// journalHeader is the decoded fixed prefix of a journal file.
type journalHeader struct {
	FP        [8]byte
	BaseSeq   uint64
	BlockSize uint32
}

// groupCountSize is the fixed prefix of a record group: a big-endian u32
// count of the record bodies that follow, sealed together under one chain
// tag. A group is the journal's atomic append unit (one per Manager.Append
// call — a pipeline wave, or a singleton for the sequential path), but NOT
// its durability unit: the writer never starts a group it does not finish,
// so a torn tail still yields every previously sealed group intact.
const groupCountSize = 4

// recordBodySize returns the encoded size of one record body (seq + addr +
// kind + zero-padded payload) for a payload size. Bodies inside a group are
// not individually tagged — the group's single chain tag covers the count
// and every body.
func recordBodySize(blockSize int) int {
	return 8 + 8 + 1 + blockSize
}

// encodeJournalHeader serializes and MACs the header. The returned mac (the
// trailing ChainTagSize bytes) seeds the record hash chain, binding every
// record to this specific file.
func encodeJournalHeader(key []byte, fp [8]byte, baseSeq uint64, blockSize int) (hdr, mac []byte) {
	hdr = make([]byte, journalHeaderSize)
	copy(hdr[:8], journalMagic)
	copy(hdr[8:16], fp[:])
	binary.BigEndian.PutUint64(hdr[16:24], baseSeq)
	binary.BigEndian.PutUint32(hdr[24:28], uint32(blockSize))
	m := hmac.New(sha256.New, key)
	m.Write(hdr[:28])
	mac = m.Sum(nil)[:integrity.ChainTagSize]
	copy(hdr[28:], mac)
	return hdr, mac
}

// appendRecord appends one record body (without its chain tag) to dst and
// returns the extended slice. The payload region is exactly blockSize bytes,
// zero-padded.
func appendRecord(dst []byte, rec Record, blockSize int) ([]byte, error) {
	if len(rec.Data) > blockSize {
		return nil, fmt.Errorf("durable: record %d payload %d exceeds block size %d", rec.Seq, len(rec.Data), blockSize)
	}
	base := len(dst)
	n := 8 + 8 + 1 + blockSize
	if cap(dst)-base >= n {
		dst = dst[:base+n]
		clear(dst[base:])
	} else {
		dst = append(dst, make([]byte, n)...)
	}
	if rec.Kind >= kindCount {
		return nil, fmt.Errorf("durable: record %d has unknown kind %d", rec.Seq, rec.Kind)
	}
	body := dst[base:]
	binary.BigEndian.PutUint64(body[0:8], rec.Seq)
	binary.BigEndian.PutUint64(body[8:16], rec.Addr)
	body[16] = byte(rec.Kind)
	copy(body[17:], rec.Data)
	return dst, nil
}

// decodeJournal parses a journal file. It returns the header, the longest
// valid record prefix (every record of every fully sealed group), and
// whether the file ended mid-group or at a broken chain link (torn). Header
// corruption is an error: with an unauthenticated header nothing after it
// can be trusted, so the whole file is rejected.
func decodeJournal(key, data []byte) (hdr journalHeader, recs []Record, torn bool, err error) {
	if len(data) < journalHeaderSize {
		return hdr, nil, false, errors.New("durable: journal shorter than header")
	}
	if string(data[:8]) != journalMagic {
		return hdr, nil, false, errors.New("durable: bad journal magic")
	}
	m := hmac.New(sha256.New, key)
	m.Write(data[:28])
	headerMAC := m.Sum(nil)[:integrity.ChainTagSize]
	if !hmac.Equal(headerMAC, data[28:journalHeaderSize]) {
		return hdr, nil, false, errors.New("durable: journal header failed authentication")
	}
	copy(hdr.FP[:], data[8:16])
	hdr.BaseSeq = binary.BigEndian.Uint64(data[16:24])
	hdr.BlockSize = binary.BigEndian.Uint32(data[24:28])
	if hdr.BlockSize == 0 || hdr.BlockSize > maxJournalBlockSize {
		return hdr, nil, false, fmt.Errorf("durable: journal block size %d out of range", hdr.BlockSize)
	}

	chain := integrity.NewChain(key, headerMAC)
	bodySize := recordBodySize(int(hdr.BlockSize))
	rest := data[journalHeaderSize:]
	for len(rest) > 0 {
		if len(rest) < groupCountSize {
			return hdr, recs, true, nil
		}
		count := binary.BigEndian.Uint32(rest[:groupCountSize])
		// Bounds in uint64 so a hostile count cannot overflow the length
		// arithmetic: anything the remaining bytes cannot hold is a torn
		// (unfinished) group, which by construction holds nothing durable.
		need := uint64(groupCountSize) + uint64(count)*uint64(bodySize) + integrity.ChainTagSize
		if count == 0 || uint64(len(rest)) < need {
			return hdr, recs, true, nil
		}
		msgLen := groupCountSize + int(count)*bodySize
		msg := rest[:msgLen]
		tag := rest[msgLen : msgLen+integrity.ChainTagSize]
		// On mismatch the chain has advanced past a group we discard, but
		// decoding stops here so the stale chain state is never reused.
		want := chain.Next(msg)
		if !hmac.Equal(want, tag) {
			return hdr, recs, true, nil
		}
		for i := 0; i < int(count); i++ {
			body := msg[groupCountSize+i*bodySize:][:bodySize]
			rec := Record{
				Seq:  binary.BigEndian.Uint64(body[0:8]),
				Addr: binary.BigEndian.Uint64(body[8:16]),
				Kind: RecordKind(body[16]),
			}
			if rec.Kind >= kindCount {
				// An authenticated record with an unknown kind can only come
				// from a broken (e.g. newer-versioned) writer; stop trusting
				// the tail rather than misreplaying it.
				return hdr, recs, true, nil
			}
			if rec.Seq != hdr.BaseSeq+1+uint64(len(recs)) {
				// A record authenticated under this chain can only be out of
				// sequence if the writer was broken; stop trusting the tail.
				return hdr, recs, true, nil
			}
			if rec.Kind == KindWrite {
				rec.Data = append([]byte(nil), body[17:]...)
			}
			recs = append(recs, rec)
		}
		rest = rest[msgLen+integrity.ChainTagSize:]
	}
	return hdr, recs, false, nil
}
