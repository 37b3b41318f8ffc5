package durable

import (
	"bytes"
	"encoding/binary"
	"os"
	"testing"
)

// FuzzJournalDecode asserts the journal decoder fails closed on arbitrary
// bytes: it never panics, and whatever it accepts is a contiguous record
// prefix of whole groups, each opened under its chained tag. Mutations stop
// at the first tag they break; FuzzJournalGroup reaches the walk below it. Seeded with a valid
// journal, written by a Manager through the header and group walks, mixing
// a multi-record group (a pipeline wave) and singleton groups (sequential
// appends) so mutations explore the interesting paths.
func FuzzJournalDecode(f *testing.F) {
	key := []byte("fuzz-journal-key")
	dir := f.TempDir()
	m, err := Open(dir, key, testFP, 16, false)
	if err != nil {
		f.Fatal(err)
	}
	if err := m.WriteCheckpoint(testCheckpoint(7)); err != nil {
		f.Fatal(err)
	}
	path := journalPath(dir, 7)
	empty, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	for _, group := range [][]Record{
		{
			{Seq: 8, Addr: 3, Kind: KindWrite, Data: bytes.Repeat([]byte{0x5a}, 16)},
			{Seq: 9, Addr: 4},
			{Seq: 10, Addr: 1, Kind: KindDrainBegin},
		},
		{{Seq: 11, Addr: 6, Kind: KindMigrate}},
		{{Seq: 12, Addr: 1, Kind: KindDrainEnd}, {Seq: 13, Addr: 1, Kind: KindJoin}},
	} {
		if err := m.Append(group); err != nil {
			f.Fatalf("append seed group: %v", err)
		}
	}
	m.Close()
	file, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(file)
	f.Add(file[:len(file)-5]) // torn tail
	f.Add(empty)              // empty journal
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, recs, _, err := decodeJournal(key, bytes.Clone(data))
		if err != nil {
			if len(recs) != 0 {
				t.Fatalf("decoder returned %d records alongside error %v", len(recs), err)
			}
			return
		}
		for i, rec := range recs {
			if rec.Seq != hdr.BaseSeq+1+uint64(i) {
				t.Fatalf("record %d has seq %d, want contiguous from base %d", i, rec.Seq, hdr.BaseSeq)
			}
			if rec.Kind >= kindCount {
				t.Fatalf("record %d has out-of-range kind %d", i, rec.Kind)
			}
			if rec.Kind == KindWrite && len(rec.Data) != int(hdr.BlockSize) {
				t.Fatalf("write record %d payload %d != block size %d", i, len(rec.Data), hdr.BlockSize)
			}
			if rec.Kind != KindWrite && rec.Data != nil {
				t.Fatalf("non-write record %d carries payload", i)
			}
		}
	})
}

// FuzzCheckpointDecode asserts the checkpoint decoder fails closed: no
// panics, no unauthenticated acceptance. Any input it accepts (a mutation
// practically never opens) must open to a body that re-walks to itself;
// the property that matters here is crash-freedom of the envelope checks.
func FuzzCheckpointDecode(f *testing.F) {
	key := []byte("fuzz-checkpoint-key")
	cp := testCheckpoint(3)
	cp.FP = testFP.Hash()
	enc := encodeCheckpoint(key, cp)
	f.Add(enc)
	f.Add(enc[:len(enc)-1])
	f.Add(enc[:20])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		opened := bytes.Clone(data)
		got, err := decodeCheckpoint(key, opened)
		if err != nil {
			return
		}
		var e codec
		e.walk(got)
		if !bytes.Equal(e.b, opened[32:len(opened)-tagSize]) {
			t.Fatal("decoder accepted a body that does not re-walk to itself")
		}
	})
}

// FuzzCheckpointBody runs the checkpoint field walk on arbitrary bytes,
// below the seal that stops every FuzzCheckpointDecode mutation at the
// envelope, so the count guard, the byte-length guard, the flag check, the
// ring section's length check and the trailing-byte check all see hostile
// input (the seed's member carries a ring section). The walk must not panic
// or let a corrupt count drive allocation, and any body it accepts (accepted
// means consumed exactly) must re-encode to the same bytes: the canonical-
// encoding property of the ring section included.
func FuzzCheckpointBody(f *testing.F) {
	var c codec
	c.walk(testCheckpoint(3))
	body := c.b
	f.Add(body)
	for _, n := range []int{len(body) - 1, len(body) / 2, 60, 8, 0} {
		f.Add(body[:n])
	}
	huge := append([]byte(nil), body...)
	binary.BigEndian.PutUint32(huge[48:], 0xffffffff) // the positions count
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeBody(data)
		if err != nil {
			return
		}
		var e codec
		e.walk(got)
		if !bytes.Equal(e.b, data) {
			t.Fatal("walk accepted a body that does not re-encode to itself")
		}
	})
}

// FuzzJournalGroup is FuzzCheckpointBody's twin for the journal: it runs
// the record-group walk on arbitrary opened bytes, below the seal that
// stops every FuzzJournalDecode mutation at a group's tag, so the count
// guard, the kind check, the sequence check and the payload view all see
// hostile input. The walk must not panic or let a corrupt count drive
// allocation, and any group it accepts must re-encode to the same bytes.
func FuzzJournalGroup(f *testing.F) {
	const blockSize = 16
	recs := []Record{
		{Seq: 8, Addr: 3, Kind: KindWrite, Data: bytes.Repeat([]byte{0x5a}, blockSize)},
		{Seq: 9, Addr: 4},
		{Seq: 10, Addr: 1, Kind: KindDrainBegin},
		{Seq: 11, Addr: 6, Kind: KindMigrate},
	}
	var c codec
	c.group(&recs, blockSize)
	group := c.b
	f.Add(uint64(8), group)
	f.Add(uint64(9), group)
	f.Add(uint64(8), group[:len(group)-1])
	f.Add(uint64(8), append(bytes.Clone(group), 0))
	huge := bytes.Clone(group)
	binary.BigEndian.PutUint32(huge, 0xffffffff)
	f.Add(uint64(8), huge)
	f.Add(uint64(0), []byte{0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, first uint64, data []byte) {
		got, err := walkGroup(data, blockSize, first)
		if err != nil {
			return
		}
		var e codec
		e.group(&got, blockSize)
		if !bytes.Equal(e.b, data) {
			t.Fatal("walk accepted a group that does not re-encode to itself")
		}
	})
}
