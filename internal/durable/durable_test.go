package durable

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"sdimm/internal/oram"
)

var testFP = Fingerprint{Kind: "independent", Members: 4, Levels: 8, BlockSize: 32, Z: 4, Seed: 7}

func testManager(t *testing.T, dir string) *Manager {
	t.Helper()
	m, err := Open(dir, []byte("durable-test-key"), testFP, 32, false)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return m
}

func testCheckpoint(seq uint64) *Checkpoint {
	return &Checkpoint{
		Seq: seq,
		RNG: [4]uint64{1, 2, 3, 4},
		Positions: []PosEntry{
			{Addr: 1, Value: 9},
			{Addr: 5, Value: 2},
		},
		Members: []MemberState{
			{
				EngineRNG: [4]uint64{5, 6, 7, 8},
				BufferRNG: [4]uint64{9, 10, 11, 12},
				Stash:     []oram.Block{{Addr: 1, Leaf: 3, Data: []byte("stash-block")}},
				Transfer:  []oram.Block{{Addr: 5, Leaf: 0, Data: []byte("queued")}},
				Buckets:   []BucketState{{Idx: 0, Raw: bytes.Repeat([]byte{0xab}, 40)}},
				Health:    HealthState{State: 1, Consecutive: 2, Successes: 10, Failures: 3},
				HostSend:  4, HostRecv: 4, DevSend: 4, DevRecv: 4,
				Incarnation: 2,
				Detached:    true,
				Ring:        &oram.RingState{Counter: 9, Phase: 1, Dead: []oram.DeadSlots{{Bucket: 3, Mask: 0x06}}},
			},
		},
		Poisoned: []uint64{17},
		MigSeq:   6,
		TopoSeq:  3,
		Drains:   []DrainState{{Member: 1, Moved: 4}},
	}
}

func record(seq uint64, addr uint64, write bool, data []byte) Record {
	k := KindRead
	if write {
		k = KindWrite
	}
	return Record{Seq: seq, Addr: addr, Kind: k, Data: data}
}

func TestCheckpointRoundTrip(t *testing.T) {
	key := []byte("roundtrip-key")
	cp := testCheckpoint(42)
	cp.FP = testFP.Hash()
	enc := encodeCheckpoint(key, cp)
	got, err := decodeCheckpoint(key, enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(cp, got) {
		t.Fatalf("round trip mismatch:\n want %+v\n got  %+v", cp, got)
	}
}

// TestCheckpointEncodingGolden pins the checkpoint file format byte for
// byte over a checkpoint that populates every field: two members, one
// detached with a ring section (counter, flush phase and two dead-slot
// entries) and one with every list empty, plus poison and drain entries. A
// change to the digest is a checkpoint format break.
func TestCheckpointEncodingGolden(t *testing.T) {
	cp := &Checkpoint{
		FP:        testFP.Hash(),
		Seq:       0x0102030405060708,
		RNG:       [4]uint64{1, 1 << 63, 3, ^uint64(0)},
		Positions: []PosEntry{{Addr: 2, Value: 11}, {Addr: 9, Value: 1 << 40}},
		Members: []MemberState{
			{
				EngineRNG: [4]uint64{5, 6, 7, 8},
				BufferRNG: [4]uint64{9, 10, 11, 12},
				Stash: []oram.Block{
					{Addr: 2, Leaf: 7, Data: []byte("stash-two")},
					{Addr: 4, Leaf: 0, Data: nil},
				},
				Transfer: []oram.Block{{Addr: 9, Leaf: 3, Data: bytes.Repeat([]byte{0x3c}, 17)}},
				Buckets:  []BucketState{{Idx: 0, Raw: bytes.Repeat([]byte{0xab}, 40)}, {Idx: 6, Raw: []byte{1, 2, 3}}},
				Health:   HealthState{State: 2, Consecutive: 5, Successes: 100, Failures: 7},
				HostSend: 21, HostRecv: 22, DevSend: 23, DevRecv: 24,
				Incarnation: 3,
				Detached:    true,
				Ring:        &oram.RingState{Counter: 37, Phase: 3, Dead: []oram.DeadSlots{{Bucket: 5, Mask: 0x0a}, {Bucket: 12, Mask: 0x01}}},
			},
			{
				EngineRNG: [4]uint64{13, 14, 15, 16},
				BufferRNG: [4]uint64{17, 18, 19, 20},
				Health:    HealthState{Successes: 1},
			},
		},
		Poisoned: []uint64{3, 1 << 33},
		MigSeq:   12,
		TopoSeq:  4,
		Drains:   []DrainState{{Member: 0, Moved: 9}, {Member: 1, Moved: 0}},
	}
	sum := sha256.Sum256(encodeCheckpoint([]byte("golden-checkpoint-key"), cp))
	const want = "2d7e9ef84a8781321df64b2289d899d4f258172ddad10a40a600c995a052162e"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("checkpoint encoding digest %s, want %s", got, want)
	}
}

// TestCheckpointBodyRejects hands the field walk one body per rejection
// reason, each a single edit of a valid one-member body: the layout is the
// 48-byte head, the positions count at 48, the members count at 52, then
// the member from 56, whose Detached byte sits at 196 and Ring length at 197.
// The ring rows edit the same body with a one-entry ring section: its length
// (32) at 197, counter at 201, phase at 209, entry count at 213.
func TestCheckpointBodyRejects(t *testing.T) {
	encode := func(m MemberState) []byte {
		var c codec
		c.walk(&Checkpoint{Members: []MemberState{m}})
		if _, err := decodeBody(c.b); err != nil {
			t.Fatalf("valid body rejected: %v", err)
		}
		return c.b
	}
	body := encode(MemberState{})
	if len(body) != 225 {
		t.Fatalf("one-member body is %d bytes, want 225", len(body))
	}
	ring := encode(MemberState{Ring: &oram.RingState{Counter: 1, Dead: []oram.DeadSlots{{Bucket: 2, Mask: 3}}}})
	if len(ring) != 225+32 {
		t.Fatalf("one-member body with a ring entry is %d bytes, want 257", len(ring))
	}
	patch := func(body []byte, off int, v ...byte) []byte {
		b := append([]byte(nil), body...)
		copy(b[off:], v)
		return b
	}
	for _, tc := range []struct {
		name string
		body []byte
		want string
	}{
		{"truncated", body[:len(body)-1], "truncated body"},
		{"list count past body", patch(body, 48, 0xff, 0xff, 0xff, 0xff), "list count exceeds body"},
		{"byte length past body", patch(body, 197, 0, 0, 0, 25), "truncated body"},
		{"detached flag 2", patch(body, 196, 2), "flag byte not 0 or 1"},
		{"trailing byte", append(patch(body, 0), 0), "1 trailing bytes"},
		{"ring length not 16+16n", patch(ring, 197, 0, 0, 0, 48), "ring section length does not match its entry count"},
		{"ring length under 16", patch(ring, 197, 0, 0, 0, 15), "truncated body"},
		{"ring entry count past body", patch(ring, 213, 0xff, 0xff, 0xff, 0xff), "list count exceeds body"},
	} {
		if _, err := decodeBody(tc.body); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: decode error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

func TestCheckpointRejectsTampering(t *testing.T) {
	key := []byte("tamper-key")
	cp := testCheckpoint(1)
	cp.FP = testFP.Hash()
	enc := encodeCheckpoint(key, cp)
	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bit flip in body", func(b []byte) []byte { b[20] ^= 1; return b }},
		{"bit flip in mac", func(b []byte) []byte { b[len(b)-1] ^= 1; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-5] }},
		{"extended", func(b []byte) []byte { return append(b, 0) }},
		{"empty", func(b []byte) []byte { return nil }},
	} {
		mutated := tc.mutate(append([]byte(nil), enc...))
		if _, err := decodeCheckpoint(key, mutated); err == nil {
			t.Errorf("%s: decode accepted corrupted checkpoint", tc.name)
		}
	}
	if _, err := decodeCheckpoint([]byte("other-key"), enc); err == nil {
		t.Error("decode accepted checkpoint under wrong key")
	}
}

func TestJournalAppendAndRecover(t *testing.T) {
	dir := t.TempDir()
	m := testManager(t, dir)
	if m.HasState() {
		t.Fatal("fresh dir reports state")
	}
	if err := m.Append([]Record{record(1, 1, true, []byte("x"))}); err == nil {
		t.Fatal("append before first checkpoint succeeded")
	}
	if err := m.WriteCheckpoint(testCheckpoint(0)); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	if !m.HasState() {
		t.Fatal("dir with checkpoint reports no state")
	}
	recs := []Record{
		record(1, 10, true, []byte("payload-a")),
		record(2, 11, false, nil),
		record(3, 10, true, []byte("payload-b")),
	}
	if err := m.Append(recs); err != nil {
		t.Fatalf("Append: %v", err)
	}

	m2 := testManager(t, dir)
	cp, got, report, err := m2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if cp.Seq != 0 || report.CheckpointSeq != 0 || report.CheckpointsSkipped != 0 {
		t.Fatalf("recovered checkpoint seq %d (report %+v)", cp.Seq, report)
	}
	if report.TornTail {
		t.Fatal("clean journal reported torn")
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Seq != recs[i].Seq || got[i].Addr != recs[i].Addr || got[i].Kind != recs[i].Kind {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got[i], recs[i])
		}
		if recs[i].Kind == KindWrite && !bytes.Equal(got[i].Data[:len(recs[i].Data)], recs[i].Data) {
			t.Fatalf("record %d payload mismatch", i)
		}
	}
}

func TestJournalSeqGapRejected(t *testing.T) {
	m := testManager(t, t.TempDir())
	if err := m.WriteCheckpoint(testCheckpoint(0)); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	if err := m.Append([]Record{record(2, 1, false, nil)}); err == nil {
		t.Fatal("append with seq gap succeeded")
	}
}

// TestJournalWriteFailureLatches: a journal write that fails — here the
// file is closed under the manager — is latched like a planned crash: that
// append and every later Append and WriteCheckpoint return the same error,
// so no checkpoint can persist state the journal lost, and the directory
// still recovers the records written before the failure.
func TestJournalWriteFailureLatches(t *testing.T) {
	dir := t.TempDir()
	m := testManager(t, dir)
	if err := m.WriteCheckpoint(testCheckpoint(0)); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	if err := m.Append([]Record{record(1, 10, true, []byte("a"))}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	m.jf.Close()
	failed := m.Append([]Record{record(2, 11, true, []byte("b"))})
	if failed == nil {
		t.Fatal("append to a closed journal succeeded")
	}
	if err := m.Err(); err != failed {
		t.Fatalf("Err = %v, want the failed append's %v", err, failed)
	}
	if err := m.Append([]Record{record(2, 11, true, []byte("b"))}); err != failed {
		t.Fatalf("append after the failure = %v, want %v", err, failed)
	}
	if err := m.WriteCheckpoint(testCheckpoint(2)); err != failed {
		t.Fatalf("checkpoint after the failure = %v, want %v", err, failed)
	}

	cp, recs, _, err := testManager(t, dir).Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if cp.Seq != 0 || len(recs) != 1 || recs[0].Seq != 1 {
		t.Fatalf("recovered checkpoint %d with %d records, want checkpoint 0 and record 1", cp.Seq, len(recs))
	}
}

func TestTornTailYieldsValidPrefix(t *testing.T) {
	dir := t.TempDir()
	m := testManager(t, dir)
	if err := m.WriteCheckpoint(testCheckpoint(0)); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	m.PlanCrash(2, 9) // two durable records, then 9 bytes of the third
	err := m.Append([]Record{
		record(1, 10, true, []byte("a")),
		record(2, 11, true, []byte("b")),
		record(3, 12, true, []byte("c")),
	})
	if err != ErrCrashed {
		t.Fatalf("Append after crash plan = %v, want ErrCrashed", err)
	}
	if m.Err() != ErrCrashed {
		t.Fatal("manager not marked crashed")
	}
	if err := m.WriteCheckpoint(testCheckpoint(3)); err != ErrCrashed {
		t.Fatalf("post-crash WriteCheckpoint = %v, want ErrCrashed", err)
	}

	m2 := testManager(t, dir)
	cp, recs, report, err := m2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if cp.Seq != 0 {
		t.Fatalf("checkpoint seq %d, want 0", cp.Seq)
	}
	if !report.TornTail {
		t.Fatal("torn journal not reported")
	}
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want the 2 durable ones", len(recs))
	}
}

func TestRecoverFallsBackOnCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	m := testManager(t, dir)
	if err := m.WriteCheckpoint(testCheckpoint(0)); err != nil {
		t.Fatalf("WriteCheckpoint 0: %v", err)
	}
	if err := m.Append([]Record{record(1, 1, false, nil)}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := m.WriteCheckpoint(testCheckpoint(1)); err != nil {
		t.Fatalf("WriteCheckpoint 1: %v", err)
	}
	// Corrupt the newest checkpoint on disk.
	path := checkpointPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}
	data[30] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("rewrite checkpoint: %v", err)
	}

	m2 := testManager(t, dir)
	cp, recs, report, err := m2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if cp.Seq != 0 || report.CheckpointsSkipped != 1 {
		t.Fatalf("fallback failed: seq %d, skipped %d", cp.Seq, report.CheckpointsSkipped)
	}
	if len(recs) != 1 {
		t.Fatalf("fallback replayed %d records, want 1", len(recs))
	}
}

func TestRecoverMissingJournalIsClean(t *testing.T) {
	dir := t.TempDir()
	m := testManager(t, dir)
	if err := m.WriteCheckpoint(testCheckpoint(5)); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	m.Close()
	// Simulate a crash between checkpoint publish and journal create.
	if err := os.Remove(journalPath(dir, 5)); err != nil {
		t.Fatalf("remove journal: %v", err)
	}
	m2 := testManager(t, dir)
	cp, recs, report, err := m2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if cp.Seq != 5 || len(recs) != 0 || report.TornTail {
		t.Fatalf("unexpected recovery: seq %d, %d recs, torn %v", cp.Seq, len(recs), report.TornTail)
	}
}

func TestFingerprintMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	m := testManager(t, dir)
	if err := m.WriteCheckpoint(testCheckpoint(0)); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	other := testFP
	other.Levels++
	m2, err := Open(dir, []byte("durable-test-key"), other, 32, false)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, _, _, err := m2.Recover(); err == nil {
		t.Fatal("recovery accepted a different cluster shape")
	}
}

func TestPruneKeepsFallback(t *testing.T) {
	dir := t.TempDir()
	m := testManager(t, dir)
	for seq := uint64(0); seq <= 4; seq++ {
		if err := m.WriteCheckpoint(testCheckpoint(seq)); err != nil {
			t.Fatalf("WriteCheckpoint %d: %v", seq, err)
		}
	}
	seqs, err := fileSeqs(dir, checkpointName)
	if err != nil {
		t.Fatalf("fileSeqs: %v", err)
	}
	if !reflect.DeepEqual(seqs, []uint64{3, 4}) {
		t.Fatalf("kept checkpoints %v, want [3 4]", seqs)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		var seq uint64
		if n, _ := fmt.Sscanf(e.Name(), "journal-%016x.wal", &seq); n == 1 && seq < 3 {
			t.Fatalf("stale journal %s survived pruning", e.Name())
		}
	}
}
