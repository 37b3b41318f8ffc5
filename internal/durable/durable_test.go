package durable

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"testing"
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
				Stash:     []BlockState{{Addr: 1, Leaf: 3, Data: []byte("stash-block")}},
				Transfer:  []BlockState{{Addr: 5, Leaf: 0, Data: []byte("queued")}},
				Buckets:   []BucketState{{Idx: 0, Raw: bytes.Repeat([]byte{0xab}, 40)}},
				Health:    HealthState{State: 1, Consecutive: 2, Successes: 10, Failures: 3},
				HostSend:  4, HostRecv: 4, DevSend: 4, DevRecv: 4,
				Incarnation: 2,
				Detached:    true,
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
	if got := m.LastSeq(); got != 3 {
		t.Fatalf("LastSeq = %d, want 3", got)
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
	if !m.Crashed() {
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
	seqs, err := checkpointSeqs(dir)
	if err != nil {
		t.Fatalf("checkpointSeqs: %v", err)
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
