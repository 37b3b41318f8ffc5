package durable

import (
	"bytes"
	"testing"

	"sdimm/internal/raceflag"
)

// TestJournalAppendZeroAlloc is the allocation gate for the commit path:
// encoding a record, sealing its group, and writing the journal must
// reuse the manager's scratch — every committed access pays this cost.
func TestJournalAppendZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc gates run without -race")
	}
	m := testManager(t, t.TempDir())
	if err := m.WriteCheckpoint(testCheckpoint(0)); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5A}, 32)
	var batch [1]Record
	seq := uint64(1)
	append1 := func() {
		k := KindRead
		if seq%2 == 0 {
			k = KindWrite
		}
		batch[0] = Record{Seq: seq, Addr: seq % 8, Kind: k, Data: payload}
		if err := m.Append(batch[:]); err != nil {
			t.Fatal(err)
		}
		seq++
	}
	// Warm-up grows the record scratch to steady-state size.
	for i := 0; i < 64; i++ {
		append1()
	}
	if allocs := testing.AllocsPerRun(200, append1); allocs != 0 {
		t.Fatalf("Manager.Append allocates %.1f objects per record in steady state, want 0", allocs)
	}
}
