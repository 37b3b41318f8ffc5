package sdimm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sdimm/internal/durable"
)

// TestStateDirGolden pins every byte a durable ring-mode Independent cluster
// leaves in its state directory: the two retained checkpoints (their ring
// sections included) and both retained journals. The run writes and reads,
// then drains member 1 to the end, detaches it and joins a fresh member
// after the second-to-last checkpoint, so the retained journals hold all six
// record kinds. A changed digest is a break of the checkpoint or journal
// format.
func TestStateDirGolden(t *testing.T) {
	dir := t.TempDir()
	opts := ClusterOptions{SDIMMs: 2, Levels: 7, RingFlushInterval: 4,
		Key: []byte("state-golden-key"), Seed: 11,
		Durability: &DurabilityOptions{Dir: dir, Interval: 32}}
	c, err := NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 64)
	for i := 0; i < 80; i++ {
		addr := uint64(i*7) % 29
		if i%3 == 2 {
			if _, err := c.Read(addr); err != nil {
				t.Fatalf("read %d: %v", addr, err)
			}
			continue
		}
		payload[0], payload[1] = byte(i), byte(addr)
		if err := c.Write(addr, payload); err != nil {
			t.Fatalf("write %d: %v", addr, err)
		}
	}
	if err := c.BeginDrain(1); err != nil {
		t.Fatal(err)
	}
	for {
		done, err := c.DrainStep()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	if err := c.CompleteDrain(); err != nil {
		t.Fatal(err)
	}
	if err := c.AddSDIMM(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := c.Read(uint64(i)); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover replays the newest checkpoint's journal; with that checkpoint
	// gone it falls back to the older one and replays the older journal.
	fp := fingerprint(opts.withDefaults())
	cp, recs := newestCheckpoint(t, dir, opts.Key, fp)
	older := copyStateDir(t, dir)
	if err := os.Remove(filepath.Join(older, fmt.Sprintf("checkpoint-%016x.ckpt", cp.Seq))); err != nil {
		t.Fatal(err)
	}
	_, olderRecs := newestCheckpoint(t, older, opts.Key, fp)
	kinds := map[durable.RecordKind]bool{}
	for _, r := range append(olderRecs, recs...) {
		kinds[r.Kind] = true
	}
	for _, k := range []durable.RecordKind{durable.KindRead, durable.KindWrite, durable.KindDrainBegin,
		durable.KindDrainEnd, durable.KindJoin, durable.KindMigrate} {
		if !kinds[k] {
			t.Errorf("retained journals (%d + %d records) hold no record of kind %d", len(olderRecs), len(recs), k)
		}
	}

	want := map[string]string{
		"checkpoint-0000000000000040.ckpt": "0c6b4b1d3285647025380668b8ef0cfa6588153026a7b89cc289e40c812d660e",
		"checkpoint-0000000000000061.ckpt": "195582c5d40f8360e5acb868f583afae025853edd6994e4fc0d512d87a8525f0",
		"journal-0000000000000040.wal":     "71855218f0303c321ed35bfa8ad2ff967c0480e33547fb7704157aceaf3fe557",
		"journal-0000000000000061.wal":     "e5bbbb628488f25e66d83594ee8ccc36be4821e4118fd9b02f272aeab0d53ffe",
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		got[e.Name()] = hex.EncodeToString(sum[:])
	}
	if len(got) != len(want) {
		t.Errorf("state directory holds %d files, want %d", len(got), len(want))
	}
	for name, sum := range want {
		if got[name] != sum {
			t.Errorf("%s: sha256 %s, want %s", name, got[name], sum)
		}
	}
}
