package sdimm

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdimm/internal/durable"
)

// readStateDir returns every file of a state directory by name.
func readStateDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range ents {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// copyStateDir copies a state directory's files into a fresh temporary
// directory (recovery rewrites the directory it is given).
func copyStateDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	for name, data := range readStateDir(t, src) {
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// newestCheckpoint decodes a copy of dir the way recovery would and returns
// its newest checkpoint and the journal records past it.
func newestCheckpoint(t *testing.T, dir string, clusterKey []byte, fp durable.Fingerprint) (*durable.Checkpoint, []durable.Record) {
	t.Helper()
	m, err := durable.Open(copyStateDir(t, dir), append([]byte("durable|"), clusterKey...), fp, fp.BlockSize, false)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	cp, recs, _, err := m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	return cp, recs
}

// stateFile is one state file as openStateDir reads it: its length and the
// plaintext it seals.
type stateFile struct {
	Size  int
	Plain []byte
}

// openStateDir opens every file of a state directory with openStateFile.
// Sealed bytes differ on every run (each file draws a fresh salt), so this
// is what two runs that must agree compare: names, sizes and plaintexts.
func openStateDir(t *testing.T, dir string, clusterKey []byte) map[string]stateFile {
	t.Helper()
	files := map[string]stateFile{}
	for name, data := range readStateDir(t, dir) {
		files[name] = stateFile{len(data), openStateFile(t, clusterKey, name, data)}
	}
	return files
}

// openStateFile opens one state file with the standard library alone, so
// the sealed format is stated here once more in executable form. A file's
// AES-256-GCM key is SHA-256("sdimm/durable/v1|" ‖ salt ‖ "durable|" ‖
// cluster key), and a seal's 12-byte nonce is 4 zero bytes and a big-endian
// seq. A checkpoint is magic ‖ salt(16) ‖ body length(8) ‖ sealed body ‖
// tag(16), the 32 bytes before the body its additional data, sealed at seq
// 0; its plaintext is the body. A journal is magic ‖ salt(16) ‖
// fingerprint(8) ‖ base seq(8) ‖ block size(4) ‖ the tag of an empty seal
// at seq 0 with those 44 bytes as additional data, then groups: a count(4)
// in the clear, the sealed records (seq, addr, kind and the payload padded
// to the block size each) and a tag, sealed at the seq of the group's first
// record with the count and the previous tag as additional data. Its
// plaintext is every record of every group that opens, concatenated; a
// torn tail ends it.
func openStateFile(t *testing.T, clusterKey []byte, name string, data []byte) []byte {
	t.Helper()
	aead := func(salt []byte) cipher.AEAD {
		k := sha256.Sum256(append(append([]byte("sdimm/durable/v1|"), salt...), append([]byte("durable|"), clusterKey...)...))
		blk, _ := aes.NewCipher(k[:])
		a, _ := cipher.NewGCM(blk)
		return a
	}
	nonce := func(seq uint64) []byte { return binary.BigEndian.AppendUint64(make([]byte, 4), seq) }
	if strings.HasSuffix(name, ".ckpt") {
		if len(data) < 32+16 || string(data[:8]) != "SDIMMCP4" || binary.BigEndian.Uint64(data[24:32]) != uint64(len(data)-48) {
			t.Fatalf("%s: not a sealed checkpoint of its own length", name)
		}
		body, err := aead(data[8:24]).Open(nil, nonce(0), data[32:], data[:32])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return body
	}
	if len(data) < 60 || string(data[:8]) != "SDIMMWL3" {
		t.Fatalf("%s: not a sealed journal", name)
	}
	a := aead(data[8:24])
	if _, err := a.Open(nil, nonce(0), data[44:60], data[:44]); err != nil {
		t.Fatalf("%s: header: %v", name, err)
	}
	size := 8 + 8 + 1 + int(binary.BigEndian.Uint32(data[40:44]))
	seq := binary.BigEndian.Uint64(data[32:40]) + 1
	prev, rest := data[44:60], data[60:]
	var recs []byte
	for len(rest) >= 4 {
		count := binary.BigEndian.Uint32(rest)
		n := int(count) * size
		if len(rest) < 4+n+16 {
			break
		}
		pt, err := a.Open(nil, nonce(seq), rest[4:4+n+16], append(rest[:4:4], prev...))
		if err != nil {
			break
		}
		recs = append(recs, pt...)
		seq += uint64(count)
		prev, rest = rest[4+n:4+n+16], rest[4+n+16:]
	}
	return recs
}

// TestStateDirGolden pins every plaintext byte a durable ring-mode
// Independent cluster seals into its state directory, and every file's
// name and size: the two retained checkpoints (their ring sections
// included) and both retained journals. The run writes and reads, then
// drains member 1 to the end, detaches it and joins a fresh member after
// the second-to-last checkpoint, so the retained journals hold all six
// record kinds. A changed digest is a break of the checkpoint or journal
// format. The digests are those of the bytes the HMAC-authenticated
// formats before the seal (SDIMMCP3, SDIMMWL2) carried in the same places:
// a checkpoint keeps its size (a 16-byte salt and a 16-byte tag replace a
// 32-byte HMAC), a journal grows by its 16-byte salt.
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

	want := map[string]struct {
		size, plain int
		sum         string
	}{
		"checkpoint-0000000000000040.ckpt": {24622, 24574, "e9235b064cdf8230d14263ddb70f60ded12d3b7d498d346a56c00518c7dfb8e0"},
		"checkpoint-0000000000000061.ckpt": {16462, 16414, "13ec2666e5c3c15dc3b8ed29e7dca484e2cf88270f716a757eb6c96ba868db84"},
		"journal-0000000000000040.wal":     {3393, 2673, "3baa847b988a1dd57343203e1b61eee95751930c2dc7342ec4d010d0e11dfb55"},
		"journal-0000000000000061.wal":     {565, 405, "015487bbefc0e56cdcf017673907f72acc57b301bf3ed61fb1c46ea51d0a58f4"},
	}
	got := openStateDir(t, dir, opts.Key)
	if len(got) != len(want) {
		t.Errorf("state directory holds %d files, want %d", len(got), len(want))
	}
	for name, w := range want {
		f, ok := got[name]
		sum := sha256.Sum256(f.Plain)
		if !ok || f.Size != w.size || len(f.Plain) != w.plain || hex.EncodeToString(sum[:]) != w.sum {
			t.Errorf("%s: %d bytes opening to %d with sha256 %x, want %d bytes opening to %d with sha256 %s",
				name, f.Size, len(f.Plain), sum, w.size, w.plain, w.sum)
		}
	}
}
