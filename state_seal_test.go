package sdimm

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestStateDirNothingInTheClear: the disk is outside the trust boundary,
// so nothing a Path ORAM must keep private may reach it in the clear. A
// durable cluster writes distinct 28-byte markers through Write, through
// Pipeline.Do and, moved by migration, through a drain, then checkpoints.
// No file in the state directory may contain a marker, the encoded
// seq ‖ addr of any journal record it holds, or the encoded addr ‖ value
// of any position-map entry of its newest checkpoint.
func TestStateDirNothingInTheClear(t *testing.T) {
	dir := t.TempDir()
	opts := ClusterOptions{SDIMMs: 4, Levels: 10, Key: []byte("clear-key"), Seed: 17,
		Durability: &DurabilityOptions{Dir: dir, Interval: 64}}
	c, err := NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	marker := func(i int) []byte { return []byte(fmt.Sprintf("marker-%021d", i)) }
	const n = 100
	for i := 0; i < n/2; i++ {
		if err := c.Write(uint64(i), marker(i)); err != nil {
			t.Fatal(err)
		}
	}
	p := c.Pipeline(PipelineOptions{Window: 8, Parallelism: 2})
	var ops []BatchOp
	for i := n / 2; i < n; i++ {
		ops = append(ops, BatchOp{Addr: uint64(i), Write: true, Data: marker(i)})
	}
	for _, r := range p.Do(ops) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	p.Close()
	if err := c.BeginDrain(1); err != nil {
		t.Fatal(err)
	}
	for done := false; !done; {
		if done, err = c.DrainStep(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CompleteDrain(); err != nil {
		t.Fatal(err)
	}
	if err := c.ForceCheckpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got, err := c.Read(uint64(i)); err != nil || !bytes.HasPrefix(got, marker(i)) {
			t.Fatalf("addr %d reads %q (%v), want its marker", i, got, err)
		}
	}

	var secrets [][]byte
	for i := 0; i < n; i++ {
		secrets = append(secrets, marker(i))
	}
	opened := openStateDir(t, dir, opts.Key)
	recs := 0
	for name, f := range opened {
		if !strings.HasSuffix(name, ".wal") {
			continue
		}
		for size := 8 + 8 + 1 + opts.withDefaults().BlockSize; len(f.Plain) >= size; f.Plain = f.Plain[size:] {
			secrets = append(secrets, f.Plain[:16])
			recs++
		}
	}
	cp, _ := newestCheckpoint(t, dir, opts.Key, fingerprint(opts.withDefaults()))
	for _, e := range cp.Positions {
		secrets = append(secrets, binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, e.Addr), e.Value))
	}
	if recs == 0 || len(cp.Positions) < n {
		t.Fatalf("the directory holds %d journal records and %d position entries: nothing to look for", recs, len(cp.Positions))
	}
	for name, data := range readStateDir(t, dir) {
		for _, s := range secrets {
			if bytes.Contains(data, s) {
				t.Errorf("%s holds %x in the clear", name, s)
				break
			}
		}
	}
}

// TestRecoverResealsUnderFreshSalts: a recovery that replays nothing
// rewrites checkpoint-<seq>.ckpt and journal-<seq>.wal under the names it
// loaded, and the same records then land at the same seqs of a journal of
// the same name. Each new file must draw a salt of its own, so no
// (key, nonce) pair is sealed twice and a group of the old journal — same
// name, same seq, same plaintext — spliced into the new one ends it as torn. A directory sealed under
// another cluster key fails closed: its checkpoints are refused, and its
// journal beside a genuine checkpoint replays nothing.
func TestRecoverResealsUnderFreshSalts(t *testing.T) {
	opts := ClusterOptions{SDIMMs: 2, Levels: 7, Key: []byte("salt-key"), Seed: 5,
		Durability: &DurabilityOptions{Dir: t.TempDir(), Interval: 1000}}
	payload := func(i int) []byte { return []byte(fmt.Sprintf("payload-%d", i)) }
	writes := func(c *Cluster, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := c.Write(uint64(i%7), payload(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	c, err := NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	writes(c, 0, 10)
	if err := c.ForceCheckpoint(); err != nil {
		t.Fatal(err)
	}
	snap := copyStateDir(t, opts.Durability.Dir)
	writes(c, 10, 14)
	c.Close()
	old := readStateDir(t, opts.Durability.Dir)

	ropts := opts
	ropts.Durability = &DurabilityOptions{Dir: snap, Interval: 1000}
	rc, report, err := RecoverCluster(ropts)
	if err != nil {
		t.Fatal(err)
	}
	if report.RecordsReplayed != 0 {
		t.Fatalf("recovery replayed %d records, want none", report.RecordsReplayed)
	}
	writes(rc, 10, 14)
	rc.Close()
	resealed := readStateDir(t, snap)

	ckpt, wal := fmt.Sprintf("checkpoint-%016x.ckpt", report.CheckpointSeq), fmt.Sprintf("journal-%016x.wal", report.CheckpointSeq)
	for _, name := range []string{ckpt, wal} {
		o, n := old[name], resealed[name]
		if len(o) < 24 || len(o) != len(n) {
			t.Fatalf("%s: %d bytes before the recovery, %d after", name, len(o), len(n))
		}
		if bytes.Equal(o[8:24], n[8:24]) {
			t.Errorf("%s: rewritten under the salt it was loaded with", name)
		}
	}
	if !bytes.Equal(openStateFile(t, opts.Key, wal, old[wal]), openStateFile(t, opts.Key, wal, resealed[wal])) {
		t.Fatal("the rewritten journal does not seal the same records")
	}

	// Every group here is one write record: a count, the record and a tag.
	group := 4 + 8 + 8 + 1 + opts.withDefaults().BlockSize + 16
	spliced := copyStateDir(t, snap)
	j := bytes.Clone(resealed[wal])
	copy(j[60+group:60+2*group], old[wal][60+group:])
	if err := os.WriteFile(filepath.Join(spliced, wal), j, 0o644); err != nil {
		t.Fatal(err)
	}
	sopts := opts
	sopts.Durability = &DurabilityOptions{Dir: spliced, Interval: 1000}
	sc, report, err := RecoverCluster(sopts)
	if err != nil {
		t.Fatal(err)
	}
	sc.Close()
	if !report.TornTail || report.RecordsReplayed != 1 {
		t.Fatalf("a group spliced in from the old journal: %+v, want one record replayed and a torn tail", report)
	}

	other := opts
	other.Key = []byte("another-cluster-key")
	other.Durability = &DurabilityOptions{Dir: copyStateDir(t, snap), Interval: 1000}
	if oc, _, err := RecoverCluster(other); err == nil {
		oc.Close()
		t.Fatal("a directory sealed under another cluster key recovered")
	}
	foreign := t.TempDir()
	other.Durability = &DurabilityOptions{Dir: foreign, Interval: 1000}
	oc, err := NewCluster(other)
	if err != nil {
		t.Fatal(err)
	}
	writes(oc, 0, 10)
	if err := oc.ForceCheckpoint(); err != nil {
		t.Fatal(err)
	}
	writes(oc, 10, 14)
	oc.Close()
	mixed := copyStateDir(t, snap)
	if err := os.WriteFile(filepath.Join(mixed, wal), readStateDir(t, foreign)[wal], 0o644); err != nil {
		t.Fatal(err)
	}
	mopts := opts
	mopts.Durability = &DurabilityOptions{Dir: mixed, Interval: 1000}
	mc, report, err := RecoverCluster(mopts)
	if err != nil {
		t.Fatal(err)
	}
	mc.Close()
	if report.RecordsReplayed != 0 || !report.TornTail {
		t.Fatalf("a journal sealed under another cluster key: %+v, want nothing replayed and a torn tail", report)
	}
}

// TestRecoverRefusesFormat3Checkpoint: the HMAC-authenticated checkpoint
// format that preceded the seal has no reader left. A genuine one — magic
// SDIMMCP3, the body length, the body in the clear and an HMAC-SHA256 over
// all of it under the durable key — is refused with an error.
func TestRecoverRefusesFormat3Checkpoint(t *testing.T) {
	opts := ClusterOptions{SDIMMs: 2, Levels: 7, Key: []byte("format3-key"), Seed: 8,
		Durability: &DurabilityOptions{Dir: t.TempDir()}}
	c, err := NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write(3, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := c.ForceCheckpoint(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	name := fmt.Sprintf("checkpoint-%016x.ckpt", c.Seq())
	body := openStateDir(t, opts.Durability.Dir, opts.Key)[name].Plain
	file := binary.BigEndian.AppendUint64([]byte("SDIMMCP3"), uint64(len(body)))
	file = append(file, body...)
	mac := hmac.New(sha256.New, append([]byte("durable|"), opts.Key...))
	mac.Write(file)
	old := t.TempDir()
	if err := os.WriteFile(filepath.Join(old, name), mac.Sum(file), 0o644); err != nil {
		t.Fatal(err)
	}
	opts.Durability = &DurabilityOptions{Dir: old}
	if rc, _, err := RecoverCluster(opts); err == nil {
		rc.Close()
		t.Fatal("a format-3 checkpoint recovered")
	}
}
