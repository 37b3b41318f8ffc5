package sdimm

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// splitGoldenRun drives one fixed-seed Split+parity history through every
// path that seals, rebuilds or re-derives member state — writes, reads, a
// fail-stop with degraded reads, a replacement rebuilt from the survivors, a
// corrupt bucket persisted into a checkpoint and repaired by the recovery
// scrub — and returns the SHA-256 of the final checkpoint's body. Only the
// exported surface and the sealed format (openStateFile) are used.
func splitGoldenRun(t *testing.T, levels int, addrs uint64, fill, ops int) string {
	t.Helper()
	opts := ClusterOptions{Split: true, SDIMMs: 4, Levels: levels, Key: []byte("split-golden-key"), Seed: 21,
		Parity: true, Durability: &DurabilityOptions{Dir: t.TempDir(), Interval: 32}}
	c, err := NewCluster(opts)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	work := recWorkload(31, ops, addrs)
	final := map[uint64][]byte{}
	drive := func(c *Cluster, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if op := work[i]; op.write {
				if err := c.Write(op.addr, op.data); err != nil {
					t.Fatalf("write op %d: %v", i, err)
				}
				final[op.addr] = op.data
				continue
			}
			got, err := c.Read(work[i].addr)
			if err != nil {
				t.Fatalf("read op %d: %v", i, err)
			}
			if want := final[work[i].addr]; !bytes.Equal(got[:len(want)], want) {
				t.Fatalf("read op %d: addr %d returned a wrong payload", i, work[i].addr)
			}
		}
	}
	// fill ops run before the first phase boundary; the rest split in four.
	q := (ops - fill) / 4
	drive(c, 0, fill+q)
	c.FailShard(1)
	drive(c, fill+q, fill+2*q) // degraded: reads reconstruct through parity
	if err := c.ReplaceMember(1); err != nil {
		t.Fatalf("ReplaceMember: %v", err)
	}
	drive(c, fill+2*q, fill+3*q)
	if _, ok := c.CorruptBucket(2, 3); !ok {
		t.Fatal("CorruptBucket found no materialized buckets")
	}
	if err := c.ForceCheckpoint(); err != nil {
		t.Fatalf("ForceCheckpoint: %v", err)
	}
	c.Close()

	rc, report, err := RecoverCluster(opts)
	if err != nil {
		t.Fatalf("RecoverCluster: %v", err)
	}
	defer rc.Close()
	if report.BucketsRepaired != 1 || report.BucketsUnrecoverable != 0 {
		t.Fatalf("scrub did not repair cleanly: %+v", report)
	}
	drive(rc, fill+3*q, ops)
	if err := rc.ForceCheckpoint(); err != nil {
		t.Fatalf("ForceCheckpoint (final): %v", err)
	}
	last := openStateDir(t, opts.Durability.Dir, opts.Key)[fmt.Sprintf("checkpoint-%016x.ckpt", rc.Seq())]
	sum := sha256.Sum256(last.Plain)
	return hex.EncodeToString(sum[:])
}

// TestSplitCheckpointDigestGolden pins the Split cluster against recorded
// digests: the equivalence suites compare the current code with itself, this
// compares it with the commit before parity special-casing was folded into
// one member list. A matching final checkpoint proves sealed bucket bytes,
// write counters, health totals, store-key prefixes and every RNG-seed
// derivation (founding members, replacements, the shared eviction stream)
// survived. The digests were re-recorded twice since: when sealed format 2
// changed the bucket bytes at rest (with every bucket captured as counter ||
// plaintext instead of its sealed bytes, the final checkpoint of both legs
// hashed the same at 53f5d6a and after that change), and when the
// checkpoint itself was sealed, to the digest of the body its HMAC had
// covered, which the seal keeps byte for byte; and when Split members moved
// onto sealed links, which put link counters in every member's state and
// counted each eviction round's exchange as a success: with those fields set
// back, both final bodies hashed to the earlier digests (e4605cb9…,
// 3633f454…). The "evict" leg overfills a small tree so the stash crosses
// the eviction threshold and the members evict in every phase, the
// degraded one included. Its digest was re-recorded once more when the
// members began to evict inside their own access instead of in
// host-directed rounds: the eviction leaves now come from the members'
// engine stream rather than the cluster's, and no eviction exchange counts
// as a link success. "main" never crosses the threshold, so it did not
// move.
func TestSplitCheckpointDigestGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		levels int
		addrs  uint64
		fill   int
		ops    int
		want   string
	}{
		{"main", 8, 48, 0, 240, "304ab2fd73533d98bcd5a7a3222e8439fbb6e93183aebf72d2a2568709653f21"},
		{"evict", 4, 230, 500, 1100, "d94cef88e427ef67cc1d71914154aecec65c8ee852b2332ccb6cbe892fb65bac"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := splitGoldenRun(t, tc.levels, tc.addrs, tc.fill, tc.ops); got != tc.want {
				t.Fatalf("final checkpoint digest %s, want %s", got, tc.want)
			}
		})
	}
}
