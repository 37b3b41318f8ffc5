package sdimm

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sdimm/internal/durable"
)

// copyStateDir copies a state directory's files into a fresh temporary
// directory (recovery rewrites the directory it is given).
func copyStateDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
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

// bucketLengths tallies a checkpoint's sealed buckets by length.
func bucketLengths(cp *durable.Checkpoint) (total int, byLen map[int]int) {
	byLen = map[int]int{}
	for _, m := range cp.Members {
		for _, b := range m.Buckets {
			total++
			byLen[len(b.Raw)]++
		}
	}
	return total, byLen
}

// TestRecoverFormat1StateDir recovers the two committed state directories
// under testdata/format1-state: an Independent cluster and a Split cluster
// with parity (one member replaced, so it seals under an incarnation key),
// each crashed past its second periodic checkpoint with committed records
// after it and a torn one at the tail. They were written at commit 53f5d6a —
// the last to seal format 1, AES-CTR with an 8-byte PMMAC tag — by
// testdata/format1-state/gen/main.go, which holds the same options and wrote
// each want.txt. Recovery must open every format-1 bucket with the old key
// schedule and reseal it format 2: every bucket scanned, none repaired or
// lost, every journal record replayed, every payload as recorded, and from
// the next checkpoint on nothing but 8 + plain + 12-byte buckets on disk.
func TestRecoverFormat1StateDir(t *testing.T) {
	type recovered interface {
		Read(addr uint64) ([]byte, error)
		ForceCheckpoint() error
	}
	key := []byte("format1-fixture-key")
	iopts := ClusterOptions{SDIMMs: 2, Levels: 7, Key: key, Seed: 5}
	sopts := ClusterOptions{Split: true, SDIMMs: 2, Levels: 6, Key: key, Seed: 9, Parity: true}
	for _, tc := range []struct {
		name    string
		fp      durable.Fingerprint
		plain   int // plaintext bytes of one member's bucket
		recover func(dir string) (recovered, *durable.RecoveryReport, func(), error)
	}{
		{"independent", fingerprint(iopts.withDefaults()), 4 * (16 + 64),
			func(dir string) (recovered, *durable.RecoveryReport, func(), error) {
				iopts.Durability = &DurabilityOptions{Dir: dir, Interval: 48}
				c, rep, err := RecoverCluster(iopts)
				if err != nil {
					return nil, nil, nil, err
				}
				return c, rep, func() { c.Close() }, nil
			}},
		{"split", fingerprint(sopts.withDefaults()), 4 * (16 + 32),
			func(dir string) (recovered, *durable.RecoveryReport, func(), error) {
				sopts.Durability = &DurabilityOptions{Dir: dir, Interval: 40}
				c, rep, err := RecoverCluster(sopts)
				if err != nil {
					return nil, nil, nil, err
				}
				return c, rep, func() { c.Close() }, nil
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fixture := filepath.Join("testdata", "format1-state", tc.name)
			cp, recs := newestCheckpoint(t, fixture, key, tc.fp)
			buckets, byLen := bucketLengths(cp)
			if buckets == 0 || byLen[8+tc.plain+8] != buckets {
				t.Fatalf("fixture is not format 1: %d buckets, by length %v", buckets, byLen)
			}
			if len(recs) == 0 {
				t.Fatal("fixture has no journal records past its newest checkpoint")
			}

			dir := copyStateDir(t, fixture)
			c, report, closeFn, err := tc.recover(dir)
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			defer closeFn()
			if report.BucketsScanned != buckets || report.BucketsRepaired != 0 || report.BucketsUnrecoverable != 0 ||
				len(report.Poisoned) != 0 || report.RecordsReplayed != len(recs) {
				t.Fatalf("recovery of %d buckets and %d records reported %+v", buckets, len(recs), report)
			}

			want, err := os.Open(filepath.Join(fixture, "want.txt"))
			if err != nil {
				t.Fatal(err)
			}
			defer want.Close()
			blocks := 0
			for sc := bufio.NewScanner(want); sc.Scan(); blocks++ {
				var addr uint64
				var payload []byte
				if _, err := fmt.Sscanf(sc.Text(), "%d %x", &addr, &payload); err != nil {
					t.Fatalf("want.txt line %q: %v", sc.Text(), err)
				}
				got, err := c.Read(addr)
				if err != nil {
					t.Fatalf("read %d: %v", addr, err)
				}
				if !bytes.Equal(got[:len(payload)], payload) {
					t.Fatalf("addr %d reads %x, recorded %x", addr, got[:len(payload)], payload)
				}
			}
			if blocks == 0 {
				t.Fatal("want.txt records no blocks")
			}

			if err := c.ForceCheckpoint(); err != nil {
				t.Fatalf("ForceCheckpoint: %v", err)
			}
			cp, _ = newestCheckpoint(t, dir, key, tc.fp)
			if n, byLen := bucketLengths(cp); n < buckets || byLen[8+tc.plain+12] != n {
				t.Fatalf("checkpoint after the upgrade holds %d buckets, by length %v, want all %d bytes", n, byLen, 8+tc.plain+12)
			}
		})
	}
}
