package sdimm

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"sdimm/internal/oram"
	"sdimm/internal/rng"
)

func newCluster(t *testing.T, sdimms int) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterOptions{
		SDIMMs: sdimms,
		Levels: 10,
		Key:    []byte("cluster-key"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(ClusterOptions{SDIMMs: 3, Levels: 10}); err == nil {
		t.Error("non-power-of-two SDIMM count accepted")
	}
	if _, err := NewCluster(ClusterOptions{SDIMMs: 1, Levels: 10}); err == nil {
		t.Error("single SDIMM accepted")
	}
	if _, err := NewCluster(ClusterOptions{SDIMMs: 8, Levels: 4}); err == nil {
		t.Error("too-shallow tree accepted")
	}
}

func TestClusterReadYourWrites(t *testing.T) {
	c := newCluster(t, 4)
	for i := uint64(0); i < 40; i++ {
		if err := c.Write(i, []byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i := uint64(0); i < 40; i++ {
		got, err := c.Read(i)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		want := fmt.Sprintf("record-%d", i)
		if string(got[:len(want)]) != want {
			t.Fatalf("read %d = %q", i, got[:len(want)])
		}
	}
}

func TestClusterUnwrittenReadsZero(t *testing.T) {
	c := newCluster(t, 2)
	got, err := c.Read(12345)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 64)) {
		t.Fatal("unwritten block not zeros")
	}
}

func TestClusterBlocksMigrate(t *testing.T) {
	// Hammer one address: with 4 SDIMMs the block's leaf (and thus its
	// home SDIMM) changes on ~3/4 of accesses; data must survive every
	// migration, including reads served from the transfer queue.
	c := newCluster(t, 4)
	if err := c.Write(7, []byte("migratory")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		got, err := c.Read(7)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if string(got[:9]) != "migratory" {
			t.Fatalf("read %d lost data: %q", i, got[:9])
		}
	}
}

func TestClusterOverwrite(t *testing.T) {
	c := newCluster(t, 2)
	c.Write(3, []byte("old"))
	c.Write(3, []byte("new"))
	got, err := c.Read(3)
	if err != nil || string(got[:3]) != "new" {
		t.Fatalf("overwrite: %q %v", got[:3], err)
	}
}

func TestClusterOversizedWrite(t *testing.T) {
	c := newCluster(t, 2)
	if err := c.Write(0, make([]byte, 65)); err == nil {
		t.Fatal("oversized write accepted")
	}
}

func TestClusterStashesBounded(t *testing.T) {
	c := newCluster(t, 4)
	r := rng.New(3)
	for i := 0; i < 600; i++ {
		addr := r.Uint64n(150)
		if r.Bool(0.5) {
			if err := c.Write(addr, []byte{byte(addr)}); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		} else if _, err := c.Read(addr); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	for i, n := range c.StashLens() {
		if n > 200 {
			t.Fatalf("buffer %d stash at %d", i, n)
		}
	}
}

// TestClusterRingWriteReduction pins the on-DIMM write traffic of one seeded
// workload on a Path cluster and on a ring cluster (RingFlushInterval 4), as
// exact bucket-write totals: ring reads lift one block and leave the path
// untouched, so only the eviction pointer and stash-pressure drains pay full
// path writebacks. The totals count DRAM seals only: each member's 8-level
// tree keeps its top 4 levels in trusted memory, so a path writeback seals
// 4 buckets. The ring total must also be at least 20% below Path's —
// through ClusterOptions, which the engine-level TestRingWriteTraffic
// cannot see.
func TestClusterRingWriteReduction(t *testing.T) {
	writes := func(flushInterval int) uint64 {
		c, err := NewCluster(ClusterOptions{SDIMMs: 4, Levels: 10, Seed: 9,
			Key: []byte("ring-bench-key"), RingFlushInterval: flushInterval})
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(71)
		payload := make([]byte, 24)
		base := c.BucketWrites()
		for i := 0; i < 4000; i++ {
			addr := r.Uint64n(96)
			if r.Bool(0.5) {
				for j := range payload {
					payload[j] = byte(r.Uint64n(256))
				}
				err = c.Write(addr, payload)
			} else {
				_, err = c.Read(addr)
			}
			if err != nil {
				t.Fatalf("access %d: %v", i, err)
			}
		}
		return c.BucketWrites() - base
	}
	path, ring := writes(0), writes(4)
	if path != 18220 || ring != 6212 {
		t.Fatalf("bucket writes over 4000 accesses: path %d, ring %d; pinned 18220 and 6212", path, ring)
	}
	if 5*ring > 4*path {
		t.Fatalf("ring cluster wrote %d buckets against Path's %d: less than the 20%% reduction", ring, path)
	}
}

// Property: the cluster behaves exactly like a map under random ops.
func TestClusterPropertyMatchesMap(t *testing.T) {
	c := newCluster(t, 2)
	ref := map[uint64][]byte{}
	f := func(addr uint64, data [24]byte, write bool) bool {
		addr %= 100
		if write {
			if err := c.Write(addr, data[:]); err != nil {
				return false
			}
			ref[addr] = append([]byte(nil), data[:]...)
			return true
		}
		got, err := c.Read(addr)
		if err != nil {
			return false
		}
		want, ok := ref[addr]
		if !ok {
			want = make([]byte, 24)
		}
		return bytes.Equal(got[:24], want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestClusterAccessorMethods(t *testing.T) {
	c := newCluster(t, 4)
	if c.SDIMMs() != 4 || c.BlockSize() != 64 {
		t.Fatalf("accessors: %d %d", c.SDIMMs(), c.BlockSize())
	}
}

func newSplitCluster(t *testing.T, k int) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterOptions{
		Split:  true,
		SDIMMs: k,
		Levels: 10,
		Key:    []byte("split-key"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSplitClusterValidation(t *testing.T) {
	if _, err := NewCluster(ClusterOptions{Split: true, SDIMMs: 3, Levels: 10}); err == nil {
		t.Error("non-power-of-two accepted")
	}
	if _, err := NewCluster(ClusterOptions{Split: true, SDIMMs: 2, Levels: 10, BlockSize: 63}); err == nil {
		t.Error("indivisible block size accepted")
	}
	if _, err := NewCluster(ClusterOptions{Split: true, SDIMMs: 2, Levels: 10, RingFlushInterval: 4}); err == nil {
		t.Error("ring eviction accepted on Split")
	}
	if _, err := NewCluster(ClusterOptions{SDIMMs: 2, Levels: 10, Parity: true}); err == nil {
		t.Error("parity accepted without Split")
	}
}

func TestSplitClusterReadYourWrites(t *testing.T) {
	for _, k := range []int{2, 4} {
		c := newSplitCluster(t, k)
		for i := uint64(0); i < 48; i++ {
			if err := c.Write(i, []byte(fmt.Sprintf("split-%d-%d", k, i))); err != nil {
				t.Fatalf("k=%d write %d: %v", k, i, err)
			}
		}
		for i := uint64(0); i < 48; i++ {
			got, err := c.Read(i)
			if err != nil {
				t.Fatalf("k=%d read %d: %v", k, i, err)
			}
			want := fmt.Sprintf("split-%d-%d", k, i)
			if string(got[:len(want)]) != want {
				t.Fatalf("k=%d read %d = %q", k, i, got[:len(want)])
			}
		}
	}
}

func TestSplitClusterShardsStayInLockstep(t *testing.T) {
	c := newSplitCluster(t, 4)
	r := rng.New(7)
	for i := 0; i < 300; i++ {
		addr := r.Uint64n(120)
		if r.Bool(0.5) {
			if err := c.Write(addr, []byte{byte(addr)}); err != nil {
				t.Fatal(err)
			}
		} else if _, err := c.Read(addr); err != nil {
			t.Fatal(err)
		}
		lens := c.StashLens()
		for _, n := range lens[1:] {
			if n != lens[0] {
				t.Fatalf("op %d: shard stashes diverged: %v", i, lens)
			}
		}
	}
}

func TestSplitClusterSpansShards(t *testing.T) {
	// A payload covering the whole block must survive: bytes land in
	// different shard trees and reassemble exactly.
	c := newSplitCluster(t, 4)
	full := make([]byte, 64)
	for i := range full {
		full[i] = byte(i + 1)
	}
	if err := c.Write(9, full); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(9)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, full) {
		t.Fatalf("shard reassembly corrupted: %v", got)
	}
}

func TestClusterDetectsActiveTampering(t *testing.T) {
	// An active attacker flips a ciphertext bit in a buffer's DRAM; the
	// next access touching that bucket must fail integrity verification
	// rather than return corrupted data (Section II-B: PMMAC).
	c := newCluster(t, 2)
	for i := uint64(0); i < 8; i++ {
		if err := c.Write(i, []byte{0xEE}); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt every materialized bucket in every buffer.
	corrupted := 0
	for _, b := range c.members {
		ms := b.Engine().Store().(*oram.MemStore)
		for idx := uint64(0); idx < b.Engine().Geometry().Buckets(); idx++ {
			if ms.Corrupt(idx) {
				corrupted++
			}
		}
	}
	if corrupted == 0 {
		t.Fatal("nothing to corrupt")
	}
	sawError := false
	for i := uint64(0); i < 8 && !sawError; i++ {
		if _, err := c.Read(i); err != nil {
			sawError = true
		}
	}
	if !sawError {
		t.Fatal("tampered memory served reads without an integrity error")
	}
}
