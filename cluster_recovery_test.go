package sdimm

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"sdimm/internal/durable"
	"sdimm/internal/fault"
	"sdimm/internal/rng"
)

// recOp is one deterministic workload operation for the recovery tests.
type recOp struct {
	addr  uint64
	write bool
	data  []byte
}

func recWorkload(seed uint64, n int, addrs uint64) []recOp {
	r := rng.New(seed)
	ops := make([]recOp, n)
	for i := range ops {
		ops[i].addr = r.Uint64n(addrs)
		if r.Bool(0.5) {
			ops[i].write = true
			ops[i].data = make([]byte, 24)
			for j := range ops[i].data {
				ops[i].data[j] = byte(r.Uint64n(256))
			}
		}
	}
	return ops
}

// driveCluster runs ops[from:to] sequentially, returning each op's result.
func driveCluster(t *testing.T, c *Cluster, ops []recOp, from, to int) [][]byte {
	t.Helper()
	out := make([][]byte, to-from)
	for i := from; i < to; i++ {
		if ops[i].write {
			if err := c.Write(ops[i].addr, ops[i].data); err != nil {
				t.Fatalf("write op %d: %v", i, err)
			}
		} else {
			got, err := c.Read(ops[i].addr)
			if err != nil {
				t.Fatalf("read op %d: %v", i, err)
			}
			out[i-from] = got
		}
	}
	return out
}

// TestRecoverClusterMatchesReference crashes a durable cluster mid-workload,
// recovers it from disk, finishes the workload, and checks the recovered run
// against an undisturbed reference cluster: identical read results and an
// identical position map. The post-recovery segment runs sequentially and
// through the pipeline at parallelism 4 — both must match the sequential
// reference bit-for-bit (run under -race via `make race`). The sync row runs
// the sequential leg with DurabilityOptions.Sync on: every fsync path of the
// state directory, with the same result.
func TestRecoverClusterMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		par  int
		sync bool
	}{
		{"parallelism-1", 1, false},
		{"parallelism-4", 4, false},
		{"parallelism-1-sync", 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := ClusterOptions{SDIMMs: 2, Levels: 7, Key: []byte("rec-test-key"), Seed: 9}
			ops := recWorkload(5, 240, 48)
			const crashAt = 150

			ref, err := NewCluster(opts)
			if err != nil {
				t.Fatalf("NewCluster (reference): %v", err)
			}
			refRes := driveCluster(t, ref, ops, 0, len(ops))

			dopts := opts
			dopts.Durability = &DurabilityOptions{Dir: t.TempDir(), Interval: 32, Sync: tc.sync}
			dc, err := NewCluster(dopts)
			if err != nil {
				t.Fatalf("NewCluster (durable): %v", err)
			}
			if err := dc.PlanCrash(crashAt, 7); err != nil {
				t.Fatalf("PlanCrash: %v", err)
			}
			for i := 0; i < len(ops); i++ {
				var opErr error
				if ops[i].write {
					opErr = dc.Write(ops[i].addr, ops[i].data)
				} else {
					_, opErr = dc.Read(ops[i].addr)
				}
				if errors.Is(opErr, durable.ErrCrashed) {
					if i != crashAt {
						t.Fatalf("crash fired at op %d, planned %d", i, crashAt)
					}
					break
				}
				if opErr != nil {
					t.Fatalf("op %d: %v", i, opErr)
				}
			}
			dc.Close()

			rc, report, err := RecoverCluster(dopts)
			if err != nil {
				t.Fatalf("RecoverCluster: %v", err)
			}
			defer rc.Close()
			if got := rc.Seq(); got != crashAt {
				t.Fatalf("recovered Seq = %d, want %d (the torn access must not commit)", got, crashAt)
			}
			if report.RecordsReplayed == 0 {
				t.Fatalf("no records replayed (checkpoint cadence 32, crash at %d): %+v", crashAt, report)
			}
			if !report.TornTail {
				t.Fatalf("mid-record tear not reported: %+v", report)
			}

			// Finish the workload on the recovered cluster.
			var got [][]byte
			if tc.par > 1 {
				pipe := rc.Pipeline(PipelineOptions{Window: 8, Parallelism: tc.par})
				bops := make([]BatchOp, len(ops)-crashAt)
				for j, op := range ops[crashAt:] {
					bops[j] = BatchOp{Addr: op.addr, Write: op.write, Data: op.data}
				}
				rs := pipe.Do(bops)
				pipe.Close()
				got = make([][]byte, len(rs))
				for j, r := range rs {
					if r.Err != nil {
						t.Fatalf("pipeline op %d: %v", crashAt+j, r.Err)
					}
					got[j] = r.Data
				}
			} else {
				got = driveCluster(t, rc, ops, crashAt, len(ops))
			}
			for j, want := range refRes[crashAt:] {
				if ops[crashAt+j].write {
					continue
				}
				if !bytes.Equal(got[j], want) {
					t.Fatalf("read op %d diverged after recovery", crashAt+j)
				}
			}

			refPos, gotPos := ref.Positions(), rc.Positions()
			if len(refPos) != len(gotPos) {
				t.Fatalf("position map sizes diverged: %d vs %d", len(refPos), len(gotPos))
			}
			for a, l := range refPos {
				if gotPos[a] != l {
					t.Fatalf("position of addr %d diverged: %d vs %d", a, gotPos[a], l)
				}
			}
		})
	}
}

// TestNewClusterRefusesRecoverableState pins the clobber guard: a state
// directory that already holds checkpoints belongs to RecoverCluster, not
// NewCluster.
func TestNewClusterRefusesRecoverableState(t *testing.T) {
	opts := ClusterOptions{SDIMMs: 2, Levels: 7, Key: []byte("rec-test-key"), Seed: 9,
		Durability: &DurabilityOptions{Dir: t.TempDir()}}
	c, err := NewCluster(opts)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	c.Close()
	if _, err := NewCluster(opts); !errors.Is(err, ErrStateExists) {
		t.Fatalf("NewCluster on a directory holding recoverable state: %v, want ErrStateExists", err)
	}
}

// TestNewSplitClusterFailureStopsWorkers is the worker-leak regression test:
// refusing a Split cluster's state directory that already holds checkpoints
// must leave no goroutine behind.
func TestNewSplitClusterFailureStopsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	opts := ClusterOptions{Split: true, SDIMMs: 2, Levels: 7, Key: []byte("split-leak-key"), Seed: 5,
		Parity: true, Durability: &DurabilityOptions{Dir: t.TempDir()}}
	c, err := NewCluster(opts)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i := 0; i < 8; i++ {
		if _, err := NewCluster(opts); !errors.Is(err, ErrStateExists) {
			t.Fatalf("NewCluster on a directory holding recoverable state: %v, want ErrStateExists", err)
		}
	}
	// Closed workers exit asynchronously; give them a moment.
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if after > before {
		t.Fatalf("failed NewCluster leaked goroutines: %d before, %d after", before, after)
	}
}

// TestSplitScrubRepairsCorruptBucket persists a flipped ciphertext bit into
// a Split checkpoint and recovers: the scrub must rebuild the bucket from
// the other members, and every payload must survive intact. The rebuild
// reseals under the siblings' lockstep counter, a nonce the lost bucket was
// already sealed under once — legal only because the XOR-recovered plaintext
// is the original, so the rebuilt bucket must equal, byte for byte, a copy
// taken before the corruption. Member 1 is a data shard, member 2 the parity.
func TestSplitScrubRepairsCorruptBucket(t *testing.T) {
	for _, member := range []int{1, 2} {
		opts := ClusterOptions{Split: true, SDIMMs: 2, Levels: 7, Key: []byte("split-rec-key"), Seed: 3,
			Parity: true, Durability: &DurabilityOptions{Dir: t.TempDir(), Interval: 64}}
		c, err := NewCluster(opts)
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		ops := recWorkload(11, 120, 32)
		final := map[uint64][]byte{}
		for i, op := range ops {
			if op.write {
				if err := c.Write(op.addr, op.data); err != nil {
					t.Fatalf("write op %d: %v", i, err)
				}
				final[op.addr] = op.data
			} else if _, err := c.Read(op.addr); err != nil {
				t.Fatalf("read op %d: %v", i, err)
			}
		}
		ms := memStore(c.members[member])
		idx := ms.BucketIndices()[5]
		before, _ := ms.RawBucket(idx)
		if got, ok := c.CorruptBucket(member, 5); !ok || got != idx {
			t.Fatalf("CorruptBucket(%d, 5) = %d, %v, want bucket %d", member, got, ok, idx)
		}
		if now, _ := ms.RawBucket(idx); bytes.Equal(now, before) {
			t.Fatal("CorruptBucket changed nothing")
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
		if report.BucketsRepaired != 1 || report.BucketsUnrecoverable != 0 || len(report.Poisoned) != 0 {
			t.Fatalf("member %d: scrub did not repair cleanly: %+v", member, report)
		}
		if rebuilt, _ := memStore(rc.members[member]).RawBucket(idx); !bytes.Equal(rebuilt, before) {
			t.Fatalf("member %d: rebuilt bucket %d differs from its pre-corruption bytes\n got %x\nwant %x", member, idx, rebuilt, before)
		}
		for addr, want := range final {
			got, err := rc.Read(addr)
			if err != nil {
				t.Fatalf("read %d after repair: %v", addr, err)
			}
			if !bytes.Equal(got[:len(want)], want) {
				t.Fatalf("payload of addr %d corrupted despite parity repair", addr)
			}
		}
	}
}

// TestSplitScrubDoubleLossFailsClosed: one member is fail-stopped (its health
// comes back Failed from the checkpoint, its tree stale since the fail-stop)
// and another member's bucket is corrupt. That is two losses for one parity
// member. The scrub must neither scan the dead member nor XOR its stale
// bucket into a "repair": the bucket is reported unrecoverable, the corrupt
// member marked Failed, and the cluster refuses traffic rather than serve a
// garbage rebuild.
func TestSplitScrubDoubleLossFailsClosed(t *testing.T) {
	opts := ClusterOptions{Split: true, SDIMMs: 2, Levels: 7, Key: []byte("split-double-loss-key"), Seed: 3,
		Parity: true, Durability: &DurabilityOptions{Dir: t.TempDir(), Interval: 64}}
	c, err := NewCluster(opts)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	drive := func(ops []recOp) {
		t.Helper()
		for i, op := range ops {
			if op.write {
				if err := c.Write(op.addr, op.data); err != nil {
					t.Fatalf("write op %d: %v", i, err)
				}
			} else if _, err := c.Read(op.addr); err != nil {
				t.Fatalf("read op %d: %v", i, err)
			}
		}
	}
	ops := recWorkload(11, 200, 32)
	drive(ops[:100])
	c.FailShard(0)
	drive(ops[100:]) // the survivors move on; member 0's tree goes stale
	// Corrupt every materialized bucket of member 1, so the stale copies
	// include buckets whose slots went from dummy to real since the fail-stop.
	buckets := len(memStore(c.members[1]).BucketIndices())
	for k := 0; k < buckets; k++ {
		if _, ok := c.CorruptBucket(1, k); !ok {
			t.Fatalf("CorruptBucket(1, %d) found nothing to corrupt", k)
		}
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
	if report.BucketsRepaired != 0 || report.BucketsUnrecoverable == 0 {
		t.Fatalf("double loss not reported unrecoverable: %+v", report)
	}
	// Member 0 is never scanned, and member 1 no longer once it is Failed.
	if report.BucketsScanned > 2*buckets {
		t.Fatalf("scanned %d buckets with only two live members of %d buckets each", report.BucketsScanned, buckets)
	}
	if failed := rc.Health().Failed(); len(failed) != 2 || failed[0] != 0 || failed[1] != 1 {
		t.Fatalf("failed set %v, want [0 1]", failed)
	}
	if _, err := rc.Read(ops[0].addr); !errors.Is(err, fault.ErrUnavailable) {
		t.Fatalf("read after a double loss = %v, want ErrUnavailable", err)
	}
}

// TestIndependentScrubPoisonsAndWriteHeals: with no cross-SDIMM redundancy a
// corrupt bucket is unrecoverable — the scrub must quarantine it and poison
// the addresses provably lost with it, reads of those addresses must fail
// with ErrUnrecoverable (never silently return zeros), and a fresh write
// must heal the address. Which bucket loses a block depends on the seeded
// stash state, so the test scans corruption targets until one poisons.
func TestIndependentScrubPoisonsAndWriteHeals(t *testing.T) {
	ops := recWorkload(17, 160, 40)
	for attempt := 0; attempt < 12; attempt++ {
		opts := ClusterOptions{SDIMMs: 2, Levels: 7, Key: []byte("poison-test-key"), Seed: 13,
			Durability: &DurabilityOptions{Dir: t.TempDir(), Interval: 64}}
		c, err := NewCluster(opts)
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		driveCluster(t, c, ops, 0, len(ops))
		if _, ok := c.CorruptBucket(attempt%2, attempt); !ok {
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
		if report.BucketsUnrecoverable != 1 {
			rc.Close()
			t.Fatalf("corrupt bucket not quarantined: %+v", report)
		}
		if len(report.Poisoned) == 0 {
			rc.Close()
			continue // lost bucket held only dummies this time; try another
		}

		addr := report.Poisoned[0]
		if _, err := rc.Read(addr); !errors.Is(err, ErrUnrecoverable) {
			rc.Close()
			t.Fatalf("read of poisoned addr %d = %v, want ErrUnrecoverable", addr, err)
		}
		heal := bytes.Repeat([]byte{0x77}, 24)
		if err := rc.Write(addr, heal); err != nil {
			rc.Close()
			t.Fatalf("healing write: %v", err)
		}
		got, err := rc.Read(addr)
		if err != nil {
			rc.Close()
			t.Fatalf("read after healing write: %v", err)
		}
		if !bytes.Equal(got[:len(heal)], heal) {
			rc.Close()
			t.Fatalf("healed payload mismatch for addr %d", addr)
		}
		rc.Close()
		return
	}
	t.Fatal("no corruption target produced a poisoned address in 12 attempts")
}
