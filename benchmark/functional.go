package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sdimm"
	"sdimm/internal/durable"
)

// The one geometry every functional workload shares (ISSUE 11, "Common
// set-up"): the workloads differ in how the stack is driven, never in its
// shape, so their numbers add up.
const (
	blockSize   = 64
	bucketZ     = 4
	members     = 4
	window      = 8
	parallelism = 2 // pipeline workers, sized for the 2-core reference host
	connections = 2 // TCP connections of the served workload
	batchLen    = 64
	ckptEvery   = 256
	ringEvery   = 4
)

// scale sizes a run. Every gated number comes from scaleFull; scaleTiny
// exists so the smoke test can cross every code path in seconds.
type scale struct {
	name        string
	levels      int    // global tree height; a member holds levels-2
	space       uint64 // block address space, prefilled once
	warmup      int    // untimed accesses after prefill, before any timing
	setups      int    // how many times set-up is repeated for its median
	tracedOps   int    // accesses of the traced phase of the workload's own driver
	sweepOps    int    // accesses of each other driver in the traced layer sweep
	probeOps    int    // accesses replayed through each standalone layer probe
	recoverTail int    // journal records left for recovery to replay
	recoveries  int    // timed recoveries of pipe-durable's traced run
	simWarmup   int    // simulator scale: warm-up records per simulation
	simMeasure  int    // measured records per simulation
	simLevels   int    // simulated tree height
	ladderSec   float64
}

var (
	// scaleFull's simulator numbers are the golden scale of
	// internal/experiments/golden_test.go; sim_drift is only defined there.
	scaleFull = scale{name: "full", levels: 16, space: 4096, warmup: 20000, setups: 5,
		tracedOps: 24000, sweepOps: 6000, probeOps: 4000, recoverTail: 200, recoveries: 5,
		simWarmup: 120, simMeasure: 300, simLevels: 22, ladderSec: 0.75}
	scaleTiny = scale{name: "tiny", levels: 10, space: 256, warmup: 512, setups: 2,
		tracedOps: 1024, sweepOps: 512, probeOps: 256, recoverTail: 40, recoveries: 2,
		simWarmup: 20, simMeasure: 40, simLevels: 16, ladderSec: 0.1}
)

// observers attaches a traced run's taps through the program's own public
// options; nil attaches nothing.
type observers func(*sdimm.ClusterOptions)

// clusterOptions is the cluster every functional workload builds.
func clusterOptions(sc scale, ring bool, dir string, obs observers) sdimm.ClusterOptions {
	o := sdimm.ClusterOptions{
		SDIMMs: members, Levels: sc.levels, Z: bucketZ, BlockSize: blockSize,
		Key: []byte("benchmark-key"), Seed: 1,
	}
	if ring {
		o.RingFlushInterval = ringEvery
	}
	if dir != "" {
		// Sync stays off on both sides of every comparison: fsync time in a
		// sandbox measures the disk, not the program.
		o.Durability = &sdimm.DurabilityOptions{Dir: dir, Interval: ckptEvery}
	}
	if obs != nil {
		obs(&o)
	}
	return o
}

// functional is one built, prefilled cluster with its driver state.
type functional struct {
	c    *sdimm.Cluster
	pipe *sdimm.Pipeline // nil for the sequential workloads
	or   *oracle
	gen  *opGen
	buf  []byte

	ops     []sdimm.BatchOp // pipeline batch scratch
	payload []byte          // batchLen payload slots backing ops[i].Data

	log *spanLog // traced runs: one span per access or per Do
}

// newFunctional builds the cluster, prefills every address with version 1
// through the workload's own driver, and leaves the generator at the start of
// the stream named by seed.
func newFunctional(sc scale, seed uint64, ring, pipelined bool, dir string, obs observers) (*functional, error) {
	c, err := sdimm.NewCluster(clusterOptions(sc, ring, dir, obs))
	if err != nil {
		return nil, err
	}
	f := &functional{
		c: c, or: newOracle(sc.space), buf: make([]byte, blockSize),
		gen: newOpGen(seed, "ops", 0, sc.space, 0),
	}
	if pipelined {
		f.pipe = c.Pipeline(sdimm.PipelineOptions{Window: window, Parallelism: parallelism})
		f.ops = make([]sdimm.BatchOp, batchLen)
		f.payload = make([]byte, batchLen*blockSize)
	}
	if err := f.prefill(sc.space); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *functional) close() {
	if f.pipe != nil {
		f.pipe.Close()
	}
	f.c.Close()
}

func (f *functional) prefill(space uint64) error {
	if f.pipe == nil {
		for a := uint64(0); a < space; a++ {
			f.or.write(a, f.buf)
			if err := f.c.Write(a, f.buf); err != nil {
				return fmt.Errorf("prefill %d: %w", a, err)
			}
		}
		return nil
	}
	for a := uint64(0); a < space; a += batchLen {
		n := int(min(batchLen, space-a))
		for i := 0; i < n; i++ {
			slot := f.payload[i*blockSize : (i+1)*blockSize]
			f.or.write(a+uint64(i), slot)
			f.ops[i] = sdimm.BatchOp{Addr: a + uint64(i), Write: true, Data: slot}
		}
		for i, r := range f.pipe.Do(f.ops[:n]) {
			if r.Err != nil {
				return fmt.Errorf("prefill %d: %w", a+uint64(i), r.Err)
			}
		}
	}
	return nil
}

// access is the sequential unit: one Read or Write, checked against the
// shadow map.
func (f *functional) access() (int, int) {
	o := f.gen.next()
	var id int
	if f.log != nil {
		id = f.log.open("access", laneOps, 0)
		f.log.current.Store(int64(id))
	}
	failed := 0
	if o.write {
		f.or.write(o.addr, f.buf)
		if err := f.c.Write(o.addr, f.buf); err != nil {
			failed = 1
		}
	} else if data, err := f.c.Read(o.addr); err != nil || !f.or.check(o.addr, data) {
		failed = 1
	}
	f.log.close(id)
	return 1, failed
}

// fillBatch draws the next batchLen operations into f.ops, advancing the
// shadow map in logical order — the order Do promises to preserve per address.
// expect[i] is the version a read at position i must return.
func (f *functional) fillBatch(expect []uint64) {
	for i := range f.ops {
		o := f.gen.next()
		f.ops[i] = sdimm.BatchOp{Addr: o.addr, Write: o.write}
		if o.write {
			slot := f.payload[i*blockSize : (i+1)*blockSize]
			f.or.write(o.addr, slot)
			f.ops[i].Data = slot
		}
		expect[i] = f.or.ver[o.addr]
	}
}

// batch is the pipelined unit: one Do of batchLen operations.
func (f *functional) batch() (int, int) {
	var expect [batchLen]uint64
	f.fillBatch(expect[:])
	id := f.log.open("Do", laneDo, 0)
	if f.log != nil {
		f.log.current.Store(int64(id))
	}
	res := f.pipe.Do(f.ops)
	f.log.close(id)
	failed := 0
	for i, r := range res {
		switch {
		case r.Err != nil:
			failed++
		case !f.ops[i].Write:
			if ver, ok := payloadVersion(r.Data, f.ops[i].Addr, f.or.scratch); !ok || ver != expect[i] {
				failed++
			}
		}
	}
	return len(f.ops), failed
}

func (f *functional) unit() unitFunc {
	if f.pipe != nil {
		return f.batch
	}
	return f.access
}

// warm runs n untimed accesses so the stash, the free lists and the lazily
// materialised upper tree are in steady state before any clock starts.
func (f *functional) warm(n int) error {
	unit := f.unit()
	for done := 0; done < n; {
		ops, failed := unit()
		if failed > 0 {
			return fmt.Errorf("warm-up: %d of %d operations failed", failed, ops)
		}
		done += ops
	}
	return nil
}

// crashAndRecover arms a crash tail journal records ahead, drives the
// pipeline into it, and recovers from the state directory. Recovery is timed
// on fresh copies of the directory, because a recovery rewrites the state it
// starts from; the last recovered cluster then reads every address back. An
// acknowledged write must be there; a write that failed with the crash may or
// may not be. It returns the addresses that fail the check, the recovery
// report and the median recovery time. f is closed.
func (f *functional) crashAndRecover(sc scale, dir string, recoveries int) (bad int, rep *durable.RecoveryReport, recoverS float64, err error) {
	if err := f.c.PlanCrash(sc.recoverTail, 7); err != nil {
		f.close()
		return 0, nil, 0, err
	}
	maybe := make([]uint64, sc.space) // writes per address lost to the crash
	crashed := false
	for !crashed {
		snapshot := append([]uint64(nil), f.or.ver...)
		var expect [batchLen]uint64
		f.fillBatch(expect[:])
		res := f.pipe.Do(f.ops)
		// Rebuild the shadow map from what was acknowledged.
		copy(f.or.ver, snapshot)
		for i, r := range res {
			a := f.ops[i].Addr
			switch {
			case errors.Is(r.Err, durable.ErrCrashed):
				crashed = true
				if f.ops[i].Write {
					maybe[a]++
				}
			case r.Err != nil:
				f.close()
				return 0, nil, 0, fmt.Errorf("crash batch: %w", r.Err)
			case f.ops[i].Write:
				f.or.ver[a]++
			}
		}
	}
	f.close()

	var times []float64
	var rc *sdimm.Cluster
	for i := 0; i < recoveries; i++ {
		if rc != nil {
			rc.Close()
		}
		fresh := fmt.Sprintf("%s.recover%d", dir, i)
		if err := copyDir(dir, fresh); err != nil {
			return 0, nil, 0, err
		}
		defer os.RemoveAll(fresh)
		t := time.Now()
		rc, rep, err = sdimm.RecoverCluster(clusterOptions(sc, false, fresh, nil))
		if err != nil {
			return 0, nil, 0, fmt.Errorf("recover: %w", err)
		}
		times = append(times, time.Since(t).Seconds())
	}
	defer rc.Close()
	for a := uint64(0); a < sc.space; a++ {
		data, err := rc.Read(a)
		if err != nil {
			bad++
			continue
		}
		ver, ok := payloadVersion(data, a, f.or.scratch)
		if !ok || ver < f.or.ver[a] || ver > f.or.ver[a]+maybe[a] {
			bad++
		}
	}
	return bad, rep, median(times), nil
}

// workDir makes a fresh scratch directory under benchmark/out/work. Durable
// state lives inside the checkout because the benchmark may write nowhere
// else.
func workDir(root, name string) (string, error) {
	base := filepath.Join(root, "benchmark", "out", "work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, name+"-")
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
