package sdimm

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"sdimm/internal/durable"
	"sdimm/internal/fault"
	"sdimm/internal/rng"
	"sdimm/internal/telemetry"
)

// serveCluster builds a small cluster + streaming pipeline for these tests.
func serveCluster(t *testing.T, reg *telemetry.Registry, opts PipelineOptions) (*Cluster, *Pipeline, chan *AsyncOp, *sync.WaitGroup) {
	t.Helper()
	c, err := NewCluster(ClusterOptions{
		SDIMMs: 4, Levels: 10, Key: []byte("serve-key"), Seed: 23, Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := c.Pipeline(opts)
	in := make(chan *AsyncOp, 64)
	var done sync.WaitGroup
	done.Add(1)
	go func() {
		defer done.Done()
		p.Serve(in)
	}()
	t.Cleanup(p.Close)
	return c, p, in, &done
}

// TestPipelineServePartialWaveNoStall is the latent-stall regression test:
// three ops on a Window-8 pipeline, with the channel left open, must retire
// at once instead of waiting forever for five peers that never come.
func TestPipelineServePartialWaveNoStall(t *testing.T) {
	_, _, in, done := serveCluster(t, nil, PipelineOptions{Window: 8})
	ops := make([]*AsyncOp, 3)
	for i := range ops {
		ops[i] = &AsyncOp{Op: BatchOp{Addr: uint64(10 + i), Write: true,
			Data: []byte(fmt.Sprintf("partial-%d", i))}, Done: make(chan BatchResult, 1)}
		in <- ops[i]
	}
	deadline := time.After(5 * time.Second) // generous; expected ~one wave
	for i, a := range ops {
		select {
		case r := <-a.Done:
			if r.Err != nil {
				t.Fatalf("op %d: %v", i, r.Err)
			}
		case <-deadline:
			t.Fatalf("op %d stalled: partial wave never launched", i)
		}
	}
	close(in)
	done.Wait()
}

// TestPipelineServeMatchesSequential pins the streaming front to the
// sequential engine: a serial client (submit, wait, submit) produces
// one-op waves whose RNG draw order, commit order, and append order are
// identical to bare Read/Write calls, so every observable — payloads,
// position map, stashes, telemetry, health — must agree bitwise.
func TestPipelineServeMatchesSequential(t *testing.T) {
	ops := pipelineWorkload(160, 48)

	regSeq := telemetry.NewRegistry()
	cs, err := NewCluster(ClusterOptions{
		SDIMMs: 4, Levels: 10, Key: []byte("serve-key"), Seed: 23, Telemetry: regSeq,
	})
	if err != nil {
		t.Fatal(err)
	}
	seqResults := make([]BatchResult, len(ops))
	for i, op := range ops {
		if op.Write {
			seqResults[i].Err = cs.Write(op.Addr, op.Data)
		} else {
			seqResults[i].Data, seqResults[i].Err = cs.Read(op.Addr)
		}
	}
	seq := captureState(seqResults, cs.Positions(), cs.StashLens(), regSeq, cs.Health())

	regSrv := telemetry.NewRegistry()
	c, _, in, done := serveCluster(t, regSrv, PipelineOptions{Window: 8})
	srvResults := make([]BatchResult, len(ops))
	for i, op := range ops {
		a := &AsyncOp{Op: op, Done: make(chan BatchResult, 1)}
		in <- a
		srvResults[i] = <-a.Done
	}
	close(in)
	done.Wait()
	srv := captureState(srvResults, c.Positions(), c.StashLens(), regSrv, c.Health())

	diffState(t, "serve(serial) vs sequential", seq, srv)
}

// TestPipelineServeWindowBoundaryBursts hammers the streaming front end with
// burst sizes straddling the window boundary, some back to back and some
// after an idle gap, so every fill exit — full window, source run dry with a
// wave in flight, idle block, and final channel close — is taken repeatedly.
// Run under -race in CI; every op must still be answered exactly once.
func TestPipelineServeWindowBoundaryBursts(t *testing.T) {
	_, _, in, done := serveCluster(t, nil, PipelineOptions{Window: 4})
	var acks []*AsyncOp
	addr := uint64(0)
	for round := 0; round < 60; round++ {
		n := 3 + round%3 // 3, 4, 5 ops: under, at, and over the window
		for i := 0; i < n; i++ {
			a := &AsyncOp{Op: BatchOp{Addr: addr % 64, Write: true,
				Data: []byte(fmt.Sprintf("burst-%d", addr))}, Done: make(chan BatchResult, 1)}
			addr++
			in <- a
			acks = append(acks, a)
		}
		if round%2 == 0 {
			// Let the pipeline go idle (or nearly) between bursts.
			time.Sleep(150 * time.Microsecond)
		}
	}
	close(in)
	deadline := time.After(30 * time.Second)
	for i, a := range acks {
		select {
		case r := <-a.Done:
			if r.Err != nil {
				t.Fatalf("op %d: %v", i, r.Err)
			}
		case <-deadline:
			t.Fatalf("op %d never answered", i)
		}
	}
	done.Wait()
}

// TestPipelineServeConcurrentSmoke hammers Serve from several goroutines
// with disjoint address ranges (run under -race): every write must be
// acknowledged and every subsequent read must observe it.
func TestPipelineServeConcurrentSmoke(t *testing.T) {
	_, _, in, done := serveCluster(t, nil, PipelineOptions{Window: 8})
	const clients, opsPer = 6, 40
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(g * 100)
			for i := 0; i < opsPer; i++ {
				addr := base + uint64(i%10)
				want := []byte(fmt.Sprintf("g%d-i%d", g, i))
				w := &AsyncOp{Op: BatchOp{Addr: addr, Write: true, Data: want}, Done: make(chan BatchResult, 1)}
				in <- w
				if r := <-w.Done; r.Err != nil {
					errs <- fmt.Errorf("client %d write %d: %v", g, i, r.Err)
					return
				}
				rd := &AsyncOp{Op: BatchOp{Addr: addr}, Done: make(chan BatchResult, 1)}
				in <- rd
				r := <-rd.Done
				if r.Err != nil {
					errs <- fmt.Errorf("client %d read %d: %v", g, i, r.Err)
					return
				}
				if string(r.Data[:len(want)]) != string(want) {
					errs <- fmt.Errorf("client %d addr %d: read %q want %q",
						g, addr, r.Data[:len(want)], want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(in)
	done.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPipelineServeCrashFailsPending verifies the write-ahead contract on
// the streaming path: once the planned crash point trips, every later op
// fails with durable.ErrCrashed and Serve still answers everything before
// returning.
func TestPipelineServeCrashFailsPending(t *testing.T) {
	c, err := NewCluster(ClusterOptions{
		SDIMMs: 4, Levels: 10, Key: []byte("serve-key"), Seed: 23,
		Durability: &DurabilityOptions{Dir: t.TempDir(), Interval: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.PlanCrash(20, 0); err != nil {
		t.Fatal(err)
	}
	p := c.Pipeline(PipelineOptions{Window: 4})
	defer p.Close()
	in := make(chan *AsyncOp, 16)
	var done sync.WaitGroup
	done.Add(1)
	go func() {
		defer done.Done()
		p.Serve(in)
	}()
	sawCrash := false
	for i := 0; i < 200 && !sawCrash; i++ {
		a := &AsyncOp{Op: BatchOp{Addr: uint64(i % 16), Write: true,
			Data: []byte(fmt.Sprintf("pre-crash-%d", i))}, Done: make(chan BatchResult, 1)}
		in <- a
		if r := <-a.Done; r.Err != nil {
			if !errors.Is(r.Err, durable.ErrCrashed) {
				t.Fatalf("op %d failed with %v, want ErrCrashed", i, r.Err)
			}
			sawCrash = true
		}
	}
	if !sawCrash {
		t.Fatal("planned crash never tripped")
	}
	// Ops submitted after the crash must be answered (with the crash error),
	// not dropped.
	post := &AsyncOp{Op: BatchOp{Addr: 3}, Done: make(chan BatchResult, 1)}
	in <- post
	if r := <-post.Done; !errors.Is(r.Err, durable.ErrCrashed) {
		t.Fatalf("post-crash op = %v, want ErrCrashed", r.Err)
	}
	close(in)
	done.Wait()
}

// TestPipelineDoServeEquivalence pins the wave driver's two feeders to each
// other. The same seeded mixed read/write/migrate stream goes (a) through Do
// and (b) through Serve over a pre-filled, already-closed channel, so wave
// composition is a pure function of the stream on both sides; everything
// observable — per-op results, position map, stashes, telemetry, health, and
// the state directory (every file's name, size and opened content) — must agree,
// clean, under transient link faults, and across a planned mid-stream crash
// torn inside a wave's journal group.
func TestPipelineDoServeEquivalence(t *testing.T) {
	ops := soakWorkload(rng.Stream(812, "do-vs-serve", 0), 512, 64)
	scenarios := []struct {
		name       string
		faulty     bool
		crashAfter int  // journal records before the planned crash; 0 = none
		split      bool // Split with parity instead of Independent
	}{{"clean", false, 0, false}, {"faulty", true, 0, false}, {"crash", false, 301, false},
		{"split-parity", false, 0, true}, {"split-parity-crash", false, 301, true}}

	key := []byte("feeder-key")
	run := func(t *testing.T, faulty bool, crashAfter int, split bool, par int, serve bool) (engineState, map[string]stateFile) {
		var inj *fault.Injector
		if faulty {
			inj = fault.NewInjector(fault.Config{Seed: 0xd05e,
				BitFlip: 0.01, Drop: 0.01, Duplicate: 0.01, Stall: 0.005})
		}
		reg := telemetry.NewRegistry()
		dir := t.TempDir()
		c, err := NewCluster(ClusterOptions{
			SDIMMs: 4, Levels: 10, Key: key, Seed: 41, Split: split, Parity: split,
			Faults: inj, Retry: fault.RetryPolicy{MaxAttempts: 4, Sleep: nop},
			Telemetry:  reg,
			Durability: &DurabilityOptions{Dir: dir, Interval: 64},
		})
		if err != nil {
			t.Fatal(err)
		}
		if crashAfter > 0 {
			if err := c.PlanCrash(crashAfter, 9); err != nil {
				t.Fatal(err)
			}
		}
		p := c.Pipeline(PipelineOptions{Window: 8, Parallelism: par})
		var results []BatchResult
		if serve {
			in := make(chan *AsyncOp, len(ops))
			acks := make([]*AsyncOp, len(ops))
			for i, op := range ops {
				acks[i] = &AsyncOp{Op: op, Done: make(chan BatchResult, 1)}
				in <- acks[i]
			}
			close(in)
			p.Serve(in)
			for _, a := range acks {
				results = append(results, <-a.Done)
			}
		} else {
			results = p.Do(ops)
		}
		p.Close()
		if last := results[len(results)-1].Err; crashAfter > 0 && !errors.Is(last, durable.ErrCrashed) {
			t.Fatalf("planned crash never tripped: last op = %v", last)
		}
		st := captureState(results, c.Positions(), c.StashLens(), reg, c.Health())
		c.Close()
		return st, openStateDir(t, dir, key)
	}

	for _, sc := range scenarios {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/par%d", sc.name, par), func(t *testing.T) {
				do, doFiles := run(t, sc.faulty, sc.crashAfter, sc.split, par, false)
				srv, srvFiles := run(t, sc.faulty, sc.crashAfter, sc.split, par, true)
				diffState(t, "Do vs Serve", do, srv)
				if len(doFiles) == 0 {
					t.Fatal("state directory is empty")
				}
				if !reflect.DeepEqual(doFiles, srvFiles) {
					t.Errorf("state directories diverged (%d vs %d files)", len(doFiles), len(srvFiles))
				}
			})
		}
	}
}
