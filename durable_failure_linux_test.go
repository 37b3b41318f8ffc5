//go:build linux

package sdimm

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
)

// fillJournal makes every later write to the cluster's open journal fail
// with ENOSPC, as on a full disk: it finds the journal's descriptor among
// the process's and points it at /dev/full.
func fillJournal(t *testing.T, dir string) {
	t.Helper()
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skipf("no /dev/full: %v", err)
	}
	defer full.Close()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	for _, e := range ents {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
		if err != nil || !strings.HasPrefix(target, dir) || !strings.HasSuffix(target, ".wal") {
			continue
		}
		fd, _ := strconv.Atoi(e.Name())
		if err := syscall.Dup3(int(full.Fd()), fd, 0); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatalf("no open journal under %s", dir)
}

// TestDurableWriteFailureStopsCluster: a journal write that really fails —
// the disk fills mid-run — stops the cluster as a planned crash does. The
// failing access, every later access and ForceCheckpoint return the one
// latched error, so no checkpoint can persist what the failed access had
// already done to memory (a block taken off its member and never appended
// back), and the state directory recovers every acknowledged write. One leg
// runs sequential Write/Read, the other Pipeline.Do at Parallelism 2.
func TestDurableWriteFailureStopsCluster(t *testing.T) {
	for _, leg := range []string{"sequential", "pipeline"} {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", leg, seed), func(t *testing.T) {
				dir := t.TempDir()
				opts := ClusterOptions{
					SDIMMs: 4, Levels: 10, Key: []byte("durable-failure"), Seed: seed,
					Durability: &DurabilityOptions{Dir: dir, Interval: 1000},
				}
				c, err := NewCluster(opts)
				if err != nil {
					t.Fatal(err)
				}
				acked := map[uint64][]byte{}
				for a := uint64(0); a < 32; a++ {
					v := []byte(fmt.Sprintf("acked-%02d", a))
					if err := c.Write(a, v); err != nil {
						t.Fatal(err)
					}
					acked[a] = v
				}
				fillJournal(t, dir)

				var latched error
				// check fails unless err is the latched failure: the first
				// error seen, which must be the journal's.
				check := func(what string, err error) {
					t.Helper()
					if latched == nil && err != nil {
						latched = err
						if !errors.Is(latched, syscall.ENOSPC) {
							t.Fatalf("latched %v, want the journal's ENOSPC", latched)
						}
					}
					if err == nil || !errors.Is(err, latched) {
						t.Fatalf("%s after the journal failed: %v, want the latched %v", what, err, latched)
					}
				}
				if leg == "sequential" {
					check("Write(7)", c.Write(7, []byte("lost")))
					for a := uint64(0); a < 8; a++ {
						_, err := c.Read(a)
						check(fmt.Sprintf("Read(%d)", a), err)
						check(fmt.Sprintf("Write(%d)", a), c.Write(a, []byte("late")))
					}
				} else {
					p := c.Pipeline(PipelineOptions{Window: 8, Parallelism: 2})
					for round := 0; round < 3; round++ {
						var ops []BatchOp
						for a := uint64(0); a < 16; a++ {
							ops = append(ops, BatchOp{Addr: (a*5 + uint64(round)) % 32, Write: a%2 == 0, Data: []byte("late")})
						}
						for i, r := range p.Do(ops) {
							check(fmt.Sprintf("round %d op %d", round, i), r.Err)
						}
					}
					p.Close()
				}
				check("ForceCheckpoint", c.ForceCheckpoint())
				c.Close()

				rc, _, err := RecoverCluster(opts)
				if err != nil {
					t.Fatalf("RecoverCluster: %v", err)
				}
				defer rc.Close()
				for a := uint64(0); a < 32; a++ {
					got, err := rc.Read(a)
					if err != nil {
						t.Fatalf("recovered Read(%d): %v", a, err)
					}
					if !bytes.HasPrefix(got, acked[a]) {
						t.Fatalf("recovered addr %d = %q, acknowledged %q", a, got[:len(acked[a])], acked[a])
					}
				}
			})
		}
	}
}
