//go:build ignore

// Program gen wrote the two state directories beside it, and their
// want.txt files. It was run once, from a checkout of commit 53f5d6a — the
// last one whose MemStore sealed format 1 (AES-CTR + 8-byte PMMAC) — as
//
//	go run testdata/format1-state/gen/main.go testdata/format1-state
//
// and uses only the exported API, so it builds at any commit; run at a later
// one it writes that commit's sealed format and the fixture loses its point.
// TestRecoverFormat1StateDir holds the same option literals.
//
// Each directory is what a crash leaves: the newest two checkpoints (taken
// by the Interval, not forced), their journals, the newest journal ending in
// committed records no checkpoint covers and then a torn one. want.txt is
// the payload of every address after the last committed record.
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"sdimm"
	"sdimm/internal/durable"
)

type cluster interface {
	Read(addr uint64) ([]byte, error)
	Write(addr uint64, data []byte) error
	PlanCrash(afterRecords, tearBytes int) error
}

// drive runs n seeded operations over addrs addresses, folding committed
// writes into final, and reports whether the planned crash fired.
func drive(c cluster, r *rand.Rand, n int, addrs uint64, final map[uint64][]byte) bool {
	for i := 0; i < n; i++ {
		addr := r.Uint64() % addrs
		var err error
		if r.Intn(2) == 0 {
			data := make([]byte, 24)
			r.Read(data)
			if err = c.Write(addr, data); err == nil {
				final[addr] = data
			}
		} else {
			_, err = c.Read(addr)
		}
		if errors.Is(err, durable.ErrCrashed) {
			return true
		}
		if err != nil {
			log.Fatalf("op %d: %v", i, err)
		}
	}
	return false
}

func writeWant(dir string, final map[uint64][]byte) {
	addrs := make([]uint64, 0, len(final))
	for a := range final {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	var out []byte
	for _, a := range addrs {
		out = fmt.Appendf(out, "%d %x\n", a, final[a])
	}
	if err := os.WriteFile(filepath.Join(dir, "want.txt"), out, 0o644); err != nil {
		log.Fatal(err)
	}
}

func main() {
	root := os.Args[1]

	// Independent: 112 records, checkpoints at 0, 48 and 96, the crash after
	// 17 more with the 18th torn nine bytes in.
	dir := filepath.Join(root, "independent")
	ic, err := sdimm.NewCluster(sdimm.ClusterOptions{SDIMMs: 2, Levels: 7, Key: []byte("format1-fixture-key"), Seed: 5,
		Durability: &sdimm.DurabilityOptions{Dir: dir, Interval: 48}})
	if err != nil {
		log.Fatal(err)
	}
	final, r := map[uint64][]byte{}, rand.New(rand.NewSource(41))
	drive(ic, r, 96, 40, final)
	ic.PlanCrash(17, 9)
	if !drive(ic, r, 30, 40, final) {
		log.Fatal("independent: the planned crash did not fire")
	}
	writeWant(dir, final)

	// Split with parity: member 1 is fail-stopped and replaced on the way, so
	// the newest checkpoint holds a member of incarnation 1 (its own store
	// key) beside two founders. The replacement journals a topology record.
	dir = filepath.Join(root, "split")
	sc, err := sdimm.NewCluster(sdimm.ClusterOptions{Split: true, SDIMMs: 2, Levels: 6, Key: []byte("format1-fixture-key"), Seed: 9,
		Parity: true, Durability: &sdimm.DurabilityOptions{Dir: dir, Interval: 40}})
	if err != nil {
		log.Fatal(err)
	}
	final, r = map[uint64][]byte{}, rand.New(rand.NewSource(43))
	drive(sc, r, 50, 24, final)
	sc.FailShard(1)
	drive(sc, r, 15, 24, final)
	if err := sc.ReplaceMember(1); err != nil {
		log.Fatal(err)
	}
	drive(sc, r, 20, 24, final)
	sc.PlanCrash(11, 5)
	if !drive(sc, r, 30, 24, final) {
		log.Fatal("split: the planned crash did not fire")
	}
	writeWant(dir, final)
	// No Close on either cluster: the process ends as a crash would end it.
}
