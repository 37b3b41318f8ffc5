// Secure-kv: an oblivious key-value store — the in-memory database workload
// (the paper cites Oracle TimesTen) that motivates high-capacity secure
// memory. The KV mapping itself is in kv.go: keys hash to block
// addresses with bounded linear probing, and every get and put is a fixed
// pattern of ORAM accesses, so an observer learns neither the keys nor
// whether an operation was a read or a write.
//
// This example is deliberately a *thin client*: it starts an sdimm-serve
// front end in-process (a real TCP server over the cluster's streaming
// pipeline, with admission control and backpressure) and runs the KV
// workload through the wire protocol — the same path a production tenant
// would use, shed-and-retry handling included.
package main

import (
	"context"
	"fmt"
	"log"

	"sdimm"
	"sdimm/internal/serve"
)

func main() {
	const blockSize = 128
	srv, err := serve.New(serve.Config{
		Cluster: sdimm.ClusterOptions{
			SDIMMs: 4, Levels: 12, BlockSize: blockSize,
			Key: []byte("tenant-42-master-key"), Seed: 42,
		},
		Pipeline: sdimm.PipelineOptions{Window: 8},
	})
	if err != nil {
		log.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	cl, err := serve.Dial(addr, "tenant-42")
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	// The oblivious map over the served block space: 1024 slots of the
	// server's block size, probed through the wire client. BlockStore
	// retries shed responses with backoff, so the example behaves under
	// server backpressure too.
	db, err := newKVMap(1024, cl.BlockSize())
	if err != nil {
		log.Fatal(err)
	}
	store := &serve.BlockStore{C: cl}
	fmt.Printf("oblivious KV store with %d slots, served over %s\n", db.slots, addr)

	users := map[string]string{
		"alice": "credit:9912",
		"bob":   "credit:1034",
		"carol": "credit:7777",
		"dave":  "credit:0041",
		"erin":  "credit:5550",
		"frank": "credit:3141",
		"grace": "credit:2718",
		"heidi": "credit:1618",
		"ivan":  "credit:4242",
		"judy":  "credit:8888",
	}
	for k, v := range users {
		if err := db.put(store, k, v); err != nil {
			log.Fatal(err)
		}
	}
	// Overwrite one record, then read everything back.
	if err := db.put(store, "alice", "credit:0000"); err != nil {
		log.Fatal(err)
	}
	users["alice"] = "credit:0000"

	for k, want := range users {
		got, ok, err := db.get(store, k)
		if err != nil {
			log.Fatal(err)
		}
		if !ok || got != want {
			log.Fatalf("lookup %q = %q (%v), want %q", k, got, ok, want)
		}
		fmt.Printf("  %-6s -> %s\n", k, got)
	}
	if _, ok, _ := db.get(store, "mallory"); ok {
		log.Fatal("phantom record")
	}
	fmt.Printf("all %d records verified; absent key correctly missing\n", len(users))

	slo := srv.SLO()
	fmt.Printf("server SLO: %d ops ok, p99 %dµs, witness green=%v over %d frames\n",
		slo.OK, slo.LatencyP99US, slo.Witness.OK, slo.Witness.Frames)
}
