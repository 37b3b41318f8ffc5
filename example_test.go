package sdimm_test

import (
	"fmt"
	"log"

	"sdimm"
)

// ExampleORAM shows the functional Path ORAM as an oblivious block store.
func ExampleORAM() {
	store, err := sdimm.NewORAM(sdimm.ORAMOptions{Levels: 10, Key: []byte("demo")})
	if err != nil {
		log.Fatal(err)
	}
	if err := store.Write(7, []byte("secret")); err != nil {
		log.Fatal(err)
	}
	data, err := store.Read(7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(data[:6]))
	// Output: secret
}

// ExampleCluster runs the Independent protocol functionally: the block
// migrates between secure buffers as its leaf is remapped, over encrypted
// links.
func ExampleCluster() {
	cluster, err := sdimm.NewCluster(sdimm.ClusterOptions{
		SDIMMs: 4,
		Levels: 10,
		Key:    []byte("demo"),
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := cluster.Write(3, []byte("distributed")); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 5; i++ { // each read likely moves the block
		if _, err := cluster.Read(3); err != nil {
			log.Fatal(err)
		}
	}
	data, err := cluster.Read(3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(data[:11]))
	// Output: distributed
}

// ExampleCluster_split bit-slices each block across four shard trees.
func ExampleCluster_split() {
	c, err := sdimm.NewCluster(sdimm.ClusterOptions{
		Split:  true,
		SDIMMs: 4,
		Levels: 10,
		Key:    []byte("demo"),
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := c.Write(1, []byte("sharded")); err != nil {
		log.Fatal(err)
	}
	data, err := c.Read(1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(data[:7]))
	// Output: sharded
}

// ExampleSimulate runs one cycle-level simulation of the paper's platform.
func ExampleSimulate() {
	cfg := sdimm.DefaultConfig(sdimm.Independent, 1)
	cfg.ORAM.Levels = 20
	cfg.WarmupAccesses = 50
	cfg.MeasureAccesses = 100
	res, err := sdimm.Simulate(cfg, "mcf")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Protocol, res.LLCMisses > 0, res.Energy.Total() > 0)
	// Output: independent true true
}

// ExampleNewRecursiveORAM stores the position maps inside the ORAM itself.
func ExampleNewRecursiveORAM() {
	rec, err := sdimm.NewRecursiveORAM(sdimm.RecursiveORAMOptions{
		DataBlocks: 2048,
		Levels:     12,
		Key:        []byte("demo"),
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := rec.Write(5, []byte("recursive")); err != nil {
		log.Fatal(err)
	}
	data, err := rec.Read(5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(data[:9]))
	// Output: recursive
}
