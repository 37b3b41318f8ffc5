// Package sdimm is a library-grade reproduction of "Secure DIMM: Moving
// ORAM Primitives Closer to Memory" (Shafiee, Balasubramonian, Li, Tiwari;
// HPCA 2018).
//
// It provides three layers:
//
//   - A functional Path ORAM (type ORAM) with real AES-GCM sealed buckets
//     (PMMAC's position-and-counter binding), plus a distributed variant (type
//     Cluster) that runs the paper's Independent protocol across several
//     secure-buffer instances — usable as an oblivious block store.
//
//   - A cycle-level simulation stack (Simulate/Config) reproducing the
//     paper's evaluation platform: a DDR3 memory system under FR-FCFS
//     scheduling, a trace-driven in-order core with a 2 MB LLC, Freecursive
//     ORAM, and the three SDIMM protocols (Independent, Split,
//     Indep-Split) with energy accounting.
//
//   - The experiment drivers (package internal/experiments, exposed
//     through cmd/sdimm-bench and the repo-root benchmarks) that regenerate
//     every figure of the paper's evaluation.
//
// See README.md for a tour and DESIGN.md for the system inventory.
package sdimm

import (
	"fmt"

	"sdimm/internal/config"
	"sdimm/internal/freecursive"
	"sdimm/internal/oram"
	"sdimm/internal/rng"
	"sdimm/internal/sim"
	"sdimm/internal/trace"
)

// Protocol selects a memory backend for simulation.
type Protocol = config.Protocol

// The protocols of the paper's evaluation (Figure 7 plus baselines), and
// Ring — the Independent topology with ring-style deferred eviction.
const (
	NonSecure   = config.NonSecure
	Freecursive = config.Freecursive
	Independent = config.Independent
	Split       = config.Split
	IndepSplit  = config.IndepSplit
	Ring        = config.Ring
)

// Config is a complete simulation configuration; DefaultConfig returns the
// paper's Table II parameters.
type Config = config.Config

// DefaultConfig returns the paper's configuration for a protocol and
// channel count (1 or 2 channels; 28 tree levels model the 32 GB system).
func DefaultConfig(p Protocol, channels int) Config {
	return config.Default(p, channels)
}

// Result is the outcome of one simulation run.
type Result = sim.Result

// Simulate runs one configuration against a named workload profile (one of
// Workloads()).
func Simulate(cfg Config, workload string) (Result, error) {
	return sim.Run(cfg, workload, nil)
}

// Workloads lists the synthetic benchmark profiles (stand-ins for the
// paper's 10 SPEC CPU2006 traces).
func Workloads() []string {
	var out []string
	for _, p := range trace.Profiles() {
		out = append(out, p.Name)
	}
	return out
}

// ORAMOptions sizes a functional ORAM.
type ORAMOptions struct {
	// Levels is the tree height; capacity is about 2^(Levels-1) * 2 blocks.
	Levels int
	// BlockSize is the payload bytes per block (default 64).
	BlockSize int
	// Z is the bucket capacity (default 4).
	Z int
	// Key seeds the encryption and MAC keys.
	Key []byte
	// Seed makes leaf assignment deterministic (0 uses 1).
	Seed uint64
}

func (o *ORAMOptions) setDefaults() {
	if o.BlockSize == 0 {
		o.BlockSize = 64
	}
	if o.Z == 0 {
		o.Z = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// ORAM is a functional Path ORAM block store: reads and writes are
// indistinguishable to an observer of the (encrypted, MACed) bucket
// accesses, exactly as in Section II-C. It is not safe for concurrent use.
type ORAM struct {
	engine    *oram.Engine
	blockSize int
	writeBuf  []byte // reusable zero-padded staging for Write
}

// NewORAM builds a functional Path ORAM.
func NewORAM(opts ORAMOptions) (*ORAM, error) {
	opts.setDefaults()
	geom, err := oram.NewGeometry(opts.Levels)
	if err != nil {
		return nil, err
	}
	store, err := oram.NewMemStore(opts.Z, opts.BlockSize, opts.Key)
	if err != nil {
		return nil, err
	}
	engine, err := oram.NewEngine(store, oram.NewSparsePosMap(), oram.Options{
		Geometry:       geom,
		StashCapacity:  200,
		EvictThreshold: 150,
		Rand:           rng.New(opts.Seed),
	})
	if err != nil {
		return nil, err
	}
	return &ORAM{engine: engine, blockSize: opts.BlockSize}, nil
}

// BlockSize returns the payload size per block.
func (o *ORAM) BlockSize() int { return o.blockSize }

// Capacity returns the number of blocks the store can hold at the standard
// 50% utilization target.
func (o *ORAM) Capacity() uint64 {
	return o.engine.Geometry().CapacityBlocks(4)
}

// Read returns the BlockSize-byte payload of addr (zeros if never written).
// The result is a fresh allocation the caller owns.
func (o *ORAM) Read(addr uint64) ([]byte, error) {
	data, _, err := o.engine.Access(addr, oram.OpRead, nil)
	if err != nil {
		return nil, err
	}
	// Access returns engine-owned scratch; hand the caller their own copy.
	out := make([]byte, o.blockSize)
	copy(out, data)
	return out, nil
}

// Write stores up to BlockSize bytes at addr (shorter payloads are
// zero-padded).
func (o *ORAM) Write(addr uint64, data []byte) error {
	if len(data) > o.blockSize {
		return fmt.Errorf("sdimm: payload %d exceeds block size %d", len(data), o.blockSize)
	}
	if cap(o.writeBuf) < o.blockSize {
		o.writeBuf = make([]byte, o.blockSize)
	}
	buf := o.writeBuf[:o.blockSize]
	clear(buf)
	copy(buf, data)
	_, _, err := o.engine.Access(addr, oram.OpWrite, buf)
	return err
}

// StashLen exposes current stash occupancy (for monitoring; bounded by
// design).
func (o *ORAM) StashLen() int { return o.engine.StashLen() }

// RecursiveORAMOptions sizes a RecursiveORAM.
type RecursiveORAMOptions struct {
	// DataBlocks is the logical address-space size in blocks.
	DataBlocks uint64
	// PosMaps is the number of recursive position maps (default 2).
	PosMaps int
	// PLBEntries sizes the PosMap Lookaside Buffer (default 64).
	PLBEntries int
	// Levels is the tree height; the tree must hold DataBlocks plus the
	// recursive PosMaps at 50% utilization.
	Levels int
	// Key seeds the bucket encryption/MAC keys.
	Key []byte
	// Seed drives leaf assignment (0 uses 1).
	Seed uint64
}

// RecursiveORAM is the complete Freecursive ORAM running on real bytes:
// position maps are blocks inside the same encrypted tree as the data, a
// PLB short-circuits most recursive lookups (with dirty write-back), and
// only the smallest PosMap stays on chip — so client-side state is O(1) in
// the data size, unlike ORAM, whose position map grows linearly.
type RecursiveORAM struct {
	f         *freecursive.Functional
	blockSize int
}

// NewRecursiveORAM builds a functional Freecursive ORAM (64-byte blocks).
func NewRecursiveORAM(opts RecursiveORAMOptions) (*RecursiveORAM, error) {
	if opts.PosMaps == 0 {
		opts.PosMaps = 2
	}
	if opts.PLBEntries == 0 {
		opts.PLBEntries = 64
	}
	f, err := freecursive.NewFunctional(freecursive.FunctionalOptions{
		DataBlocks: opts.DataBlocks,
		PosMaps:    opts.PosMaps,
		PLBEntries: opts.PLBEntries,
		Levels:     opts.Levels,
		Key:        opts.Key,
		Seed:       opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &RecursiveORAM{f: f, blockSize: 64}, nil
}

// Read returns the 64-byte payload at addr (zeros if never written).
func (r *RecursiveORAM) Read(addr uint64) ([]byte, error) {
	return r.f.Access(addr, oram.OpRead, nil)
}

// Write stores up to 64 bytes at addr.
func (r *RecursiveORAM) Write(addr uint64, data []byte) error {
	if len(data) > r.blockSize {
		return fmt.Errorf("sdimm: payload %d exceeds block size %d", len(data), r.blockSize)
	}
	buf := make([]byte, r.blockSize)
	copy(buf, data)
	_, err := r.f.Access(addr, oram.OpWrite, buf)
	return err
}

// AccessesPerOp reports the measured recursion overhead (the paper's
// accessORAM-per-access metric; ~1.x with a warm PLB).
func (r *RecursiveORAM) AccessesPerOp() float64 { return r.f.Stats().AccessesPerOp() }
