// Package protocol implements the six memory backends the simulator
// evaluates (the paper's Figure 7, its two baselines, and a ring-eviction
// variant), each as a cpusim.Memory:
//
//   - TenantMem over the host channels (NewNonSecure): LLC misses go
//     straight to DRAM (the insecure reference; cotenant.go).
//   - FreecursiveBackend: CPU-side Freecursive ORAM striped over the host
//     channels — the paper's baseline.
//   - IndependentBackend (NewIndependent): one whole ORAM per SDIMM; the
//     host channel carries only ACCESS/PROBE/FETCH_RESULT/APPEND traffic
//     (Section III-C).
//   - IndependentBackend in ring mode (NewRing): the same topology with
//     ring-eviction engines — read-only per-access paths plus a
//     deterministic deferred-flush eviction pointer (write traffic drops by
//     roughly the flush interval).
//   - GroupedBackend with one group (NewSplit): every bucket bit-sliced
//     across the SDIMMs; the host carries metadata, the SDIMMs shuffle data
//     locally (Section III-D).
//   - GroupedBackend with two groups (NewIndepSplit): the tree partitioned
//     Independent-style into halves, each Split across half the SDIMMs
//     (Figure 7e).
//
// The SDIMM protocols share their CPU side. sdimmFront (front.go) owns the
// Freecursive frontend, the global position map, the host links and the
// counters, and runs the one miss → accessORAM chain with its tracing span;
// a backend embeds it and supplies only its accessORAM body — which is where
// a further protocol row would plug in. station is the one "serve one at a
// time, demand before posted" queue: it stands behind the baseline's request
// queue, each SDIMM's local controller and each split group's fetch stage.
//
// Each backend owns its DRAM channels/links and exposes them for energy
// accounting. All functional ORAM state runs through package oram, so the
// timing backends inherit the engine's correctness invariants.
package protocol

import (
	"fmt"

	"sdimm/internal/config"
	"sdimm/internal/dram"
	"sdimm/internal/event"
	"sdimm/internal/oram"
	"sdimm/internal/telemetry"
)

// Backend is a memory backend plus the introspection the simulator needs.
type Backend interface {
	// Read requests a line; done fires when data returns (cpusim.Memory).
	Read(addr uint64, done func())
	// Write posts a line writeback (cpusim.Memory).
	Write(addr uint64)
	// Channels returns (bank-modelled channels, whether each is on-DIMM).
	Channels() ([]*dram.Channel, []bool)
	// Links returns the host links (SDIMM protocols; empty otherwise).
	Links() []*dram.Link
	// Stats returns backend counters.
	Stats() BackendStats
}

// BackendStats are protocol-level counters (bus-level numbers live in the
// channel/link stats).
type BackendStats struct {
	Reads       uint64
	Writes      uint64
	AccessORAMs uint64
	Probes      uint64
	HostBytes   uint64               // protocol bytes moved over host links
	MissLatency *telemetry.Histogram // CPU cycles
	ExtraDrains uint64               // Independent transfer-queue drain accesses
	BgEvictions uint64
	// StashPeak / TransferPeak are in-vivo maxima across all secure
	// buffers (Independent protocol), validating the Section IV-C sizing.
	StashPeak         int
	TransferPeak      int
	TransferOverflows uint64
}

// hostChannels builds the bank-modelled host channels A-host, B-host, ….
func hostChannels(eng *event.Engine, cfg config.Config) []*dram.Channel {
	chans := make([]*dram.Channel, cfg.Org.Channels)
	for c := range chans {
		chans[c] = dram.NewChannel(eng, string(rune('A'+c))+"-host", cfg.Org, cfg.Timing, cfg.Org.RanksPerChannel())
	}
	return chans
}

// treeMem issues ORAM path traffic against one set of DRAM channels. For
// the baseline the set is all host channels (bucket lines striped across
// them); for an SDIMM it is the single on-DIMM channel.
type treeMem struct {
	eng      *event.Engine
	chans    []*dram.Channel
	mappers  []*dram.Mapper
	layout   oram.Layout
	lowPower bool
	lines    []placedLine // placePath's result, reused by the next call
}

func newTreeMem(eng *event.Engine, chans []*dram.Channel, org config.Org, layout oram.Layout, lowPower bool) (*treeMem, error) {
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	tm := &treeMem{eng: eng, chans: chans, layout: layout, lowPower: lowPower}
	for _, ch := range chans {
		tm.mappers = append(tm.mappers, dram.NewMapper(org, ch.Ranks()))
	}
	return tm, nil
}

type placedLine struct {
	chanIdx int
	coord   dram.Coord
}

// placePath maps a path's buckets to physical lines. On-chip buckets are
// skipped. With rank pinning (low-power layout) the lines stay in one rank
// of one channel; otherwise lines stripe across channels. The result is
// scratch the next call overwrites: both callers submit every line before
// they return, and Submit runs no callback.
func (tm *treeMem) placePath(path []uint64) []placedLine {
	out := tm.lines[:0]
	for _, bucket := range path {
		p := tm.layout.Place(bucket)
		if p.OnChip {
			continue
		}
		n := p.LineCount
		if n == 0 {
			n = tm.layout.LinesPerBucket
		}
		for i := 0; i < n; i++ {
			line := p.FirstLine + uint64(i)
			if p.Rank >= 0 {
				// Rank-pinned: the whole subtree lives in one rank of
				// channel 0 of this tree's channel set (an SDIMM has one).
				out = append(out, placedLine{0, tm.mappers[0].MapToRank(line, p.Rank)})
			} else {
				ci := int(line % uint64(len(tm.chans)))
				out = append(out, placedLine{ci, tm.mappers[ci].Map(line / uint64(len(tm.chans)))})
			}
		}
	}
	tm.lines = out
	return out
}

// accessPath generates the DRAM traffic of one path access: read every
// line, and once all reads complete invoke onReadsDone and post the
// writeback of the same lines. With the low-power layout, other ranks are
// nudged into power-down.
func (tm *treeMem) accessPath(path []uint64, onReadsDone func()) {
	tm.readPath(path, func() {
		onReadsDone()
		tm.writePath(path)
	})
}

// readPath reads every line of the path; onDone fires when the last read
// completes.
func (tm *treeMem) readPath(path []uint64, onDone func()) {
	lines := tm.placePath(path)
	if len(lines) == 0 {
		// Fully cached path: complete immediately.
		tm.eng.After(0, func(event.Time) { onDone() })
		return
	}
	if tm.lowPower {
		tm.powerSiblings(lines[0])
	}
	remaining := len(lines)
	arrived := func(event.Time) {
		remaining--
		if remaining == 0 {
			onDone()
		}
	}
	for _, pl := range lines {
		tm.chans[pl.chanIdx].Submit(pl.coord, false, arrived)
	}
}

// writePath posts the writeback of every line of the path.
func (tm *treeMem) writePath(path []uint64) {
	for _, pl := range tm.placePath(path) {
		tm.chans[pl.chanIdx].Submit(pl.coord, true, nil)
	}
}

// powerSiblings pushes the non-target ranks toward power-down.
func (tm *treeMem) powerSiblings(target placedLine) {
	ch := tm.chans[target.chanIdx]
	for r := 0; r < ch.Ranks(); r++ {
		if r != target.coord.Rank {
			ch.PowerDown(r)
		}
	}
}

// log2 returns log2(n) for power-of-two n.
func log2(n int) uint {
	var b uint
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// buildLayout constructs the bucket layout for a tree of the given levels.
func buildLayout(cfg config.Config, levels, linesPerBucket, numRanks int) (oram.Layout, error) {
	l := oram.Layout{
		Geom:           oram.MustGeometry(levels),
		LinesPerBucket: linesPerBucket,
		SubtreeLevels:  cfg.ORAM.SubtreeLevels,
		CachedLevels:   cfg.ORAM.CachedLevels,
		NumRanks:       numRanks,
	}
	if l.CachedLevels >= levels {
		l.CachedLevels = levels - 1
	}
	if err := l.Validate(); err != nil {
		return oram.Layout{}, fmt.Errorf("protocol: layout: %w", err)
	}
	return l, nil
}

// dataBlocks returns the data-ORAM address-space size in blocks.
func dataBlocks(cfg config.Config) uint64 {
	return cfg.Org.TotalBytes() / uint64(cfg.Org.LineBytes)
}

// New builds the backend selected by cfg.Protocol.
func New(eng *event.Engine, cfg config.Config) (Backend, error) {
	switch cfg.Protocol {
	case config.NonSecure:
		return NewNonSecure(eng, cfg)
	case config.Freecursive:
		return NewFreecursive(eng, cfg)
	case config.Independent:
		return NewIndependent(eng, cfg)
	case config.Split:
		return NewSplit(eng, cfg)
	case config.IndepSplit:
		return NewIndepSplit(eng, cfg)
	case config.Ring:
		return NewRing(eng, cfg)
	}
	return nil, fmt.Errorf("protocol: unknown protocol %v", cfg.Protocol)
}
