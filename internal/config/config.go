// Package config defines the simulator configuration: DRAM device timing and
// organization (Table II of the paper), ORAM/Freecursive parameters, the
// SDIMM topology, and the protocol selection. Default values reproduce the
// paper's evaluation setup: a DDR3-1600 memory system built from Micron
// MT41J256M8-class x8 devices, 8 ranks per channel, a 2 MB LLC, Z = 4 Path
// ORAM with 5 recursive position maps and a 64 KB PLB.
package config

import (
	"errors"
	"fmt"
	"math/bits"
)

// Protocol selects the ORAM backend architecture under simulation.
type Protocol int

// Protocols evaluated in the paper (Figure 7 plus the two baselines).
const (
	// NonSecure is the insecure baseline: LLC misses go straight to DRAM.
	NonSecure Protocol = iota
	// Freecursive is the CPU-side Freecursive ORAM baseline [Fletcher'15].
	Freecursive
	// Independent runs one whole ORAM per SDIMM (Section III-C).
	Independent
	// Split bit-slices every bucket across all SDIMMs (Section III-D).
	Split
	// IndepSplit combines both: independent halves, each split across
	// half the SDIMMs (Figure 7e).
	IndepSplit
	// Ring is the Independent topology with ring-style eviction inside
	// each SDIMM: reads lift one block per path, writebacks are deferred
	// to a deterministic reverse-lexicographic eviction pointer every
	// ORAM.RingFlushInterval accesses (see internal/oram ring mode).
	Ring
)

// String returns the paper's name for the protocol.
func (p Protocol) String() string {
	switch p {
	case NonSecure:
		return "non-secure"
	case Freecursive:
		return "freecursive"
	case Independent:
		return "independent"
	case Split:
		return "split"
	case IndepSplit:
		return "indep-split"
	case Ring:
		return "ring"
	}
	return fmt.Sprintf("protocol(%d)", int(p))
}

// ParseProtocol is the inverse of String over the six protocols.
func ParseProtocol(s string) (Protocol, error) {
	for p := NonSecure; p <= Ring; p++ {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown protocol %q", s)
}

// Timing holds DDR3 device timing in memory-controller (command) clock
// cycles. The simulator's base clock is the CPU clock; Org.CPUCyclesPerMemCycle
// converts. Values follow DDR3-1600 (tCK = 1.25 ns) for an MT41J256M8-class
// x8 part.
type Timing struct {
	CL     int // CAS latency (read command to first data)
	CWL    int // CAS write latency
	TRCD   int // row activate to column command
	TRP    int // precharge to activate
	TRAS   int // activate to precharge
	TRC    int // activate to activate, same bank
	TRRD   int // activate to activate, same rank different bank
	TFAW   int // window for four activates in one rank
	TWTR   int // write data end to read command, same rank
	TWR    int // write recovery (write data end to precharge)
	TRTP   int // read to precharge
	TCCD   int // column command to column command
	TBURST int // data burst duration (BL8 = 4 command cycles)
	TRTRS  int // rank-to-rank data-bus switch penalty
	TRFC   int // refresh cycle time
	TREFI  int // refresh interval
	TXP    int // power-down exit latency (paper: 24 ns wakeup)
	TCKE   int // minimum power-down residency
}

// DDR31600 returns DDR3-1600 timing at tCK = 1.25 ns.
func DDR31600() Timing {
	return Timing{
		CL:     11,
		CWL:    8,
		TRCD:   11,
		TRP:    11,
		TRAS:   28,
		TRC:    39,
		TRRD:   6,
		TFAW:   32,
		TWTR:   6,
		TWR:    12,
		TRTP:   6,
		TCCD:   4,
		TBURST: 4,
		TRTRS:  2,
		TRFC:   208,  // 260 ns for a 4 Gb-class device
		TREFI:  6240, // 7.8 us
		TXP:    20,   // ~24 ns slow power-down exit, matching the paper
		TCKE:   4,
	}
}

// DDR42400 returns DDR4-2400 timing at tCK = 0.833 ns, for the footnote-1
// scenario (an SDIMM built from a DDR4 LRDIMM; the distributed data
// buffers would need a few extra pins, but the channel timing is this).
// Use with CPUCyclesPerMemCycle = 1 roughly at 1.6 GHz, or keep the 2:1
// ratio to model a 3.2 GHz part.
func DDR42400() Timing {
	return Timing{
		CL:     16,
		CWL:    12,
		TRCD:   16,
		TRP:    16,
		TRAS:   39,
		TRC:    55,
		TRRD:   6,
		TFAW:   26,
		TWTR:   9,
		TWR:    18,
		TRTP:   9,
		TCCD:   6,
		TBURST: 4,
		TRTRS:  3,
		TRFC:   420,  // 350 ns for an 8 Gb-class device
		TREFI:  9360, // 7.8 us
		TXP:    8,
		TCKE:   6,
	}
}

// Org describes the memory-system organization.
type Org struct {
	Channels             int // host memory channels
	DIMMsPerChannel      int // DIMMs (or SDIMMs) per channel
	RanksPerDIMM         int
	BanksPerRank         int
	RowsPerBank          int
	RowBytes             int // row-buffer size in bytes (per rank)
	LineBytes            int // cache-line / transfer granularity
	CPUCyclesPerMemCycle int // CPU cycles per memory command cycle
	ReadQueueCap         int // per-channel read queue capacity
	WriteQueueCap        int // per-channel write queue capacity (Table II: 64)
	WriteDrainHigh       int // drain writes above this occupancy (paper: 40)
	WriteDrainLow        int // stop draining below this occupancy
}

// DefaultOrg returns the paper's memory organization for the given channel
// count: 2 DIMMs per channel, quad-rank DIMMs (8 ranks/channel), 8 banks,
// 8 KB row buffer, 64 B lines, CPU at 1.6 GHz against an 800 MHz command
// clock.
func DefaultOrg(channels int) Org {
	return Org{
		Channels:             channels,
		DIMMsPerChannel:      2,
		RanksPerDIMM:         4,
		BanksPerRank:         8,
		RowsPerBank:          32768,
		RowBytes:             8192,
		LineBytes:            64,
		CPUCyclesPerMemCycle: 2,
		ReadQueueCap:         64,
		WriteQueueCap:        64,
		WriteDrainHigh:       40,
		WriteDrainLow:        20,
	}
}

// LinesPerRow returns cache lines per DRAM row.
func (o Org) LinesPerRow() int { return o.RowBytes / o.LineBytes }

// RanksPerChannel returns ranks on one host channel.
func (o Org) RanksPerChannel() int { return o.DIMMsPerChannel * o.RanksPerDIMM }

// ChannelBytes returns the capacity of one channel in bytes.
func (o Org) ChannelBytes() uint64 {
	return uint64(o.RanksPerChannel()) * uint64(o.BanksPerRank) * uint64(o.RowsPerBank) * uint64(o.RowBytes)
}

// TotalBytes returns total memory capacity.
func (o Org) TotalBytes() uint64 { return uint64(o.Channels) * o.ChannelBytes() }

// ORAM holds Path ORAM / Freecursive parameters (Table II).
type ORAM struct {
	Z                 int     // blocks per bucket
	BlockBytes        int     // data block size
	Levels            int     // total tree levels (root = level 0)
	CachedLevels      int     // top levels held in the on-chip ORAM cache (0 = off)
	RecursivePosMaps  int     // number of recursive PosMap ORAMs
	PosMapScale       int     // leaf entries per PosMap block
	PLBBytes          int     // PosMap Lookaside Buffer capacity
	EncLatency        int     // encryption/decryption latency, CPU cycles
	StashCapacity     int     // normal stash entries (paper: ~200)
	EvictThreshold    int     // background eviction trigger occupancy
	SubtreeLevels     int     // levels per packed subtree in the memory layout
	TransferQueueCap  int     // Independent-protocol transfer queue entries
	DrainProb         float64 // probability p of draining a transferred block with an extra accessORAM
	RingFlushInterval int     // ring backend: accesses per deferred eviction flush (A)
}

// DefaultORAM returns the paper's ORAM parameters for the given tree height.
func DefaultORAM(levels int) ORAM {
	return ORAM{
		Z:                 4,
		BlockBytes:        64,
		Levels:            levels,
		CachedLevels:      7,
		RecursivePosMaps:  5,
		PosMapScale:       32,
		PLBBytes:          64 << 10,
		EncLatency:        21,
		StashCapacity:     200,
		EvictThreshold:    150,
		SubtreeLevels:     4,
		TransferQueueCap:  64,
		DrainProb:         0.1,
		RingFlushInterval: 4,
	}
}

// MetaLinesPerBucket returns the cache lines of metadata (tags, leaf IDs,
// shared counter, MAC) per bucket. With Z = 4 and 64 B lines the metadata
// packs into one line.
func (o ORAM) MetaLinesPerBucket() int {
	// Per block: address tag (~4 B) + leaf ID (~4 B); per bucket: counter
	// (8 B) + MAC (8 B).
	metaBytes := o.Z*8 + 16
	return (metaBytes + o.BlockBytes - 1) / o.BlockBytes
}

// LinesPerBucket returns the total cache lines per bucket (data + metadata).
func (o ORAM) LinesPerBucket() int { return o.Z + o.MetaLinesPerBucket() }

// Config is the complete simulation configuration.
type Config struct {
	Protocol Protocol
	Org      Org
	Timing   Timing
	ORAM     ORAM

	// NumSDIMMs is the number of SDIMMs for the distributed protocols.
	// It must equal Org.Channels * Org.DIMMsPerChannel.
	NumSDIMMs int

	// LLC parameters (Table II: 2 MB, 64 B lines, 8-way, 10-cycle).
	LLCBytes   int
	LLCWays    int
	LLCLatency int

	// ROBSize bounds in-flight instructions in the in-order core frontend.
	ROBSize int

	// ProbeInterval is the PROBE polling period in CPU cycles for the
	// Independent protocol.
	ProbeInterval int

	// LowPower enables the rank-per-subtree layout with aggressive rank
	// power-down (Section III-E).
	LowPower bool

	// Seed makes runs reproducible.
	Seed uint64

	// WarmupAccesses and MeasureAccesses bound the simulation in LLC-miss
	// counts (the paper fast-forwards 1M accesses and measures 1M; we
	// default to smaller windows — steady state is reached much earlier).
	WarmupAccesses  int
	MeasureAccesses int
}

// Default returns the paper's configuration for a protocol on the given
// number of channels. Tree height 28 models the 32 GB system of Section IV.
func Default(p Protocol, channels int) Config {
	cfg := Config{
		Protocol:        p,
		Org:             DefaultOrg(channels),
		Timing:          DDR31600(),
		ORAM:            DefaultORAM(28),
		LLCBytes:        2 << 20,
		LLCWays:         8,
		LLCLatency:      10,
		ROBSize:         128,
		ProbeInterval:   100,
		LowPower:        true,
		Seed:            1,
		WarmupAccesses:  500,
		MeasureAccesses: 2000,
	}
	cfg.NumSDIMMs = cfg.Org.Channels * cfg.Org.DIMMsPerChannel
	return cfg
}

// Validate checks internal consistency.
func (c Config) Validate() error {
	o := c.Org
	switch {
	case o.Channels <= 0 || o.DIMMsPerChannel <= 0 || o.RanksPerDIMM <= 0:
		return errors.New("config: non-positive memory organization")
	case o.BanksPerRank <= 0 || o.RowsPerBank <= 0:
		return errors.New("config: non-positive bank organization")
	case o.RowBytes <= 0 || o.LineBytes <= 0 || o.RowBytes%o.LineBytes != 0:
		return errors.New("config: row size must be a positive multiple of line size")
	case o.CPUCyclesPerMemCycle <= 0:
		return errors.New("config: non-positive clock ratio")
	case bits.OnesCount(uint(o.BanksPerRank)) != 1:
		return errors.New("config: banks per rank must be a power of two")
	case o.WriteDrainHigh > o.WriteQueueCap:
		return errors.New("config: write drain threshold exceeds queue capacity")
	case o.WriteDrainLow > o.WriteDrainHigh:
		return errors.New("config: write drain low watermark above high watermark")
	}
	om := c.ORAM
	switch {
	case om.Z <= 0 || om.BlockBytes <= 0 || om.Levels <= 0:
		return errors.New("config: non-positive ORAM parameters")
	case om.CachedLevels < 0 || om.CachedLevels >= om.Levels:
		return errors.New("config: cached levels must be in [0, levels)")
	case om.RecursivePosMaps < 0:
		return errors.New("config: negative recursion depth")
	case om.PosMapScale <= 1:
		return errors.New("config: PosMap scale must exceed 1")
	case om.SubtreeLevels <= 0 || om.SubtreeLevels > om.Levels:
		return errors.New("config: invalid subtree packing")
	case om.DrainProb < 0 || om.DrainProb > 1:
		return errors.New("config: drain probability out of [0,1]")
	case om.EvictThreshold <= 0 || om.EvictThreshold > om.StashCapacity:
		return errors.New("config: eviction threshold out of (0, stash capacity]")
	}
	switch c.Protocol {
	case Independent, Split, IndepSplit, Ring:
		if c.NumSDIMMs != c.Org.Channels*c.Org.DIMMsPerChannel {
			return fmt.Errorf("config: NumSDIMMs = %d, want channels*dimms = %d",
				c.NumSDIMMs, c.Org.Channels*c.Org.DIMMsPerChannel)
		}
		if bits.OnesCount(uint(c.NumSDIMMs)) != 1 {
			return errors.New("config: SDIMM count must be a power of two")
		}
	}
	if c.Protocol == Ring {
		if om.RingFlushInterval <= 0 {
			return errors.New("config: ring backend needs a positive flush interval")
		}
		if om.Z < 2 {
			return errors.New("config: ring backend needs Z >= 2 (reserved dummy slots)")
		}
	}
	if c.Protocol == IndepSplit && c.NumSDIMMs < 4 {
		return errors.New("config: indep-split needs at least 4 SDIMMs")
	}
	if c.LLCBytes <= 0 || c.LLCWays <= 0 || c.LLCBytes%(c.LLCWays*c.Org.LineBytes) != 0 {
		return errors.New("config: LLC size must divide into ways*linesize sets")
	}
	if c.ROBSize <= 0 {
		return errors.New("config: non-positive ROB size")
	}
	return nil
}
