// Package cpusim models the processor frontend of the evaluation: a 1.6 GHz
// in-order core with a 128-entry ROB window replaying an L1-miss trace
// through a shared 2 MB / 8-way / 10-cycle LLC (Table II). LLC misses go to
// a Memory backend (non-secure DRAM or one of the ORAM protocols); dirty
// victims become posted memory writes. Memory-level parallelism arises
// naturally: misses whose trace positions fit inside the ROB window overlap.
package cpusim

import (
	"errors"
	"fmt"

	"sdimm/internal/cache"
	"sdimm/internal/event"
	"sdimm/internal/trace"
)

// Memory is the interface to whatever sits below the LLC.
type Memory interface {
	// Read requests a line; done fires when data returns.
	Read(addr uint64, done func())
	// Write posts a line writeback (completion is not tracked).
	Write(addr uint64)
}

// Stats reports core/LLC behaviour.
type Stats struct {
	Records       uint64 // trace records consumed
	Instructions  uint64 // instructions executed (gaps + memory ops)
	Cycles        uint64 // total cycles
	LLCHits       uint64
	LLCMisses     uint64
	Writebacks    uint64
	MemLatencySum uint64 // summed LLC-miss latencies, cycles
	MarkCycle     uint64 // cycle when the warmup record count was reached
	MarkMisses    uint64 // LLC misses at the mark
}

// AvgMissLatency returns mean LLC-miss service latency.
func (s Stats) AvgMissLatency() float64 {
	if s.LLCMisses == 0 {
		return 0
	}
	return float64(s.MemLatencySum) / float64(s.LLCMisses)
}

// Config sizes the core.
type Config struct {
	LLCLines   int // total LLC lines
	LLCWays    int
	LLCLatency int // cycles
	ROB        int // in-flight instruction window
	// MarkAt records Stats.MarkCycle when this many trace records have
	// completed (the warmup/measure boundary). Zero disables.
	MarkAt int
}

// Core replays one trace against a memory backend.
type Core struct {
	eng *event.Engine
	mem Memory
	llc *cache.Cache
	cfg Config

	trace   []trace.Record
	nextRec int
	fetched uint64 // instructions fetched so far
	recPos  uint64 // instruction position of the next record
	// Pending records are always the contiguous range [oldest, nextRec):
	// every issued record is pending until it completes and everything
	// before it has. Their instruction positions are distinct and lie inside
	// one ROB window, so at most ROB are pending and record i lives in
	// window[i % ROB].
	oldest    int
	window    []pendingRec
	ticking   bool
	tickFn    event.Func // c.tick, bound once
	done      bool
	doneCycle uint64
	onDone    func()

	stats Stats
}

// pendingRec is one issued, not yet retired record.
type pendingRec struct {
	pos  uint64 // instruction position
	done bool   // its memory op completed
}

// New builds a core. The trace must be non-empty.
func New(eng *event.Engine, mem Memory, cfg Config, tr []trace.Record) (*Core, error) {
	if eng == nil || mem == nil {
		return nil, errors.New("cpusim: nil engine or memory")
	}
	if len(tr) == 0 {
		return nil, errors.New("cpusim: empty trace")
	}
	if cfg.ROB <= 0 || cfg.LLCLatency < 0 {
		return nil, fmt.Errorf("cpusim: invalid config %+v", cfg)
	}
	llc, err := cache.New(cfg.LLCLines, cfg.LLCWays)
	if err != nil {
		return nil, fmt.Errorf("cpusim: llc: %w", err)
	}
	c := &Core{
		eng:    eng,
		mem:    mem,
		llc:    llc,
		cfg:    cfg,
		trace:  tr,
		window: make([]pendingRec, cfg.ROB),
	}
	c.recPos = uint64(tr[0].Gap)
	c.tickFn = c.tick
	return c, nil
}

// Start begins execution; onDone fires when the whole trace has completed
// (all memory operations included).
func (c *Core) Start(onDone func()) {
	c.onDone = onDone
	c.eng.Schedule(c.eng.Now(), c.tickFn)
}

// Stats returns a snapshot. Cycles is the completion cycle once the trace
// has finished, else the current simulation time.
func (c *Core) Stats() Stats {
	s := c.stats
	if c.done {
		s.Cycles = c.doneCycle
	} else {
		s.Cycles = uint64(c.eng.Now())
	}
	return s
}

// Done reports whether the trace has fully completed.
func (c *Core) Done() bool { return c.done }

// retireLimit returns the highest instruction index the core may fetch:
// the oldest incomplete memory op plus the ROB window (in-order retirement
// cannot pass a pending load).
func (c *Core) retireLimit() uint64 {
	if c.oldest == c.nextRec {
		return c.fetched + uint64(c.cfg.ROB)
	}
	return c.slot(c.oldest).pos + uint64(c.cfg.ROB)
}

// slot returns pending record i's window entry.
func (c *Core) slot(i int) *pendingRec { return &c.window[i%len(c.window)] }

func (c *Core) tick(at event.Time) {
	c.ticking = false
	if c.done {
		return
	}
	now := uint64(at)

	for {
		if c.nextRec >= len(c.trace) {
			// Trace exhausted: done when all memory ops complete.
			if c.oldest == c.nextRec && !c.done {
				c.done = true
				c.doneCycle = uint64(c.eng.Now())
				if c.onDone != nil {
					c.onDone()
				}
			}
			return
		}
		limit := c.retireLimit()
		if c.fetched < c.recPos {
			// Execute the gap instructions at 1 IPC, bounded by the window
			// (the window slides as instructions retire, so with nothing
			// pending the next tick continues from a larger limit).
			target := c.recPos
			if target > limit {
				target = limit
			}
			if target > c.fetched {
				delay := target - c.fetched
				c.stats.Instructions += delay
				c.fetched = target
				c.scheduleTick(now + delay)
				return
			}
		}
		if c.recPos >= limit {
			// Window full against a pending memory op: wait for completion.
			return
		}
		// Issue the memory access for record nextRec, which joins the
		// pending range first in case the memory completes it at once.
		c.nextRec++
		c.issue(c.nextRec-1, now)
		c.fetched++ // the memory instruction itself
		c.stats.Instructions++
		if c.nextRec < len(c.trace) {
			c.recPos += 1 + uint64(c.trace[c.nextRec].Gap)
		}
	}
}

func (c *Core) issue(i int, now uint64) {
	*c.slot(i) = pendingRec{pos: c.recPos}
	rec := c.trace[i]
	res := c.llc.Access(rec.Addr, rec.Write)
	if res.Evicted && res.VictimDirty {
		c.stats.Writebacks++
		c.mem.Write(res.Victim)
	}
	if res.Hit {
		c.stats.LLCHits++
		// Hits complete after the LLC latency.
		c.eng.After(event.Time(c.cfg.LLCLatency), func(event.Time) { c.complete(i) })
		return
	}
	c.stats.LLCMisses++
	issueAt := now
	c.mem.Read(rec.Addr, func() {
		c.stats.MemLatencySum += uint64(c.eng.Now()) - issueAt
		c.complete(i)
	})
}

func (c *Core) complete(i int) {
	c.slot(i).done = true
	for c.oldest < c.nextRec && c.slot(c.oldest).done {
		c.oldest++
	}
	c.stats.Records++
	if c.cfg.MarkAt > 0 && c.stats.Records == uint64(c.cfg.MarkAt) {
		c.stats.MarkCycle = uint64(c.eng.Now())
		c.stats.MarkMisses = c.stats.LLCMisses
	}
	c.scheduleTick(uint64(c.eng.Now()))
}

func (c *Core) scheduleTick(at uint64) {
	if c.ticking {
		return
	}
	c.ticking = true
	c.eng.Schedule(event.Time(at), c.tickFn)
}
