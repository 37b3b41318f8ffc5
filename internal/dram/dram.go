// Package dram implements an event-driven DDR3 memory-channel model: ranks,
// banks, row buffers, the full first-order command timing set
// (tRCD/tRP/CL/CWL/tRAS/tRRD/tFAW/tCCD/tWTR/tWR/tRTP/tRTRS/tBURST), periodic
// refresh, and rank power-down states. Scheduling is FR-FCFS with read
// priority and a write-drain high/low watermark, following USIMM (the
// simulator used by the paper).
//
// One Channel models either a host memory channel (baseline protocols) or
// the DRAM-facing side of one SDIMM's secure buffer (the on-DIMM channel).
// Package dram also provides Link, a bus-occupancy model for the host
// channel when it carries only CPU<->secure-buffer transfers.
//
// All externally visible times are in CPU cycles (the event.Engine clock);
// timing parameters are converted from memory-command cycles on
// construction.
package dram

import (
	"fmt"
	"strconv"

	"sdimm/internal/config"
	"sdimm/internal/event"
	"sdimm/internal/telemetry"
)

// Coord addresses one cache line within a channel.
type Coord struct {
	Rank int
	Bank int
	Row  uint32
	Col  int // line index within the row
}

// Request is one cache-line read or write presented to a channel.
type Request struct {
	Coord Coord
	Write bool
	// OnComplete, if non-nil, fires when the data burst finishes.
	OnComplete func(now event.Time)

	arrive int64
	id     uint64
	opened bool // this request triggered an ACT (used for row-hit stats)
}

// RankStats accumulates per-rank activity and power-state residency.
type RankStats struct {
	Activates  uint64
	Reads      uint64
	Writes     uint64
	RowHits    uint64 // column commands that hit the open row
	Refreshes  uint64
	TActive    uint64 // cycles with ≥1 open bank, powered up
	TPrecharge uint64 // cycles all banks closed, powered up
	TPowerDown uint64 // cycles in power-down
	Wakeups    uint64
}

// Stats accumulates per-channel activity.
type Stats struct {
	Reads       uint64
	Writes      uint64
	RowHits     uint64
	Activates   uint64
	Precharges  uint64
	Refreshes   uint64
	BytesRead   uint64
	BytesWrite  uint64
	ReadLatency uint64 // summed queue-entry to data-completion, CPU cycles
	PerRank     []RankStats
}

// AvgReadLatency returns mean read latency in CPU cycles.
func (s *Stats) AvgReadLatency() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.ReadLatency) / float64(s.Reads)
}

type bank struct {
	open      bool
	row       uint32
	nextAct   int64
	nextRead  int64
	nextWrite int64
	nextPre   int64
}

// bankList is the per-bank request FIFO.
type bankList struct {
	reads  []*Request
	writes []*Request
}

type rank struct {
	idx        int
	banks      []bank
	actTimes   [4]int64 // ring buffer of recent ACT issue times (tFAW)
	actIdx     int
	nextRead   int64 // write-to-read (tWTR) constraint, rank-wide
	refreshEnd int64
	poweredUp  bool
	wakeAt     int64 // when exiting power-down completes
	lastUse    int64

	// Residency accounting.
	openBanks int
	accrueAt  int64
	stats     *RankStats
}

func (r *rank) accrue(now int64) {
	if now <= r.accrueAt {
		return
	}
	d := uint64(now - r.accrueAt)
	switch {
	case !r.poweredUp:
		r.stats.TPowerDown += d
	case r.openBanks > 0:
		r.stats.TActive += d
	default:
		r.stats.TPrecharge += d
	}
	r.accrueAt = now
}

func (r *rank) fawReady() int64 {
	// The oldest of the last four ACTs bounds the next one.
	return r.actTimes[r.actIdx]
}

func (r *rank) pushAct(t, tFAW int64) {
	r.actTimes[r.actIdx] = t + tFAW
	r.actIdx = (r.actIdx + 1) % len(r.actTimes)
}

// CommandKind identifies a DDR command for bus observers.
type CommandKind int

// DDR bus commands visible to a probe on the command bus.
const (
	CmdActivate CommandKind = iota
	CmdRead
	CmdWrite
	CmdPrecharge
	CmdRefresh
)

// String names the command.
func (k CommandKind) String() string {
	switch k {
	case CmdActivate:
		return "ACT"
	case CmdRead:
		return "RD"
	case CmdWrite:
		return "WR"
	case CmdPrecharge:
		return "PRE"
	case CmdRefresh:
		return "REF"
	}
	return "?"
}

// Channel is one DDR channel with its memory controller.
type Channel struct {
	Name string

	// Observer, when set, sees every command on the (untrusted) bus with
	// its bank address — exactly what a logic analyzer probing the DIMM
	// would capture. Used by the attacker-view analysis.
	Observer func(now event.Time, kind CommandKind, coord Coord)

	eng   *event.Engine
	ranks []*rank

	// Timing in CPU cycles.
	ratio                                 int64
	tCL, tCWL, tRCD, tRP, tRAS, tRC       int64
	tRRD, tFAW, tWTR, tWR, tRTP           int64
	tCCD, tBURST, tRTRS, tRFC, tREFI, tXP int64
	lineBytes, linesPerRow, rowsPerBank   int

	// Per-bank FIFO queues (index rank*banksPerRank + bank) with global
	// read/write counts; FR-FCFS scans banks, not requests.
	bq      []bankList
	nReads  int
	nWrites int

	cmdBusFree  int64
	dataBusFree int64
	dataBusRank int
	nextWriteCh int64 // channel-wide read-to-write bus turnaround
	draining    bool
	nextID      uint64

	evalScheduled bool
	evalAt        int64
	evalHandle    event.Handle

	// AutoPowerDown, when set, moves idle ranks into power-down after
	// IdleThreshold cycles without traffic (the paper's low-power mode).
	AutoPowerDown bool
	IdleThreshold int64

	drainHigh, drainLow int

	stats Stats
	tm    *channelMetrics
}

// channelMetrics holds the telemetry handles a Channel updates alongside
// its Stats, resolved once in EnableTelemetry so the issue path stays
// allocation-free.
type channelMetrics struct {
	reads, writes, rowHits         *telemetry.Counter
	activates, precharges          *telemetry.Counter
	refreshes                      *telemetry.Counter
	refreshStallCycles             *telemetry.Counter
	pending                        *telemetry.Gauge
	readLatency                    *telemetry.Histogram
	rankReads, rankWrites          []*telemetry.Counter
	rankRowHits, rankActivates     []*telemetry.Counter
	rankRefreshes, rankStallCycles []*telemetry.Counter
}

// EnableTelemetry mirrors channel and per-rank activity into reg under the
// dram.* namespace, labelled with the channel name (and rank index for the
// per-rank series). Call once, before or during simulation.
func (c *Channel) EnableTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	tm := &channelMetrics{
		reads:              reg.Counter("dram.reads", "chan", c.Name),
		writes:             reg.Counter("dram.writes", "chan", c.Name),
		rowHits:            reg.Counter("dram.row_hits", "chan", c.Name),
		activates:          reg.Counter("dram.activates", "chan", c.Name),
		precharges:         reg.Counter("dram.precharges", "chan", c.Name),
		refreshes:          reg.Counter("dram.refreshes", "chan", c.Name),
		refreshStallCycles: reg.Counter("dram.refresh_stall_cycles", "chan", c.Name),
		pending:            reg.Gauge("dram.pending", "chan", c.Name),
		readLatency:        reg.Histogram("dram.read_latency", 32, 2048, "chan", c.Name),
	}
	for i := range c.ranks {
		r := strconv.Itoa(i)
		tm.rankReads = append(tm.rankReads, reg.Counter("dram.reads", "chan", c.Name, "rank", r))
		tm.rankWrites = append(tm.rankWrites, reg.Counter("dram.writes", "chan", c.Name, "rank", r))
		tm.rankRowHits = append(tm.rankRowHits, reg.Counter("dram.row_hits", "chan", c.Name, "rank", r))
		tm.rankActivates = append(tm.rankActivates, reg.Counter("dram.activates", "chan", c.Name, "rank", r))
		tm.rankRefreshes = append(tm.rankRefreshes, reg.Counter("dram.refreshes", "chan", c.Name, "rank", r))
		tm.rankStallCycles = append(tm.rankStallCycles, reg.Counter("dram.refresh_stall_cycles", "chan", c.Name, "rank", r))
	}
	c.tm = tm
}

// NewChannel builds a channel with ranksPerChannel ranks using the given
// organization and timing.
func NewChannel(eng *event.Engine, name string, org config.Org, tm config.Timing, ranksPerChannel int) *Channel {
	r := int64(org.CPUCyclesPerMemCycle)
	c := &Channel{
		Name:          name,
		eng:           eng,
		ratio:         r,
		tCL:           int64(tm.CL) * r,
		tCWL:          int64(tm.CWL) * r,
		tRCD:          int64(tm.TRCD) * r,
		tRP:           int64(tm.TRP) * r,
		tRAS:          int64(tm.TRAS) * r,
		tRC:           int64(tm.TRC) * r,
		tRRD:          int64(tm.TRRD) * r,
		tFAW:          int64(tm.TFAW) * r,
		tWTR:          int64(tm.TWTR) * r,
		tWR:           int64(tm.TWR) * r,
		tRTP:          int64(tm.TRTP) * r,
		tCCD:          int64(tm.TCCD) * r,
		tBURST:        int64(tm.TBURST) * r,
		tRTRS:         int64(tm.TRTRS) * r,
		tRFC:          int64(tm.TRFC) * r,
		tREFI:         int64(tm.TREFI) * r,
		tXP:           int64(tm.TXP) * r,
		lineBytes:     org.LineBytes,
		linesPerRow:   org.LinesPerRow(),
		rowsPerBank:   org.RowsPerBank,
		dataBusRank:   -1,
		drainHigh:     org.WriteDrainHigh,
		drainLow:      org.WriteDrainLow,
		IdleThreshold: 4 * int64(tm.TREFI) * r / 16,
	}
	c.stats.PerRank = make([]RankStats, ranksPerChannel)
	c.bq = make([]bankList, ranksPerChannel*org.BanksPerRank)
	for i := 0; i < ranksPerChannel; i++ {
		rk := &rank{
			idx:       i,
			banks:     make([]bank, org.BanksPerRank),
			poweredUp: true,
			stats:     &c.stats.PerRank[i],
		}
		c.ranks = append(c.ranks, rk)
		c.scheduleRefresh(rk, c.tREFI)
	}
	return c
}

// Ranks returns the number of ranks on the channel.
func (c *Channel) Ranks() int { return len(c.ranks) }

// Stats returns a snapshot of channel statistics with residency accounting
// brought up to the current time.
func (c *Channel) Stats() Stats {
	now := int64(c.eng.Now())
	for _, rk := range c.ranks {
		rk.accrue(now)
	}
	s := c.stats
	s.PerRank = append([]RankStats(nil), c.stats.PerRank...)
	return s
}

// Pending reports queued (not yet completed) requests.
func (c *Channel) Pending() int { return c.nReads + c.nWrites }

func (c *Channel) bankIdx(co Coord) int {
	return co.Rank*len(c.ranks[0].banks) + co.Bank
}

// Submit enqueues a request. The channel takes ownership of r.
func (c *Channel) Submit(r *Request) {
	if r.Coord.Rank < 0 || r.Coord.Rank >= len(c.ranks) {
		panic(fmt.Sprintf("dram %s: rank %d out of range", c.Name, r.Coord.Rank))
	}
	if r.Coord.Bank < 0 || r.Coord.Bank >= len(c.ranks[0].banks) {
		panic(fmt.Sprintf("dram %s: bank %d out of range", c.Name, r.Coord.Bank))
	}
	if r.Coord.Col < 0 || r.Coord.Col >= c.linesPerRow {
		panic(fmt.Sprintf("dram %s: column %d out of range", c.Name, r.Coord.Col))
	}
	r.arrive = int64(c.eng.Now())
	r.id = c.nextID
	c.nextID++
	bl := &c.bq[c.bankIdx(r.Coord)]
	if r.Write {
		bl.writes = append(bl.writes, r)
		c.nWrites++
	} else {
		bl.reads = append(bl.reads, r)
		c.nReads++
	}
	if c.tm != nil {
		c.tm.pending.Set(int64(c.Pending()))
	}
	c.wake(r.Coord.Rank)
	c.kick(r.arrive)
}

func (c *Channel) wake(rankIdx int) {
	rk := c.ranks[rankIdx]
	now := int64(c.eng.Now())
	rk.lastUse = now
	if !rk.poweredUp {
		rk.accrue(now)
		rk.poweredUp = true
		rk.wakeAt = now + c.tXP
		rk.stats.Wakeups++
	}
}

// PowerDown forces a rank into power-down (used by the low-power layout,
// which knows which rank the next ORAM access needs). In-flight constraints
// are preserved: the rank wakes automatically when a request targets it.
func (c *Channel) PowerDown(rankIdx int) {
	rk := c.ranks[rankIdx]
	if !rk.poweredUp {
		return
	}
	// Never power down a rank with queued work.
	banks := len(c.ranks[0].banks)
	for i := rankIdx * banks; i < (rankIdx+1)*banks; i++ {
		if len(c.bq[i].reads) > 0 || len(c.bq[i].writes) > 0 {
			return
		}
	}
	now := int64(c.eng.Now())
	rk.accrue(now)
	rk.poweredUp = false
}

// kick schedules a scheduler evaluation no later than at. At most one
// evaluation event is pending at a time: rescheduling earlier cancels the
// superseded event (leaving it live would let stale evaluations multiply).
func (c *Channel) kick(at int64) {
	if at < int64(c.eng.Now()) {
		at = int64(c.eng.Now())
	}
	if c.evalScheduled {
		if c.evalAt <= at {
			return
		}
		c.evalHandle.Cancel()
	}
	c.evalScheduled = true
	c.evalAt = at
	c.evalHandle = c.eng.Schedule(event.Time(at), c.evaluate)
}

func (c *Channel) evaluate() {
	c.evalScheduled = false
	now := int64(c.eng.Now())
	if now < c.cmdBusFree {
		c.kick(c.cmdBusFree)
		return
	}
	if c.nReads == 0 && c.nWrites == 0 {
		c.maybePowerDown(now)
		return
	}

	// Write-drain state machine (USIMM-style watermarks).
	if c.nWrites >= c.drainHigh {
		c.draining = true
	}
	if c.draining && c.nWrites <= c.drainLow {
		c.draining = false
	}
	serveWrites := (c.draining || c.nReads == 0) && c.nWrites > 0

	issued, nextTry := c.tryIssue(now, serveWrites)
	if !issued && !serveWrites && c.nWrites > 0 {
		// Reads blocked on timing: opportunistically look at writes.
		wIssued, wNext := c.tryIssue(now, true)
		if wIssued {
			issued = true
		} else if wNext < nextTry {
			nextTry = wNext
		}
	}
	if issued {
		c.kick(c.cmdBusFree)
		return
	}
	if nextTry <= now {
		nextTry = now + c.ratio
	}
	c.kick(nextTry)
}

const farFuture = int64(1) << 62

// rowHitLookahead bounds how deep into a bank's FIFO the scheduler looks
// for a request matching the open row, mirroring the bounded associative
// search of a real FR-FCFS scheduler.
const rowHitLookahead = 8

// tryIssue attempts to issue one command for the selected queue class
// (reads or writes). FR-FCFS: among banks with an open row, the oldest
// request hitting that row is preferred; otherwise the oldest request
// needing PRE or ACT. A bank whose oldest request is a row hit is never
// precharged under it. Returns whether a command was issued and, if not,
// the earliest time one might become issuable.
func (c *Channel) tryIssue(now int64, isWrite bool) (bool, int64) {
	nextTry := farFuture
	banks := len(c.ranks[0].banks)

	var bestHit, bestMiss *Request
	var bestHitPos int
	for idx := range c.bq {
		bl := &c.bq[idx]
		list := bl.reads
		if isWrite {
			list = bl.writes
		}
		if len(list) == 0 {
			continue
		}
		rk := c.ranks[idx/banks]
		b := &rk.banks[idx%banks]

		if b.open {
			// Look for the oldest request hitting the open row.
			depth := len(list)
			if depth > rowHitLookahead {
				depth = rowHitLookahead
			}
			hitPos := -1
			for i := 0; i < depth; i++ {
				if list[i].Coord.Row == b.row {
					hitPos = i
					break
				}
			}
			if hitPos >= 0 {
				ready := c.colReady(rk, b, isWrite)
				if ready <= now {
					r := list[hitPos]
					if bestHit == nil || r.id < bestHit.id {
						bestHit, bestHitPos = r, hitPos
					}
				} else if ready < nextTry {
					nextTry = ready
				}
				// Never precharge under a pending row hit.
				continue
			}
			// Row conflict: precharge for the oldest request.
			ready := maxi64(b.nextPre, rk.wakeAt, rk.refreshEnd)
			if ready <= now {
				r := list[0]
				if bestMiss == nil || r.id < bestMiss.id {
					bestMiss = r
				}
			} else if ready < nextTry {
				nextTry = ready
			}
			continue
		}
		// Closed bank: activate for the oldest request.
		ready := maxi64(b.nextAct, rk.fawReady(), rk.wakeAt, rk.refreshEnd)
		if ready <= now {
			r := list[0]
			if bestMiss == nil || r.id < bestMiss.id {
				bestMiss = r
			}
		} else if ready < nextTry {
			nextTry = ready
		}
	}

	if bestHit != nil {
		rk := c.ranks[bestHit.Coord.Rank]
		b := &rk.banks[bestHit.Coord.Bank]
		c.removeAt(bestHit, bestHitPos)
		c.issueColumn(now, bestHit, rk, b, !bestHit.opened)
		return true, 0
	}
	if bestMiss != nil {
		rk := c.ranks[bestMiss.Coord.Rank]
		b := &rk.banks[bestMiss.Coord.Bank]
		if b.open {
			c.issuePrecharge(now, rk, b)
		} else {
			bestMiss.opened = true
			c.issueActivate(now, bestMiss, rk, b)
		}
		return true, 0
	}
	return false, nextTry
}

// removeAt removes a request from its bank FIFO at a known position.
func (c *Channel) removeAt(r *Request, pos int) {
	bl := &c.bq[c.bankIdx(r.Coord)]
	if r.Write {
		bl.writes = append(bl.writes[:pos], bl.writes[pos+1:]...)
		c.nWrites--
	} else {
		bl.reads = append(bl.reads[:pos], bl.reads[pos+1:]...)
		c.nReads--
	}
	if c.tm != nil {
		c.tm.pending.Set(int64(c.Pending()))
	}
}

func (c *Channel) colReady(rk *rank, b *bank, isWrite bool) int64 {
	if isWrite {
		ready := maxi64(b.nextWrite, c.nextWriteCh, rk.wakeAt, rk.refreshEnd)
		// Data bus: burst starts tCWL after the command.
		busNeed := c.dataBusFree - c.tCWL
		return maxi64(ready, busNeed)
	}
	ready := maxi64(b.nextRead, rk.nextRead, rk.wakeAt, rk.refreshEnd)
	busNeed := c.dataBusFree - c.tCL
	if c.dataBusRank >= 0 && c.ranks[c.dataBusRank] != rk {
		busNeed += c.tRTRS
	}
	return maxi64(ready, busNeed)
}

func (c *Channel) issueColumn(now int64, r *Request, rk *rank, b *bank, hit bool) {
	c.cmdBusFree = now + c.ratio
	rankIdx := r.Coord.Rank
	if c.Observer != nil {
		k := CmdRead
		if r.Write {
			k = CmdWrite
		}
		c.Observer(event.Time(now), k, r.Coord)
	}
	if r.Write {
		end := now + c.tCWL + c.tBURST
		c.dataBusFree = end
		c.dataBusRank = rankIdx
		b.nextWrite = maxi64(b.nextWrite, now+c.tCCD)
		rk.nextRead = maxi64(rk.nextRead, end+c.tWTR)
		b.nextPre = maxi64(b.nextPre, end+c.tWR)
		c.stats.Writes++
		c.stats.BytesWrite += uint64(c.lineBytes)
		rk.stats.Writes++
		if hit {
			c.stats.RowHits++
			rk.stats.RowHits++
		}
		if c.tm != nil {
			c.tm.writes.Inc()
			c.tm.rankWrites[rankIdx].Inc()
			if hit {
				c.tm.rowHits.Inc()
				c.tm.rankRowHits[rankIdx].Inc()
			}
		}
		c.complete(r, end)
	} else {
		end := now + c.tCL + c.tBURST
		c.dataBusFree = end
		c.dataBusRank = rankIdx
		b.nextRead = maxi64(b.nextRead, now+c.tCCD)
		// Read-to-write bus turnaround, channel-wide.
		c.nextWriteCh = maxi64(c.nextWriteCh, end+c.tRTRS-c.tCWL)
		b.nextPre = maxi64(b.nextPre, now+c.tRTP)
		c.stats.Reads++
		c.stats.BytesRead += uint64(c.lineBytes)
		rk.stats.Reads++
		if hit {
			c.stats.RowHits++
			rk.stats.RowHits++
		}
		c.stats.ReadLatency += uint64(end - r.arrive)
		if c.tm != nil {
			c.tm.reads.Inc()
			c.tm.rankReads[rankIdx].Inc()
			if hit {
				c.tm.rowHits.Inc()
				c.tm.rankRowHits[rankIdx].Inc()
			}
			c.tm.readLatency.Add(uint64(end - r.arrive))
		}
		c.complete(r, end)
	}
	rk.lastUse = now
}

func (c *Channel) complete(r *Request, at int64) {
	if r.OnComplete == nil {
		return
	}
	cb := r.OnComplete
	c.eng.Schedule(event.Time(at), func() { cb(event.Time(at)) })
}

func (c *Channel) issueActivate(now int64, r *Request, rk *rank, b *bank) {
	c.cmdBusFree = now + c.ratio
	if c.Observer != nil {
		c.Observer(event.Time(now), CmdActivate, r.Coord)
	}
	if rk.openBanks == 0 {
		rk.accrue(now)
	}
	b.open = true
	b.row = r.Coord.Row
	rk.openBanks++
	b.nextRead = now + c.tRCD
	b.nextWrite = now + c.tRCD
	b.nextPre = maxi64(b.nextPre, now+c.tRAS)
	b.nextAct = now + c.tRC
	for i := range rk.banks {
		ob := &rk.banks[i]
		if ob != b {
			ob.nextAct = maxi64(ob.nextAct, now+c.tRRD)
		}
	}
	rk.pushAct(now, c.tFAW)
	c.stats.Activates++
	rk.stats.Activates++
	if c.tm != nil {
		c.tm.activates.Inc()
		c.tm.rankActivates[rk.idx].Inc()
	}
	rk.lastUse = now
}

func (c *Channel) issuePrecharge(now int64, rk *rank, b *bank) {
	c.cmdBusFree = now + c.ratio
	b.open = false
	rk.openBanks--
	if rk.openBanks == 0 {
		rk.accrue(now)
	}
	b.nextAct = maxi64(b.nextAct, now+c.tRP)
	c.stats.Precharges++
	if c.tm != nil {
		c.tm.precharges.Inc()
	}
	rk.lastUse = now
}

func (c *Channel) scheduleRefresh(rk *rank, at int64) {
	c.eng.Schedule(event.Time(at), func() { c.refresh(rk, at) })
}

func (c *Channel) refresh(rk *rank, due int64) {
	now := int64(c.eng.Now())
	// All banks must be precharged; compute when that can happen.
	start := now
	for i := range rk.banks {
		b := &rk.banks[i]
		if b.open {
			if b.nextPre > start {
				start = b.nextPre
			}
		}
	}
	closedAny := false
	for i := range rk.banks {
		b := &rk.banks[i]
		if b.open {
			b.open = false
			closedAny = true
		}
	}
	if closedAny {
		rk.accrue(start)
		rk.openBanks = 0
		start += c.tRP
	}
	if !rk.poweredUp {
		// Self-refresh semantics: refreshed in place, no state change.
		rk.stats.Refreshes++
	} else {
		rk.refreshEnd = start + c.tRFC
		for i := range rk.banks {
			b := &rk.banks[i]
			b.nextAct = maxi64(b.nextAct, rk.refreshEnd)
		}
		rk.stats.Refreshes++
		c.stats.Refreshes++
		if c.tm != nil {
			c.tm.refreshes.Inc()
			c.tm.rankRefreshes[rk.idx].Inc()
			if stall := rk.refreshEnd - now; stall > 0 {
				c.tm.refreshStallCycles.Add(uint64(stall))
				c.tm.rankStallCycles[rk.idx].Add(uint64(stall))
			}
		}
	}
	c.scheduleRefresh(rk, due+c.tREFI)
	c.kick(rk.refreshEnd)
}

func (c *Channel) maybePowerDown(now int64) {
	if !c.AutoPowerDown {
		return
	}
	for i, rk := range c.ranks {
		if rk.poweredUp && rk.openBanks == 0 && now-rk.lastUse >= c.IdleThreshold {
			c.PowerDown(i)
		}
	}
}

func maxi64(vs ...int64) int64 {
	m := vs[0]
	for _, v := range vs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}
