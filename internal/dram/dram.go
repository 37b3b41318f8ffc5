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
//
// A warm channel allocates nothing per request. Submit draws the queued
// request from a per-channel free list and the channel returns it when its
// column command issues; the completion callback goes to the engine as it
// is. Per queue class (reads, writes) a bitmask holds the banks whose FIFO
// is non-empty, and the scheduler visits only those, in ascending bank
// index. The order of the visit is immaterial: among the candidates the
// winner is the request with the smallest id, ids are unique, and the
// earliest retry time is a minimum.
package dram

import (
	"fmt"
	"math/bits"
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

// request is one queued cache-line read or write.
type request struct {
	coord      Coord
	write      bool
	onComplete event.Func // fires when the data burst finishes; may be nil

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
	reads  []*request
	writes []*request
}

type rank struct {
	idx        int
	banks      []bank
	actTimes   [4]int64 // ring buffer of recent ACT issue times (tFAW)
	actIdx     int
	nextRead   int64 // write-to-read (tWTR) constraint, rank-wide
	refreshEnd int64
	refreshDue int64      // nominal time of the pending refresh event
	refreshFn  event.Func // bound once: c.refresh(rk)
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
	// read/write counts; FR-FCFS scans banks, not requests. Bit i of
	// readMask/writeMask (64 banks a word) is set while bank i's FIFO of
	// that class is non-empty.
	bq                  []bankList
	readMask, writeMask []uint64
	nReads              int
	nWrites             int
	free                []*request // issued requests, reused by Submit

	cmdBusFree  int64
	dataBusFree int64
	dataBusRank int
	nextWriteCh int64 // channel-wide read-to-write bus turnaround
	draining    bool
	nextID      uint64

	evalScheduled bool
	evalAt        int64
	evalHandle    event.Handle
	evalFn        event.Func // c.evaluate, bound once

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
		readLatency:        reg.Histogram("dram.read_latency", "chan", c.Name),
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
	c.readMask = make([]uint64, (len(c.bq)+63)/64)
	c.writeMask = make([]uint64, len(c.readMask))
	c.evalFn = c.evaluate
	for i := 0; i < ranksPerChannel; i++ {
		rk := &rank{
			idx:       i,
			banks:     make([]bank, org.BanksPerRank),
			poweredUp: true,
			stats:     &c.stats.PerRank[i],
		}
		rk.refreshFn = func(event.Time) { c.refresh(rk) }
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

// Submit enqueues one cache-line read or write of co. onComplete, if
// non-nil, fires when the data burst finishes.
func (c *Channel) Submit(co Coord, write bool, onComplete func(now event.Time)) {
	if co.Rank < 0 || co.Rank >= len(c.ranks) {
		panic(fmt.Sprintf("dram %s: rank %d out of range", c.Name, co.Rank))
	}
	if co.Bank < 0 || co.Bank >= len(c.ranks[0].banks) {
		panic(fmt.Sprintf("dram %s: bank %d out of range", c.Name, co.Bank))
	}
	if co.Col < 0 || co.Col >= c.linesPerRow {
		panic(fmt.Sprintf("dram %s: column %d out of range", c.Name, co.Col))
	}
	var r *request
	if n := len(c.free); n > 0 {
		r, c.free = c.free[n-1], c.free[:n-1]
	} else {
		r = new(request)
	}
	*r = request{coord: co, write: write, onComplete: onComplete, arrive: int64(c.eng.Now()), id: c.nextID}
	c.nextID++
	idx := c.bankIdx(co)
	bl := &c.bq[idx]
	if write {
		bl.writes = append(bl.writes, r)
		c.writeMask[idx/64] |= 1 << (idx % 64)
		c.nWrites++
	} else {
		bl.reads = append(bl.reads, r)
		c.readMask[idx/64] |= 1 << (idx % 64)
		c.nReads++
	}
	if c.tm != nil {
		c.tm.pending.Set(int64(c.Pending()))
	}
	c.wake(co.Rank)
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
		if (c.readMask[i/64]|c.writeMask[i/64])>>(i%64)&1 != 0 {
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
	c.evalHandle = c.eng.Schedule(event.Time(at), c.evalFn)
}

func (c *Channel) evaluate(at event.Time) {
	c.evalScheduled = false
	now := int64(at)
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

	var bestHit, bestMiss *request
	var bestHitPos int
	mask := c.readMask
	if isWrite {
		mask = c.writeMask
	}
	for w, word := range mask {
		for ; word != 0; word &= word - 1 {
			idx := w*64 + bits.TrailingZeros64(word)
			list := c.bq[idx].reads
			if isWrite {
				list = c.bq[idx].writes
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
					if list[i].coord.Row == b.row {
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
	}

	if bestHit != nil {
		rk := c.ranks[bestHit.coord.Rank]
		b := &rk.banks[bestHit.coord.Bank]
		c.removeAt(bestHit, bestHitPos)
		c.issueColumn(now, bestHit, rk, b, !bestHit.opened)
		c.free = append(c.free, bestHit)
		return true, 0
	}
	if bestMiss != nil {
		rk := c.ranks[bestMiss.coord.Rank]
		b := &rk.banks[bestMiss.coord.Bank]
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

// removeAt removes a request from its bank FIFO at a known position, clears
// the slot the shift vacates and, when the FIFO empties, the bank's mask bit.
func (c *Channel) removeAt(r *request, pos int) {
	idx := c.bankIdx(r.coord)
	list, mask, n := &c.bq[idx].reads, c.readMask, &c.nReads
	if r.write {
		list, mask, n = &c.bq[idx].writes, c.writeMask, &c.nWrites
	}
	last := len(*list) - 1
	copy((*list)[pos:], (*list)[pos+1:])
	(*list)[last] = nil
	*list = (*list)[:last]
	if last == 0 {
		mask[idx/64] &^= 1 << (idx % 64)
	}
	*n--
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

func (c *Channel) issueColumn(now int64, r *request, rk *rank, b *bank, hit bool) {
	c.cmdBusFree = now + c.ratio
	rankIdx := r.coord.Rank
	if c.Observer != nil {
		k := CmdRead
		if r.write {
			k = CmdWrite
		}
		c.Observer(event.Time(now), k, r.coord)
	}
	if r.write {
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

// complete schedules r's callback at the end of its data burst. The burst
// never ends in the past, so the time the engine passes is at.
func (c *Channel) complete(r *request, at int64) {
	if r.onComplete != nil {
		c.eng.Schedule(event.Time(at), r.onComplete)
	}
}

func (c *Channel) issueActivate(now int64, r *request, rk *rank, b *bank) {
	c.cmdBusFree = now + c.ratio
	if c.Observer != nil {
		c.Observer(event.Time(now), CmdActivate, r.coord)
	}
	if rk.openBanks == 0 {
		rk.accrue(now)
	}
	b.open = true
	b.row = r.coord.Row
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
	rk.refreshDue = at
	c.eng.Schedule(event.Time(at), rk.refreshFn)
}

func (c *Channel) refresh(rk *rank) {
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
	c.scheduleRefresh(rk, rk.refreshDue+c.tREFI)
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
