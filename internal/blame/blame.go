// Package blame is the wave-level critical-path profiler for the cluster
// pipeline. The coordinator stamps every wave once, into a
// flight.WaveRecord whose phase intervals are contiguous — each phase starts
// exactly where the previous one ended, so they tile the wave's wall-clock
// with nothing left over — and the collector folds each finished record into
// its totals. Because waves overlap (wave N retires while wave N+1's path
// reads run), a phase interval alone does not say whether the workers were
// idle; the collector therefore also keeps a live count of in-flight worker
// tasks and meters the wall-clock during which that count is zero, and the
// coordinator reads that meter at every bound it stamps. Folding the
// readings against the bounds yields the serialization ledger: for each
// phase, how much wall-clock the pipeline measurably spent with every worker
// idle. That ledger is the machine-readable explanation of the parallel
// engine's speedup curve — if "commit" and "dispatch" dominate it, adding
// workers cannot help, because the coordinator is the bottleneck.
//
// The collector is deliberately invisible to the determinism-equivalence
// suites: it draws no randomness, touches no telemetry registry, and its
// clock reads (flight.Now) never feed back into scheduling. Attaching or
// detaching a collector cannot change a single bit of cluster state.
package blame

import (
	"sort"
	"sync"

	"sdimm/internal/flight"
)

// WorkerKind classifies a worker task for the busy totals.
type WorkerKind uint8

const (
	// WorkerAccess is one access in a member's access share (an ACCESS
	// exchange, or a Split member's shard access).
	WorkerAccess WorkerKind = iota
	// WorkerAppend is post-commit work: an APPEND broadcast task (one per
	// SDIMM per wave, plus pooled re-home appends) or a Split member's
	// share of an eviction round.
	WorkerAppend

	numWorkerKinds
)

// Collector folds finished wave records and runs the live worker-idle
// meter. Every worker task (from any wave, since waves overlap) brackets
// itself with WorkerBegin/WorkerEnd; the coordinator reads the meter at each
// bound it stamps and hands over the finished record with Fold. Everything
// happens under one mutex, so Report may be called concurrently with a
// running pipeline.
type Collector struct {
	mu     sync.Mutex
	waves  uint64
	ops    uint64
	wallNS uint64

	phaseNS [flight.NumPhases]uint64
	idleNS  [flight.NumPhases]uint64 // measured all-idle, folded per phase
	busyNS  [numWorkerKinds]uint64

	// The all-idle meter: active counts in-flight worker tasks; while it is
	// zero, wall-clock accrues into idleTotal from idleStart. Waves read the
	// running total at each bound, so idle time between waves never lands
	// in any phase's ledger entry.
	active    int
	idleStart uint64
	idleTotal uint64
}

// NewCollector builds a collector. Both arguments, once the member count and
// a ring size, size nothing and are ignored: the flight recorder keeps the
// recent wave records.
func NewCollector(_, _ int) *Collector { return &Collector{} }

// Idle reads the all-idle meter at now — a reading of flight.Now taken by
// the caller, who stamps the same reading as the wave bound. Nil-safe: 0.
func (c *Collector) Idle(now uint64) uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.idleAt(now)
}

// idleAt returns the meter's value as of now; c.mu held.
func (c *Collector) idleAt(now uint64) uint64 {
	if c.active == 0 && now > c.idleStart {
		return c.idleTotal + now - c.idleStart
	}
	return c.idleTotal
}

// WorkerBegin marks one worker task entering execution and returns its
// start stamp. Nil-safe: returns 0 on a nil collector (the matching
// WorkerEnd then no-ops too).
func (c *Collector) WorkerBegin() uint64 {
	if c == nil {
		return 0
	}
	return c.workerBegin(flight.Now())
}

func (c *Collector) workerBegin(now uint64) uint64 {
	c.mu.Lock()
	c.idleTotal = c.idleAt(now)
	c.active++
	c.mu.Unlock()
	return now
}

// WorkerEnd marks the task begun at start as finished, accruing its span
// into the kind's busy total. When it was the last in-flight task, the
// all-idle meter starts running.
func (c *Collector) WorkerEnd(kind WorkerKind, start uint64) {
	if c != nil {
		c.workerEnd(kind, start, flight.Now())
	}
}

func (c *Collector) workerEnd(kind WorkerKind, start, now uint64) {
	c.mu.Lock()
	if now > start {
		c.busyNS[kind] += now - start
	}
	if c.active > 0 {
		c.active--
	}
	if c.active == 0 {
		c.idleStart = now
	}
	c.mu.Unlock()
}

// Fold adds one finished wave record to the totals and the ledger.
// Nil-safe.
func (c *Collector) Fold(rec *flight.WaveRecord) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.waves++
	c.ops += uint64(rec.Ops)
	c.wallNS += rec.Wall()
	for p := flight.Phase(0); p < flight.NumPhases; p++ {
		c.phaseNS[p] += rec.PhaseDur(p)
		c.idleNS[p] += rec.IdleDur(p)
	}
}

// PhaseStat is one phase's aggregate across every recorded iteration.
type PhaseStat struct {
	Phase       string  `json:"phase"`
	Coordinator bool    `json:"coordinator"`
	TotalNS     uint64  `json:"total_ns"`
	Share       float64 `json:"share_of_wall"`
	MeanNSWave  float64 `json:"mean_ns_per_wave"`
	// AllIdleNS is the measured wall-clock inside this phase during which
	// zero worker tasks were in flight — the phase's true serialization
	// contribution.
	AllIdleNS uint64 `json:"all_idle_ns"`
}

// LedgerEntry ranks one serialization source: measured all-workers-idle
// wall-clock attributed to the phase.
type LedgerEntry struct {
	Phase        string  `json:"phase"`
	SerializedNS uint64  `json:"serialized_ns"`
	Share        float64 `json:"share_of_wall"`
}

// Report is the collector's aggregate view — what `sdimm-bench -exp blame`
// prints and the benchmark's pipeline.* metrics are derived from.
type Report struct {
	Waves  uint64 `json:"waves"`
	Ops    uint64 `json:"ops"`
	WallNS uint64 `json:"wall_ns"`
	// AttributedNS is the wall-clock covered by named phase intervals.
	// Phases are contiguous by construction, so the attribution ratio is
	// exactly 1.0 — asserted, not assumed, by the wave-tiling test.
	AttributedNS     uint64      `json:"attributed_ns"`
	AttributionRatio float64     `json:"attribution_ratio"`
	Phases           []PhaseStat `json:"phases"`
	// AccessBusyNS/AppendBusyNS total worker task time by kind, across all
	// overlapping waves — the denominator for judging how much of the
	// wall-clock the fan-outs actually covered.
	AccessBusyNS uint64 `json:"access_busy_ns"`
	AppendBusyNS uint64 `json:"append_busy_ns"`
	// Ledger ranks every phase by measured all-workers-idle wall-clock —
	// the time the pipeline ran with no worker task in flight.
	Ledger []LedgerEntry `json:"serialization_ledger"`
	// SerializedNS totals the ledger; SerializedShare is its fraction of
	// wall-clock — the upper bound Amdahl's law puts on pipeline speedup.
	SerializedNS    uint64  `json:"serialized_ns"`
	SerializedShare float64 `json:"serialized_share"`
	TopBottleneck   string  `json:"top_bottleneck"`
	// MaxSpeedup is 1/SerializedShare-bounded ideal speedup at infinite
	// workers (Amdahl), explaining the measured speedup curve.
	MaxSpeedup float64 `json:"max_speedup_amdahl"`
}

// Report aggregates everything recorded so far.
func (c *Collector) Report() Report {
	if c == nil {
		return Report{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	r := Report{
		Waves:        c.waves,
		Ops:          c.ops,
		WallNS:       c.wallNS,
		AccessBusyNS: c.busyNS[WorkerAccess],
		AppendBusyNS: c.busyNS[WorkerAppend],
	}
	for p := flight.Phase(0); p < flight.NumPhases; p++ {
		r.AttributedNS += c.phaseNS[p]
	}
	if r.WallNS > 0 {
		r.AttributionRatio = float64(r.AttributedNS) / float64(r.WallNS)
	}
	for p := flight.Phase(0); p < flight.NumPhases; p++ {
		ps := PhaseStat{
			Phase:       p.String(),
			Coordinator: p.Coordinator(),
			TotalNS:     c.phaseNS[p],
			AllIdleNS:   c.idleNS[p],
		}
		if r.WallNS > 0 {
			ps.Share = float64(c.phaseNS[p]) / float64(r.WallNS)
		}
		if c.waves > 0 {
			ps.MeanNSWave = float64(c.phaseNS[p]) / float64(c.waves)
		}
		le := LedgerEntry{Phase: p.String(), SerializedNS: c.idleNS[p]}
		if r.WallNS > 0 {
			le.Share = float64(c.idleNS[p]) / float64(r.WallNS)
		}
		r.Ledger = append(r.Ledger, le)
		r.SerializedNS += c.idleNS[p]
		r.Phases = append(r.Phases, ps)
	}
	sort.SliceStable(r.Ledger, func(i, j int) bool {
		return r.Ledger[i].SerializedNS > r.Ledger[j].SerializedNS
	})
	if len(r.Ledger) > 0 {
		r.TopBottleneck = r.Ledger[0].Phase
	}
	if r.WallNS > 0 {
		r.SerializedShare = float64(r.SerializedNS) / float64(r.WallNS)
	}
	if r.SerializedShare > 0 {
		r.MaxSpeedup = 1 / r.SerializedShare
	}
	return r
}
