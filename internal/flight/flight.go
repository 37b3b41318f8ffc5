// Package flight is the always-on flight recorder of the functional stack:
// fixed-size, allocation-free ring buffers of what the cluster did last.
// When a chaos, crash or equivalence check goes red (or the serving front end
// sees an SLO breach), the harness dumps them as a Chrome-trace snapshot, so
// every failing run ships its own last-milliseconds trace without paying for
// full tracing on green runs.
//
// Two things are recorded, both on the one clock Now:
//
//   - Every iteration of the cluster's wave loop — pipelined, or the one-op
//     run behind a sequential access — is one WaveRecord. The coordinator
//     stamps each of its eight phase bounds once and hands the finished
//     record to the recorder, which keeps the most recent ones, and to the
//     blame collector, which folds it into its totals (internal/blame).
//   - Everything else is an Event on a ring: health transitions and link
//     retry/ARQ activity on the ring of the member they concern; checkpoints,
//     recoveries, re-homes, membership changes and reconstructions on the
//     coordinator's ring.
//
// Every ring has its own mutex, held by a writer for one store and by a dump
// for its copy, so a dump may run while the cluster is live: the serving
// front end dumps from handler goroutines and from inside a worker's
// exchange.
package flight

import (
	"io"
	"os"
	"sync"
	"time"

	"sdimm/internal/telemetry"
)

var epoch = time.Now()

// Now is the clock every functional-stack recorder reads: monotonic
// nanoseconds since the process started. Wave bounds, the blame collector's
// worker busy spans and ring events all come from it, so they compare
// directly.
func Now() uint64 { return uint64(time.Since(epoch)) }

// Phase identifies one interval of a wave-loop iteration. An iteration
// passes through all of them in this order; one that skips work (no
// previous wave to retire, no checkpoint due) closes the skipped phases at
// zero length, keeping the tiling exact. With no previous wave, retire.wait
// and finalize close with schedule, before the access shares run.
type Phase uint8

const (
	// PhaseSchedule is coordinator-side admission for the next wave:
	// conflict screening against the in-flight wave, position-map lookups,
	// every shared-RNG leaf draw in logical order, and the ACCESS fan-out
	// submit. It overlaps the previous wave's APPEND broadcast on the
	// workers.
	PhaseSchedule Phase = iota
	// PhaseRetireWait is the overlap payoff window: the coordinator waits
	// for the previous wave's APPEND broadcast and its batched journal
	// append while the new wave's ACCESS exchanges run on the workers.
	PhaseRetireWait
	// PhaseFinalize is the previous wave's retirement on the coordinator:
	// lost-append accounting, pooled re-homing, poison vetoes, and result
	// delivery.
	PhaseFinalize
	// PhaseAccessWait is the merge barrier: the coordinator waits for the
	// current wave's ACCESS exchanges (exchange, response decode, read
	// payload copy), so on a loaded pipeline it is worker-busy time, not
	// serialization. At Parallelism 1 with no wave to retire it is the
	// inline exchange.
	PhaseAccessWait
	// PhaseCommit is the commit walk over the finished ACCESS wave: each
	// executed op's position-map write, journal record construction and
	// decode-failure folding, in logical order.
	PhaseCommit
	// PhaseDispatch is the APPEND broadcast submit plus the journal
	// hand-off; the wave then retires during the next iteration's
	// PhaseRetireWait, or here when nothing is queued behind it.
	PhaseDispatch
	// PhaseCheckpoint is a checkpoint interval — zero-length on every
	// iteration that does not checkpoint. A checkpoint runs right after the
	// retirement that made it due, at a quiescent point, so this is honest
	// coordinator serialization.
	PhaseCheckpoint

	// NumPhases counts the phases; a record has NumPhases+1 bounds.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"schedule", "retire.wait", "finalize", "access.wait", "commit", "dispatch", "checkpoint",
}

// String returns the phase's stable name (used in reports, tests and dumps).
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// Coordinator reports whether the phase is coordinator-side work (as opposed
// to a wait on worker fan-out). The distinction is descriptive: with wave
// overlap even a wait can expose serialization and a coordinator phase can
// hide entirely behind worker execution.
func (p Phase) Coordinator() bool {
	return p != PhaseRetireWait && p != PhaseAccessWait
}

// WaveRecord is one wave's timing, stamped once by the coordinator that ran
// it. Bounds[p] and Bounds[p+1] are the start and end of phase p, so the
// phases are contiguous by construction and sum exactly to Wall. Idle[b] is
// the blame collector's all-workers-idle meter read at bound b, with the
// bound's own clock reading (zero without a collector).
type WaveRecord struct {
	Index  uint64 // the cluster's count of waves before this one
	Ops    int    // accesses the wave launched
	Bounds [NumPhases + 1]uint64
	Idle   [NumPhases + 1]uint64
}

// Wall returns the wave's wall-clock duration.
func (w *WaveRecord) Wall() uint64 { return w.Bounds[NumPhases] - w.Bounds[0] }

// PhaseDur returns the duration of phase p.
func (w *WaveRecord) PhaseDur(p Phase) uint64 { return w.Bounds[p+1] - w.Bounds[p] }

// IdleDur returns the all-workers-idle time inside phase p. A worker that
// read the clock before a bound may fold its reading in after it, so the
// meter difference is clamped to [0, PhaseDur(p)].
func (w *WaveRecord) IdleDur(p Phase) uint64 {
	if w.Idle[p+1] <= w.Idle[p] {
		return 0
	}
	return min(w.Idle[p+1]-w.Idle[p], w.PhaseDur(p))
}

// Kind tags one recorded event.
type Kind uint8

const (
	// KindHealth marks a health-state transition (A = from, B = to).
	KindHealth Kind = 1 + iota
	// KindRetry marks a link retry attempt (A = attempt number).
	KindRetry
	// KindRetransmit marks a device-side ARQ retransmission.
	KindRetransmit
	// KindResync marks a post-abandonment counter resync.
	KindResync
	// KindAbandon marks an exchange that exhausted its retry budget.
	KindAbandon
	// KindCheckpoint marks a durable checkpoint commit (A = sequence).
	KindCheckpoint
	// KindRecovery marks a finished recovery (A = records replayed,
	// B = buckets repaired).
	KindRecovery
	// KindRehome marks an in-flight block re-homed after its APPEND was
	// abandoned (A = address, B = the member it could not reach).
	KindRehome
	// KindDrainBegin and KindDrainCancel mark a drain starting and being
	// cancelled (A = member).
	KindDrainBegin
	KindDrainCancel
	// KindDetach marks a member removed from its slot (A = member, B =
	// addresses lost with it).
	KindDetach
	// KindJoin marks a slot repopulated (A = member, B = incarnation).
	KindJoin
	// KindReconstruct marks a Split read rebuilt from parity (A = address,
	// B = the member that was down).
	KindReconstruct
)

var kindNames = [...]string{
	KindHealth: "health", KindRetry: "retry", KindRetransmit: "retransmit",
	KindResync: "resync", KindAbandon: "abandon", KindCheckpoint: "checkpoint",
	KindRecovery: "recovery", KindRehome: "rehome", KindDrainBegin: "drain.begin",
	KindDrainCancel: "drain.cancel", KindDetach: "detach", KindJoin: "join",
	KindReconstruct: "reconstruct",
}

// String returns the kind's stable name (the dumped event name).
func (k Kind) String() string {
	if k > 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one recorded entry: its time on Now and kind-specific arguments.
type Event struct {
	TS   uint64
	Kind Kind
	A, B uint64
}

// ring is a fixed-size ring buffer whose put overwrites the oldest entry
// once full. Its length is a power of two.
type ring[T any] struct {
	mu  sync.Mutex
	buf []T
	n   uint64 // entries ever put
}

func (r *ring[T]) put(v T) {
	r.mu.Lock()
	r.buf[r.n&uint64(len(r.buf)-1)] = v
	r.n++
	r.mu.Unlock()
}

// snapshot copies the retained entries, oldest first, and returns the
// sequence number of the first.
func (r *ring[T]) snapshot() ([]T, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	first := r.n - min(r.n, uint64(len(r.buf)))
	out := make([]T, 0, r.n-first)
	for i := first; i < r.n; i++ {
		out = append(out, r.buf[i&uint64(len(r.buf)-1)])
	}
	return out, first
}

// Ring is one event ring. The nil Ring drops records.
type Ring struct{ ring[Event] }

// Record stores one event stamped now. Allocation-free.
func (r *Ring) Record(k Kind, a, b uint64) {
	if r != nil {
		r.put(Event{TS: Now(), Kind: k, A: a, B: b})
	}
}

// Events returns the retained events, oldest first (a copy).
func (r *Ring) Events() []Event {
	if r == nil {
		return nil
	}
	evs, _ := r.snapshot()
	return evs
}

// Recorder is a set of rings — one per member plus one for the coordinator
// — and the wave ring.
type Recorder struct {
	rings []Ring // members first, the coordinator's last
	waves ring[WaveRecord]
}

// New builds a recorder with `members` member rings plus a coordinator
// ring, each retaining `size` events (rounded up to a power of two; default
// 1024), and a wave ring retaining a quarter as many wave records.
func New(members, size int) *Recorder {
	if size <= 0 {
		size = 1024
	}
	n := 1
	for n < size {
		n <<= 1
	}
	r := &Recorder{rings: make([]Ring, members+1)}
	for i := range r.rings {
		r.rings[i].buf = make([]Event, n)
	}
	r.waves.buf = make([]WaveRecord, max(n/4, 1))
	return r
}

// Ring returns member i's ring. Nil-safe: a nil recorder, or an index with
// no member ring, returns a nil ring that drops records.
func (r *Recorder) Ring(i int) *Ring {
	if r == nil || i < 0 || i >= len(r.rings)-1 {
		return nil
	}
	return &r.rings[i]
}

// Coordinator returns the coordinator's ring.
func (r *Recorder) Coordinator() *Ring {
	if r == nil {
		return nil
	}
	return &r.rings[len(r.rings)-1]
}

// RecordWave stores a copy of a finished wave record. Allocation-free.
func (r *Recorder) RecordWave(w *WaveRecord) {
	if r != nil {
		r.waves.put(*w)
	}
}

// Waves returns the retained wave records, oldest first (a copy).
func (r *Recorder) Waves() []WaveRecord {
	if r == nil {
		return nil
	}
	ws, _ := r.waves.snapshot()
	return ws
}

// WriteTrace dumps the recorder as Chrome trace-event JSON (the schema
// telemetry.ValidateTrace checks), in microseconds on Now. Ring i becomes
// trace lane i and each event a zero-duration span named after its kind,
// carrying its ring, sequence and arguments. Each wave becomes a
// cluster.wave span on the coordinator's lane with one child span per
// non-empty phase. Safe while the rings are being written.
func (r *Recorder) WriteTrace(w io.Writer) error {
	tr := telemetry.NewTracer()
	if r != nil {
		for i := range r.rings {
			evs, seq := r.rings[i].snapshot()
			for _, ev := range evs {
				tr.CompleteArgs(i, "flight."+ev.Kind.String(), "flight", ev.TS/1e3, ev.TS/1e3,
					map[string]any{"ring": i, "seq": seq, "a": ev.A, "b": ev.B})
				seq++
			}
		}
		coord := len(r.rings) - 1
		waves, _ := r.waves.snapshot()
		for k := range waves {
			wr := &waves[k]
			tr.CompleteArgs(coord, "cluster.wave", "cluster", wr.Bounds[0]/1e3, wr.Bounds[NumPhases]/1e3,
				map[string]any{"index": wr.Index, "ops": wr.Ops})
			for p := Phase(0); p < NumPhases; p++ {
				if wr.PhaseDur(p) > 0 {
					tr.CompleteArgs(coord, p.String(), "cluster", wr.Bounds[p]/1e3, wr.Bounds[p+1]/1e3,
						map[string]any{"idle_ns": wr.IdleDur(p)})
				}
			}
		}
	}
	return tr.WriteJSON(w)
}

// DumpFile writes the trace snapshot to path (atomically enough for a
// post-mortem artifact: create, write, close).
func (r *Recorder) DumpFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
