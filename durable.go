package sdimm

import (
	"errors"
	"fmt"
	"sort"

	"sdimm/internal/durable"
	"sdimm/internal/fault"
	"sdimm/internal/flight"
	"sdimm/internal/oram"
	"sdimm/internal/rng"
	isdimm "sdimm/internal/sdimm"
)

// This file wires crash consistency (internal/durable) into the cluster, on
// either protocol: journaling at the commit point, periodic checkpoints, and the
// recovery sequence restore → scrub → replay → probation. See DESIGN.md,
// "Durability & crash recovery", for the invariants.

// ErrUnrecoverable marks a block whose payload was lost to on-disk
// corruption that no redundancy could repair. Reads of such a block fail
// with this error (never silently return zeros); a successful write heals
// the address.
var ErrUnrecoverable = errors.New("sdimm: block lost to unrecoverable corruption")

// ErrStateExists is returned (wrapped) by NewCluster when the state
// directory already holds checkpoints: the directory belongs to
// RecoverCluster, and a caller that restarts on it tests for this with
// errors.Is.
var ErrStateExists = errors.New("sdimm: state directory already holds checkpoints")

// DurabilityOptions configures a cluster's crash consistency.
type DurabilityOptions struct {
	// Dir is the state directory (checkpoints + journal). One directory
	// belongs to one cluster shape; recovery refuses mismatches.
	Dir string
	// Key authenticates every durable file (HMAC). Empty derives a key from
	// the cluster key — fine for simulation, but state then shares trust
	// with the bucket keys.
	Key []byte
	// Interval is the checkpoint cadence in committed accesses (default
	// 256). Recovery replays at most this many journal records.
	Interval int
	// Sync fsyncs every commit, and every checkpoint with the state
	// directory. Off by default: the chaos harness simulates crashes by
	// tearing the journal itself, and seeded sweeps stay fast.
	Sync bool
}

func (o *DurabilityOptions) withDefaults(clusterKey []byte) DurabilityOptions {
	d := *o
	if len(d.Key) == 0 {
		d.Key = append([]byte("durable|"), clusterKey...)
	}
	if d.Interval <= 0 {
		d.Interval = 256
	}
	return d
}

// fingerprint pins a cluster's shape. opts must be defaulted.
// Ring-eviction clusters get their own kind (including the flush interval):
// their engines hold extra durable state (eviction pointer, dead-slot masks)
// that a path-mode recovery could not interpret.
func fingerprint(opts ClusterOptions) durable.Fingerprint {
	kind := "independent"
	switch {
	case opts.Split:
		kind = "split"
	case opts.RingFlushInterval > 0:
		kind = fmt.Sprintf("independent-ring%d", opts.RingFlushInterval)
	}
	return durable.Fingerprint{
		Kind:      kind,
		Members:   opts.SDIMMs,
		Levels:    opts.Levels,
		BlockSize: opts.BlockSize,
		Z:         opts.Z,
		Seed:      opts.Seed,
		Parity:    opts.Parity,
	}
}

// durableState is the part of the cluster every checkpoint captures: the
// host-side ORAM state (position map, shared RNG, the members and their
// health) with its telemetry handles, and the durability bookkeeping around
// it. seq counts committed logical records of every kind
// (workload accesses, migration steps, topology changes); poisoned tracks
// addresses lost to unrecoverable corruption (always allocated, usually
// empty).
type durableState struct {
	pos oram.PositionMap
	rnd *rng.Source
	// members is the member list — Independent: one secure buffer per SDIMM;
	// Split: the data shards, then the parity member when there is one — and
	// health its index-aligned health records.
	members []*isdimm.Buffer
	health  []*fault.Health
	// mkMember builds incarnation inc of slot i and installs it in place.
	// Set by the protocol's builder; used for the founding members, by joins
	// and replacements, and by checkpoint restore when the checkpointed
	// incarnation differs from the founding one.
	mkMember func(i int, inc uint64) error
	tm       clusterTelemetry
	flight   *flight.Recorder // nil: nothing recorded

	dur        *durable.Manager
	interval   int
	seq        uint64
	lastCkpt   uint64
	replaying  bool
	poisoned   map[uint64]bool
	recScratch [1]durable.Record // appendOne's singleton batch

	// Elastic-membership bookkeeping. migSeq/topoSeq partition seq so
	// drivers can recover their workload position from durable state alone:
	// WorkloadSeq() = seq - migSeq - topoSeq. At most one drain runs at a
	// time; drainMember is -1 outside a drain.
	migSeq       uint64
	topoSeq      uint64
	drainMember  int
	drainMoved   uint64
	incarnations []uint64 // per-slot join count (0 = founding member)
	detached     []bool   // slots whose member was removed, not yet replaced
}

// initElastic sets up the elastic-membership fields for members slots.
// Called by buildCluster (the zero value of drainMember would
// otherwise mean "slot 0 is draining").
func (d *durableState) initElastic(members int) {
	d.drainMember = -1
	d.incarnations = make([]uint64, members)
	d.detached = make([]bool, members)
}

// Seq returns the number of committed logical records (workload accesses
// plus migration and topology records). With durability attached, every
// record with sequence number ≤ Seq survives a crash.
func (d *durableState) Seq() uint64 { return d.seq }

// WorkloadSeq returns the number of committed workload accesses — Seq
// minus the migration and topology records sharing the stream. Drivers use
// it to locate their position in an operation list after recovery.
func (d *durableState) WorkloadSeq() uint64 { return d.seq - d.migSeq - d.topoSeq }

// MigrationSeq returns the lifetime count of committed migration steps.
func (d *durableState) MigrationSeq() uint64 { return d.migSeq }

// Draining reports the member currently being drained (-1 if none) and how
// many migration steps have committed for that drain.
func (d *durableState) Draining() (member int, moved uint64) {
	return d.drainMember, d.drainMoved
}

// Incarnation returns how many times slot i has been (re)populated: 0 for
// the founding member, +1 per join.
func (d *durableState) Incarnation(i int) uint64 {
	if i < 0 || i >= len(d.incarnations) {
		return 0
	}
	return d.incarnations[i]
}

// Detached reports whether slot i's member was removed and not replaced.
func (d *durableState) Detached(i int) bool {
	return i >= 0 && i < len(d.detached) && d.detached[i]
}

// Positions snapshots the position map as addr → leaf (the global leaf for
// an Independent cluster). The determinism-equivalence harness compares
// these across engines.
func (d *durableState) Positions() map[uint64]uint64 {
	out := make(map[uint64]uint64, d.pos.Len())
	d.pos.Each(func(a, l uint64) { out[a] = l })
	return out
}

// StashLens reports each member's stash occupancy (monitoring). On a Split
// cluster the invariant is that they are all identical, the parity member's
// included.
func (d *durableState) StashLens() []int {
	out := make([]int, len(d.members))
	for i, b := range d.members {
		out[i] = b.Engine().StashLen()
	}
	return out
}

// wrapErr attributes err to member i: every error leaving a member
// operation carries the member's index and ID.
func (d *durableState) wrapErr(i int, op string, err error) error {
	return &fault.SDIMMError{Index: i, ID: d.members[i].ID(), Op: op, Err: err}
}

// failed returns the durability manager's latched failure — a planned crash
// point (durable.ErrCrashed) or a real journal or checkpoint write error —
// after which the cluster is "dead" and refuses further work with it.
func (d *durableState) failed() error {
	if d.dur == nil {
		return nil
	}
	return d.dur.Err()
}

// attachDurability opens the state directory. Shared by construction and
// recovery.
func (d *durableState) attachDurability(opts *DurabilityOptions, fp durable.Fingerprint, clusterKey []byte) error {
	do := opts.withDefaults(clusterKey)
	m, err := durable.Open(do.Dir, do.Key, fp, fp.BlockSize, do.Sync)
	if err != nil {
		return err
	}
	d.dur = m
	d.interval = do.Interval
	return nil
}

// makeRecord advances the committed sequence for one access and returns its
// journal record. A committed write heals a poisoned address — the lost
// payload is fully overwritten. A migrate read (a rebalance migration step)
// journals as KindMigrate and advances the drain progress instead of the
// workload count.
func (d *durableState) makeRecord(addr uint64, op oram.Op, data []byte, migrate bool) durable.Record {
	d.seq++
	kind := durable.KindRead
	if op == oram.OpWrite {
		delete(d.poisoned, addr)
		kind = durable.KindWrite
	} else if migrate {
		kind = durable.KindMigrate
		d.migSeq++
		if d.drainMember >= 0 {
			d.drainMoved++
		}
	}
	return durable.Record{Seq: d.seq, Addr: addr, Kind: kind, Data: data}
}

// commitTopoRecord journals one topology change (drain begin/end, join) at
// its commit point. Topology records carry the member slot in Addr and no
// payload; they advance seq and topoSeq so WorkloadSeq stays the pure
// workload count. During replay the in-memory apply already happened, so
// only the counters advance.
func (d *durableState) commitTopoRecord(kind durable.RecordKind, member int) error {
	d.seq++
	d.topoSeq++
	return d.appendOne(durable.Record{Seq: d.seq, Addr: uint64(member), Kind: kind})
}

// appendOne journals a single record. No-op without durability and during
// replay, like appendRecords.
func (d *durableState) appendOne(rec durable.Record) error {
	if d.dur == nil || d.replaying {
		return nil
	}
	// Singleton batch in place: the record is encoded synchronously, so the
	// scratch (and its payload reference) is dropped before return.
	d.recScratch[0] = rec
	err := d.dur.Append(d.recScratch[:])
	d.recScratch[0] = durable.Record{}
	return err
}

// appendRecords journals a batch of records made by makeRecord. No-op
// without durability and during replay (replay re-executes history that is
// already on disk).
func (d *durableState) appendRecords(recs []durable.Record) error {
	if d.dur == nil || d.replaying || len(recs) == 0 {
		return nil
	}
	return d.dur.Append(recs)
}

// checkpointDue reports that the checkpoint interval has elapsed. The
// pipeline polls it at wave boundaries to decide when to stall the schedule
// and drain for a quiescent capture; the sequential path checks it through
// maybeCheckpoint after every access.
func (d *durableState) checkpointDue() bool {
	return d.dur != nil && !d.replaying && d.seq-d.lastCkpt >= uint64(d.interval)
}

// maybeCheckpoint takes the checkpoint when the interval has elapsed.
func (c *Cluster) maybeCheckpoint() error {
	if !c.checkpointDue() {
		return nil
	}
	return c.ForceCheckpoint()
}

// PlanCrash arms a simulated crash after afterRecords more journal records,
// tearing the next record at tearBytes bytes (chaos harness hook).
func (d *durableState) PlanCrash(afterRecords, tearBytes int) error {
	if d.dur == nil {
		return errors.New("sdimm: PlanCrash without durability")
	}
	d.dur.PlanCrash(afterRecords, tearBytes)
	return nil
}

// capturePositions snapshots a position map sorted by address.
func capturePositions(pos oram.PositionMap) []durable.PosEntry {
	out := make([]durable.PosEntry, 0, pos.Len())
	pos.Each(func(a, l uint64) { out = append(out, durable.PosEntry{Addr: a, Value: l}) })
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// sortedKeys lists a set's members ascending: the poison set for a
// checkpoint, bucket indices for the scrubs — whose work (and any RNG-free
// repair decision) must not depend on map order.
func sortedKeys(set map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// memStore unwraps a buffer's functional store.
func memStore(b *isdimm.Buffer) *oram.MemStore {
	return b.Engine().Store().(*oram.MemStore)
}

// captureMember snapshots one buffer (and its health record) into
// checkpoint form.
func captureMember(b *isdimm.Buffer, h *fault.Health) durable.MemberState {
	m := durable.MemberState{
		EngineRNG: b.Engine().RandState(),
		BufferRNG: b.RandState(),
		Stash:     b.Engine().StashBlocks(),
		Transfer:  b.TransferBlocks(),
		Ring:      b.Engine().RingState(),
	}
	ms := memStore(b)
	for _, idx := range ms.BucketIndices() {
		raw, _ := ms.RawBucket(idx)
		m.Buckets = append(m.Buckets, durable.BucketState{Idx: idx, Raw: raw})
	}
	succ, fail := h.Totals()
	m.Health = durable.HealthState{
		State:       int(h.State()),
		Consecutive: h.Consecutive(),
		Successes:   succ,
		Failures:    fail,
	}
	return m
}

// restoreMember loads one buffer (and its health record) from checkpoint
// form.
func restoreMember(b *isdimm.Buffer, h *fault.Health, m durable.MemberState) error {
	b.Engine().RestoreRandState(m.EngineRNG)
	b.RestoreRandState(m.BufferRNG)
	if err := b.Engine().RestoreStash(m.Stash); err != nil {
		return err
	}
	if err := b.RestoreTransfer(m.Transfer); err != nil {
		return err
	}
	if err := b.Engine().RestoreRingState(m.Ring); err != nil {
		return err
	}
	ms := memStore(b)
	for _, bk := range m.Buckets {
		if err := ms.RestoreRaw(bk.Idx, bk.Raw); err != nil {
			return err
		}
	}
	h.Restore(fault.State(m.Health.State), m.Health.Consecutive, m.Health.Successes, m.Health.Failures)
	return nil
}

// createDurable is the durable tail of construction: the state directory
// must be empty (recovering an existing one is RecoverCluster's job —
// silently reinitializing it would clobber recoverable state) and a genesis
// checkpoint is written before the cluster accepts traffic.
func (c *Cluster) createDurable(opts ClusterOptions) error {
	if err := c.attachDurability(opts.Durability, fingerprint(opts), opts.Key); err != nil {
		return err
	}
	if c.dur.HasState() {
		return fmt.Errorf("%w: %s; use RecoverCluster", ErrStateExists, opts.Durability.Dir)
	}
	return c.ForceCheckpoint()
}

// RecoverCluster rebuilds a durable cluster from its state directory on a
// freshly built one (new link sessions): open the state directory, load the
// newest valid checkpoint, scrub every bucket's tag, replay the journal to
// the last committed access, put all members into Recovering probation, and
// persist a post-recovery checkpoint — only then is traffic admitted.
//
// The scrub runs before replay on purpose: replay re-executes accesses
// against the restored image, so the image must be navigable first, and a
// replayed write to a poisoned address heals it exactly as the original
// execution did.
func RecoverCluster(opts ClusterOptions) (*Cluster, *durable.RecoveryReport, error) {
	opts = opts.withDefaults()
	if opts.Durability == nil {
		return nil, nil, errors.New("sdimm: RecoverCluster requires Durability options")
	}
	c, err := buildCluster(opts)
	if err != nil {
		return nil, nil, err
	}
	report, err := c.recoverDurable(opts)
	if err != nil {
		c.Close()
		return nil, nil, err
	}
	return c, report, nil
}

// recoverDurable is RecoverCluster's sequence on the built cluster.
func (c *Cluster) recoverDurable(opts ClusterOptions) (*durable.RecoveryReport, error) {
	if err := c.attachDurability(opts.Durability, fingerprint(opts), opts.Key); err != nil {
		return nil, err
	}
	cp, recs, report, err := c.dur.Recover()
	if err != nil {
		return nil, err
	}
	if err := c.restoreCheckpoint(cp); err != nil {
		return nil, err
	}
	if err := c.st.scrub(report); err != nil {
		return nil, err
	}
	c.replaying = true // left set by a failed replay: the caller discards the cluster
	for _, rec := range recs {
		if rec.Seq != c.seq+1 {
			return nil, fmt.Errorf("sdimm: replay record %d does not follow committed seq %d", rec.Seq, c.seq)
		}
		if err := c.replayRecord(rec); err != nil {
			return nil, fmt.Errorf("sdimm: replay record %d (seq %d, kind %d): %w", rec.Addr, rec.Seq, rec.Kind, err)
		}
		c.tm.replayed.Inc()
	}
	c.replaying = false
	for _, h := range c.health {
		h.MarkRecovering()
	}
	if err := c.ForceCheckpoint(); err != nil {
		return nil, err
	}
	c.tm.scrubScanned.Add(uint64(report.BucketsScanned))
	c.tm.scrubRepaired.Add(uint64(report.BucketsRepaired))
	c.tm.scrubUnrecoverable.Add(uint64(report.BucketsUnrecoverable))
	c.flight.Coordinator().Record(flight.KindRecovery, uint64(report.RecordsReplayed), uint64(report.BucketsRepaired))
	return report, nil
}

// ForceCheckpoint captures the cluster's full state — the shared head plus
// one MemberState per member, with its link counters when there are links —
// and persists it, rotating the journal. Callable any time the cluster is
// quiescent.
func (c *Cluster) ForceCheckpoint() error {
	if c.dur == nil {
		return errors.New("sdimm: ForceCheckpoint without durability")
	}
	cp := &durable.Checkpoint{
		Seq:       c.seq,
		RNG:       c.rnd.State(),
		Positions: capturePositions(c.pos),
		Poisoned:  sortedKeys(c.poisoned),
		MigSeq:    c.migSeq,
		TopoSeq:   c.topoSeq,
	}
	if c.drainMember >= 0 {
		cp.Drains = []durable.DrainState{{Member: uint64(c.drainMember), Moved: c.drainMoved}}
	}
	for i, b := range c.members {
		m := captureMember(b, c.health[i])
		m.Incarnation = c.incarnations[i]
		m.Detached = c.detached[i]
		if c.links != nil {
			m.HostSend = c.links[i].Host.SendCounter()
			m.HostRecv = c.links[i].Host.RecvCounter()
			m.DevSend = c.links[i].Dev.SendCounter()
			m.DevRecv = c.links[i].Dev.RecvCounter()
		}
		cp.Members = append(cp.Members, m)
	}
	if err := c.dur.WriteCheckpoint(cp); err != nil {
		return err
	}
	c.lastCkpt = c.seq
	c.tm.checkpoints.Inc()
	c.flight.Coordinator().Record(flight.KindCheckpoint, c.seq, 0)
	return nil
}

// restoreCheckpoint loads cp into the (freshly built) cluster: the head,
// then every member with its detach flag and, when there are links, their
// counters. The links run fresh post-restart ECDH sessions (new keys, so
// restored counters can never reuse a pad); restoring the counters forward
// keeps both endpoints in lockstep and the counters monotonic across the
// crash.
func (c *Cluster) restoreCheckpoint(cp *durable.Checkpoint) error {
	if len(cp.Members) != len(c.members) {
		return fmt.Errorf("sdimm: checkpoint has %d members, cluster has %d", len(cp.Members), len(c.members))
	}
	c.seq = cp.Seq
	c.lastCkpt = cp.Seq
	c.rnd.Restore(cp.RNG)
	for _, p := range cp.Positions {
		c.pos.Set(p.Addr, p.Value)
	}
	c.poisoned = make(map[uint64]bool, len(cp.Poisoned))
	for _, a := range cp.Poisoned {
		c.poisoned[a] = true
	}
	c.migSeq = cp.MigSeq
	c.topoSeq = cp.TopoSeq
	c.drainMember, c.drainMoved = -1, 0
	if len(cp.Drains) > 0 {
		if len(cp.Drains) > 1 {
			return fmt.Errorf("sdimm: checkpoint records %d concurrent drains, at most 1 supported", len(cp.Drains))
		}
		c.drainMember = int(cp.Drains[0].Member)
		c.drainMoved = cp.Drains[0].Moved
		if c.drainMember < 0 || c.drainMember >= len(c.members) {
			return fmt.Errorf("sdimm: checkpoint drain member %d out of range", c.drainMember)
		}
	}
	for i, m := range cp.Members {
		// A member that joined after the founding generation has
		// incarnation-derived store keys (and, on an Independent cluster, a
		// distinct device identity) — rebuild it before restoring its state
		// into place.
		if m.Incarnation != c.incarnations[i] {
			if err := c.mkMember(i, m.Incarnation); err != nil {
				return err
			}
			c.incarnations[i] = m.Incarnation
		}
		if err := restoreMember(c.members[i], c.health[i], m); err != nil {
			return err
		}
		c.detached[i] = m.Detached
		if c.links != nil {
			if err := c.links[i].Host.RestoreCounters(m.HostSend, m.HostRecv); err != nil {
				return err
			}
			if err := c.links[i].Dev.RestoreCounters(m.DevSend, m.DevRecv); err != nil {
				return err
			}
		}
	}
	return nil
}

// CorruptBucket flips a ciphertext bit in the k-th materialized bucket
// (sorted by index) of the given member's store and returns the bucket index
// (chaos harness hook for scrub testing; a Split cluster's parity member is
// member SDIMMs). False when the member is out of range or has no
// materialized buckets.
func (d *durableState) CorruptBucket(member, k int) (uint64, bool) {
	if member < 0 || member >= len(d.members) {
		return 0, false
	}
	ms := memStore(d.members[member])
	idxs := ms.BucketIndices()
	if len(idxs) == 0 {
		return 0, false
	}
	idx := idxs[k%len(idxs)]
	return idx, ms.Corrupt(idx)
}

// scrub is the Independent recovery's integrity pass over every member's
// tree (a Split cluster repairs from parity instead, see
// splitStages.scrub): verify every materialized bucket, quarantine the ones whose tag fails, and
// poison any mapped address whose block can no longer be found anywhere
// (corrupt bucket on its path, not in the stash or transfer queue). The
// Independent protocol has no cross-SDIMM redundancy, so a corrupt bucket
// is always unrecoverable — the pass bounds the damage to provably-lost
// addresses and keeps the tree navigable.
func (s independentStages) scrub(report *durable.RecoveryReport) error {
	c := s.c
	corrupt := make([]map[uint64]bool, len(c.members))
	for i, b := range c.members {
		ms := memStore(b)
		for _, idx := range ms.BucketIndices() {
			report.BucketsScanned++
			if _, err := ms.ReadBucket(idx); err != nil {
				if !errors.Is(err, oram.ErrIntegrity) {
					return err
				}
				if corrupt[i] == nil {
					corrupt[i] = make(map[uint64]bool)
				}
				corrupt[i][idx] = true
			}
		}
	}
	for i, set := range corrupt {
		if len(set) == 0 {
			continue
		}
		ms := memStore(c.members[i])
		for _, idx := range sortedKeys(set) {
			// Quarantine: overwrite with an all-dummy bucket so path reads
			// stay serviceable. The lost contents are handled by poisoning.
			if err := ms.WriteBucket(idx, oram.NewBucket(ms.Z())); err != nil {
				return err
			}
			report.BucketsUnrecoverable++
		}
	}

	// Poison pass, in sorted address order (no RNG, so recovery stays
	// deterministic): an address is lost iff a corrupt bucket lay on its
	// path and the block is in neither the stash, the transfer queue, nor a
	// healthy path bucket.
	mask := uint64(1)<<c.localBits - 1
	for _, e := range capturePositions(c.pos) {
		sd := int(e.Value >> c.localBits)
		set := corrupt[sd]
		if len(set) == 0 {
			continue
		}
		b := c.members[sd]
		path := b.Engine().Geometry().Path(e.Value&mask, nil)
		touched := false
		for _, idx := range path {
			if set[idx] {
				touched = true
				break
			}
		}
		if !touched {
			continue
		}
		if _, ok := b.Engine().StashGet(e.Addr); ok {
			continue
		}
		if _, ok := b.TransferQueueSearch(e.Addr); ok {
			continue
		}
		found := false
		ms := memStore(b)
		for _, idx := range path {
			if set[idx] {
				continue
			}
			// Ring engines invalidate slots in place when a read lifts the
			// block; a dead slot is a stale copy, not a live one.
			dead := b.Engine().RingInvalidSlots(idx)
			bkt, err := ms.ReadBucket(idx)
			if err != nil {
				return err
			}
			for si, slot := range bkt.Slots {
				if slot.Addr == e.Addr && dead&(1<<uint(si)) == 0 {
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		if !found {
			c.poisoned[e.Addr] = true
			report.Poisoned = append(report.Poisoned, e.Addr)
		}
	}
	return nil
}

// replayRecord re-executes one journal record during recovery. A Split
// journal holds only reads, writes and replacements (KindJoin): the
// protocol has no routing, so drains and migrations never occur.
func (c *Cluster) replayRecord(rec durable.Record) (err error) {
	switch rec.Kind {
	case durable.KindRead:
		err = c.access(BatchOp{Addr: rec.Addr}).Err
	case durable.KindWrite:
		err = c.access(BatchOp{Addr: rec.Addr, Write: true, Data: rec.Data}).Err
	case durable.KindMigrate:
		err = c.access(BatchOp{Addr: rec.Addr, Migrate: true}).Err
	case durable.KindDrainBegin:
		err = c.applyDrainBegin(int(rec.Addr))
	case durable.KindDrainEnd:
		err = c.applyDetach(int(rec.Addr))
	case durable.KindJoin:
		err = c.applyJoin(int(rec.Addr))
	default:
		err = fmt.Errorf("sdimm: unknown record kind %d", rec.Kind)
	}
	return err
}

// scrub is the Split recovery's integrity pass. It verifies every live
// member's buckets and repairs a corrupt one from the others (see
// rebuildBucket). A Failed member is neither scanned nor a source: its tree
// stopped at the fail-stop, so its buckets are stale however valid their
// tags. A corrupt bucket is repairable only when there is a parity member
// and every other member is live with a verified copy; anything less — no
// parity, a second corrupt copy, a member already down — is a loss the XOR
// cannot cover, so the corrupt members are marked Failed and the damage is
// reported unrecoverable, never "repaired".
func (s *splitStages) scrub(report *durable.RecoveryReport) error {
	c := s.c
	live := func(i int) bool { return c.health[i].State() != fault.Failed }
	idxSet := make(map[uint64]bool)
	for i, b := range c.members {
		if live(i) {
			for _, idx := range memStore(b).BucketIndices() {
				idxSet[idx] = true
			}
		}
	}
	for _, idx := range sortedKeys(idxSet) {
		var bad, good []int
		for i, b := range c.members {
			if !live(i) {
				continue
			}
			report.BucketsScanned++
			if _, err := memStore(b).ReadBucket(idx); err == nil {
				good = append(good, i)
			} else if errors.Is(err, oram.ErrIntegrity) {
				bad = append(bad, i)
			} else {
				return err
			}
		}
		if len(bad) == 0 {
			continue
		}
		if c.HasParity() && len(bad) == 1 && len(good) == len(c.members)-1 {
			if err := s.rebuildBucket(idx, bad[0], good); err != nil {
				return err
			}
			report.BucketsRepaired++
			continue
		}
		report.BucketsUnrecoverable += len(bad)
		for _, i := range bad {
			c.health[i].MarkFailed(fmt.Errorf("sdimm: bucket %d unrecoverable on member %d: %w", idx, i, oram.ErrIntegrity))
		}
	}
	return nil
}

// rebuildBucket reconstructs member target's bucket idx from sources, which
// must be every other member, each live with a verified copy (ReadBucket
// checks the tag again here). Shard trees evolve in lockstep, so the slot
// headers and write counter of a bucket agree across members and the slot
// data XORs to zero across them: the target's data is the XOR of the
// sources', and sealing it under their counter reproduces the lost bucket
// bit-exactly and keeps the write counters aligned.
func (s *splitStages) rebuildBucket(idx uint64, target int, sources []int) error {
	c := s.c
	bkts := make([]oram.Bucket, len(c.members))
	for _, j := range sources {
		var err error
		if bkts[j], err = memStore(c.members[j]).ReadBucket(idx); err != nil {
			return err
		}
	}
	tpl := bkts[sources[0]]
	rebuilt := oram.NewBucket(len(tpl.Slots))
	for i, slot := range tpl.Slots {
		rebuilt.Slots[i].Addr, rebuilt.Slots[i].Leaf = slot.Addr, slot.Leaf
		if !slot.IsDummy() {
			rebuilt.Slots[i].Data = xorAcross(make([]byte, s.shard), sources,
				func(j int) []byte { return bkts[j].Slots[i].Data })
		}
	}
	return memStore(c.members[target]).PutBucketAt(idx, rebuilt, tpl.Counter)
}
