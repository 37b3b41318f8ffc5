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

// This file wires crash consistency (internal/durable) into both cluster
// flavours: journaling at the commit point, periodic checkpoints, and the
// recovery sequence restore → scrub → replay → probation. See DESIGN.md,
// "Durability & crash recovery", for the invariants.

// ErrUnrecoverable marks a block whose payload was lost to on-disk
// corruption that no redundancy could repair. Reads of such a block fail
// with this error (never silently return zeros); a successful write heals
// the address.
var ErrUnrecoverable = errors.New("sdimm: block lost to unrecoverable corruption")

// ErrStateExists is returned (wrapped) by NewCluster and NewSplitCluster
// when the state directory already holds checkpoints: the directory belongs
// to RecoverCluster / RecoverSplitCluster, and a caller that restarts on it
// tests for this with errors.Is.
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

// independentFingerprint pins an Independent cluster's shape. opts must be
// defaulted. Ring-eviction clusters get their own kind (including the flush
// interval): their engines hold extra durable state (eviction pointer,
// dead-slot masks) that a path-mode recovery could not interpret.
func independentFingerprint(opts ClusterOptions) durable.Fingerprint {
	kind := "independent"
	if opts.RingFlushInterval > 0 {
		kind = fmt.Sprintf("independent-ring%d", opts.RingFlushInterval)
	}
	return durable.Fingerprint{
		Kind:      kind,
		Members:   opts.SDIMMs,
		Levels:    opts.Levels,
		BlockSize: opts.BlockSize,
		Z:         opts.Z,
		Seed:      opts.Seed,
	}
}

// splitFingerprint pins a Split cluster's shape. opts must be defaulted.
func splitFingerprint(opts SplitClusterOptions) durable.Fingerprint {
	return durable.Fingerprint{
		Kind:      "split",
		Members:   opts.SDIMMs,
		Levels:    opts.Levels,
		BlockSize: opts.BlockSize,
		Z:         4,
		Seed:      opts.Seed,
		Parity:    opts.Parity,
	}
}

// durableState is the state both cluster flavours embed: the host-side ORAM
// state every checkpoint captures (position map, shared RNG, the members
// and their health) with its telemetry handles, and the durability
// bookkeeping around it. seq counts committed logical records of every kind
// (workload accesses, migration steps, topology changes); poisoned tracks
// addresses lost to unrecoverable corruption (always allocated, usually
// empty).
type durableState struct {
	pos oram.PositionMap
	rnd *rng.Source
	// members is the flavour's member list — Independent: one secure buffer
	// per SDIMM; Split: the data shards, then the parity member when there
	// is one — and health its index-aligned health records.
	members []*isdimm.Buffer
	health  []*fault.Health
	// mkMember builds incarnation inc of slot i and installs it in place.
	// Set by the flavour's builder; used for the founding members, by joins
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
// Called by both cluster builders (the zero value of drainMember would
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

// crashedNow reports whether a planned crash point has fired — the cluster
// is "dead" and refuses further work.
func (d *durableState) crashedNow() bool { return d.dur != nil && d.dur.Crashed() }

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

// commitRecord journals one access at its commit point.
func (d *durableState) commitRecord(addr uint64, op oram.Op, data []byte, migrate bool) error {
	return d.appendOne(d.makeRecord(addr, op, data, migrate))
}

// checkpointDue reports that the checkpoint interval has elapsed. The
// pipeline polls it at wave boundaries to decide when to stall the schedule
// and drain for a quiescent capture; the sequential path checks it through
// maybeCheckpoint after every access.
func (d *durableState) checkpointDue() bool {
	return d.dur != nil && !d.replaying && d.seq-d.lastCkpt >= uint64(d.interval)
}

// maybeCheckpoint runs force when the checkpoint interval has elapsed.
func (d *durableState) maybeCheckpoint(force func() error) error {
	if !d.checkpointDue() {
		return nil
	}
	return force()
}

// observed is the tail of every top-level sequential access: count it, and
// after a success take the checkpoint if one has come due.
func (d *durableState) observed(op oram.Op, err error, force func() error) error {
	d.tm.observe(op, err)
	if err == nil {
		err = d.maybeCheckpoint(force)
	}
	return err
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

// --- Shared by both flavours ---

// createDurable is the durable tail of construction: the state directory
// must be empty (recovering an existing one is the job of the function
// recoverer names — silently reinitializing it would clobber recoverable
// state) and a genesis checkpoint is written before the cluster accepts
// traffic.
func (d *durableState) createDurable(opts *DurabilityOptions, fp durable.Fingerprint, clusterKey []byte,
	recoverer string, checkpoint func() error) error {
	if err := d.attachDurability(opts, fp, clusterKey); err != nil {
		return err
	}
	if d.dur.HasState() {
		return fmt.Errorf("%w: %s; use %s", ErrStateExists, opts.Dir, recoverer)
	}
	return checkpoint()
}

// recoverDurable is the recovery sequence on a freshly built cluster (new
// link sessions): open the state directory, load the newest valid
// checkpoint, scrub every bucket's tag, replay the journal to the last
// committed access, put all members into Recovering probation, and persist
// a post-recovery checkpoint — only then is traffic admitted. The flavour
// supplies what genuinely differs: extras (its per-member additions to a
// restored member, may be nil), its scrub, apply (one journal record → its
// access or topology change) and its checkpoint.
//
// The scrub runs before replay on purpose: replay re-executes accesses
// against the restored image, so the image must be navigable first, and a
// replayed write to a poisoned address heals it exactly as the original
// execution did.
func (d *durableState) recoverDurable(opts *DurabilityOptions, fp durable.Fingerprint, clusterKey []byte,
	extras func(i int, m durable.MemberState) error, scrub func(*durable.RecoveryReport) error,
	apply func(durable.Record) error, checkpoint func() error) (*durable.RecoveryReport, error) {
	if err := d.attachDurability(opts, fp, clusterKey); err != nil {
		return nil, err
	}
	cp, recs, report, err := d.dur.Recover()
	if err != nil {
		return nil, err
	}
	if err := d.restoreCheckpoint(cp, extras); err != nil {
		return nil, err
	}
	if err := scrub(report); err != nil {
		return nil, err
	}
	d.replaying = true // left set by a failed replay: the caller discards the cluster
	for _, rec := range recs {
		if rec.Seq != d.seq+1 {
			return nil, fmt.Errorf("sdimm: replay record %d does not follow committed seq %d", rec.Seq, d.seq)
		}
		if err := apply(rec); err != nil {
			return nil, fmt.Errorf("sdimm: replay record %d (seq %d, kind %d): %w", rec.Addr, rec.Seq, rec.Kind, err)
		}
		d.tm.replayed.Inc()
	}
	d.replaying = false
	for _, h := range d.health {
		h.MarkRecovering()
	}
	if err := checkpoint(); err != nil {
		return nil, err
	}
	d.tm.scrubScanned.Add(uint64(report.BucketsScanned))
	d.tm.scrubRepaired.Add(uint64(report.BucketsRepaired))
	d.tm.scrubUnrecoverable.Add(uint64(report.BucketsUnrecoverable))
	d.flight.Coordinator().Record(flight.KindRecovery, uint64(report.RecordsReplayed), uint64(report.BucketsRepaired))
	return report, nil
}

// checkpoint captures the cluster's full state — the shared head plus one
// MemberState per member, which link (when set) completes with the
// flavour's per-member extras — and persists it, rotating the journal.
func (d *durableState) checkpoint(link func(i int, m *durable.MemberState)) error {
	if d.dur == nil {
		return errors.New("sdimm: ForceCheckpoint without durability")
	}
	cp := &durable.Checkpoint{
		Seq:       d.seq,
		RNG:       d.rnd.State(),
		Positions: capturePositions(d.pos),
		Poisoned:  sortedKeys(d.poisoned),
		MigSeq:    d.migSeq,
		TopoSeq:   d.topoSeq,
	}
	if d.drainMember >= 0 {
		cp.Drains = []durable.DrainState{{Member: uint64(d.drainMember), Moved: d.drainMoved}}
	}
	for i, b := range d.members {
		m := captureMember(b, d.health[i])
		m.Incarnation = d.incarnations[i]
		if link != nil {
			link(i, &m)
		}
		cp.Members = append(cp.Members, m)
	}
	if err := d.dur.WriteCheckpoint(cp); err != nil {
		return err
	}
	d.lastCkpt = d.seq
	d.tm.checkpoints.Inc()
	d.flight.Coordinator().Record(flight.KindCheckpoint, d.seq, 0)
	return nil
}

// restoreCheckpoint loads cp into the (freshly constructed) cluster: the
// flavour-independent head, then every member, which extras (when set)
// completes with the flavour's per-member additions — checkpoint's link in
// reverse.
func (d *durableState) restoreCheckpoint(cp *durable.Checkpoint, extras func(i int, m durable.MemberState) error) error {
	if len(cp.Members) != len(d.members) {
		return fmt.Errorf("sdimm: checkpoint has %d members, cluster has %d", len(cp.Members), len(d.members))
	}
	d.seq = cp.Seq
	d.lastCkpt = cp.Seq
	d.rnd.Restore(cp.RNG)
	for _, p := range cp.Positions {
		d.pos.Set(p.Addr, p.Value)
	}
	d.poisoned = make(map[uint64]bool, len(cp.Poisoned))
	for _, a := range cp.Poisoned {
		d.poisoned[a] = true
	}
	d.migSeq = cp.MigSeq
	d.topoSeq = cp.TopoSeq
	d.drainMember, d.drainMoved = -1, 0
	if len(cp.Drains) > 0 {
		if len(cp.Drains) > 1 {
			return fmt.Errorf("sdimm: checkpoint records %d concurrent drains, at most 1 supported", len(cp.Drains))
		}
		d.drainMember = int(cp.Drains[0].Member)
		d.drainMoved = cp.Drains[0].Moved
		if d.drainMember < 0 || d.drainMember >= len(d.members) {
			return fmt.Errorf("sdimm: checkpoint drain member %d out of range", d.drainMember)
		}
	}
	for i, m := range cp.Members {
		// A member that joined after the founding generation has
		// incarnation-derived store keys (and, on an Independent cluster, a
		// distinct device identity) — rebuild it before restoring its state
		// into place.
		if m.Incarnation != d.incarnations[i] {
			if err := d.mkMember(i, m.Incarnation); err != nil {
				return err
			}
			d.incarnations[i] = m.Incarnation
		}
		if err := restoreMember(d.members[i], d.health[i], m); err != nil {
			return err
		}
		if extras != nil {
			if err := extras(i, m); err != nil {
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

// --- Independent cluster ---

// ForceCheckpoint captures the cluster's full state and persists it,
// rotating the journal. Callable any time the cluster is quiescent.
func (c *Cluster) ForceCheckpoint() error {
	return c.checkpoint(func(i int, m *durable.MemberState) {
		m.HostSend = c.links[i].Host.SendCounter()
		m.HostRecv = c.links[i].Host.RecvCounter()
		m.DevSend = c.links[i].Dev.SendCounter()
		m.DevRecv = c.links[i].Dev.RecvCounter()
		m.Detached = c.detached[i]
	})
}

// restoreLinks is restoreCheckpoint's per-member hook: the detach flag and
// the link counters. The links run fresh post-restart ECDH sessions (new
// keys, so restored counters can never reuse a pad); restoring the counters
// forward keeps both endpoints in lockstep and the counters monotonic across
// the crash.
func (c *Cluster) restoreLinks(i int, m durable.MemberState) error {
	c.detached[i] = m.Detached
	if err := c.links[i].Host.RestoreCounters(m.HostSend, m.HostRecv); err != nil {
		return err
	}
	return c.links[i].Dev.RestoreCounters(m.DevSend, m.DevRecv)
}

// scrub runs the post-restore integrity pass over every member's tree: verify
// every materialized bucket, quarantine the ones whose tag fails, and
// poison any mapped address whose block can no longer be found anywhere
// (corrupt bucket on its path, not in the stash or transfer queue). The
// Independent protocol has no cross-SDIMM redundancy, so a corrupt bucket
// is always unrecoverable — the pass bounds the damage to provably-lost
// addresses and keeps the tree navigable.
func (c *Cluster) scrub(report *durable.RecoveryReport) error {
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

// replayRecord re-executes one journal record during recovery.
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

// RecoverCluster rebuilds a durable Independent cluster from its state
// directory (see recoverDurable for the sequence).
func RecoverCluster(opts ClusterOptions) (*Cluster, *durable.RecoveryReport, error) {
	opts = opts.withDefaults()
	if opts.Durability == nil {
		return nil, nil, errors.New("sdimm: RecoverCluster requires Durability options")
	}
	c, err := buildCluster(opts)
	if err != nil {
		return nil, nil, err
	}
	report, err := c.recoverDurable(opts.Durability, independentFingerprint(opts), opts.Key,
		c.restoreLinks, c.scrub, c.replayRecord, c.ForceCheckpoint)
	if err != nil {
		c.Close()
		return nil, nil, err
	}
	return c, report, nil
}

// --- Split cluster ---

// ForceCheckpoint captures the cluster's full state and persists it,
// rotating the journal.
func (c *SplitCluster) ForceCheckpoint() error { return c.checkpoint(nil) }

// scrub verifies every live member's buckets and repairs a corrupt one from
// the others (see rebuildBucket). A Failed member is neither scanned nor a
// source: its tree stopped at the fail-stop, so its buckets are stale however
// valid their tags. A corrupt bucket is repairable only when there is a
// parity member and every other member is live with a verified copy; anything
// less — no parity, a second corrupt copy, a member already down — is a loss
// the XOR cannot cover, so the corrupt members are marked Failed and the
// damage is reported unrecoverable, never "repaired".
func (c *SplitCluster) scrub(report *durable.RecoveryReport) error {
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
			if err := c.rebuildBucket(idx, bad[0], good); err != nil {
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
func (c *SplitCluster) rebuildBucket(idx uint64, target int, sources []int) error {
	bkts := make([]oram.Bucket, len(c.members))
	for _, j := range sources {
		var err error
		if bkts[j], err = memStore(c.members[j]).ReadBucket(idx); err != nil {
			return err
		}
	}
	tpl := bkts[sources[0]]
	rebuilt := oram.NewBucket(len(tpl.Slots))
	for s, slot := range tpl.Slots {
		rebuilt.Slots[s].Addr, rebuilt.Slots[s].Leaf = slot.Addr, slot.Leaf
		if !slot.IsDummy() {
			rebuilt.Slots[s].Data = xorAcross(make([]byte, c.shard), sources,
				func(j int) []byte { return bkts[j].Slots[s].Data })
		}
	}
	return memStore(c.members[target]).PutBucketAt(idx, rebuilt, tpl.Counter)
}

// replayRecord re-executes one journal record during recovery. The split
// protocol has no routing, so drains and migrations never occur; replacement
// is the only topology change.
func (c *SplitCluster) replayRecord(rec durable.Record) (err error) {
	switch rec.Kind {
	case durable.KindRead:
		_, err = c.access(rec.Addr, oram.OpRead, nil)
	case durable.KindWrite:
		_, err = c.access(rec.Addr, oram.OpWrite, rec.Data)
	case durable.KindJoin:
		err = c.applySplitJoin(int(rec.Addr))
	default:
		err = fmt.Errorf("sdimm: record kind %d unsupported by split clusters", rec.Kind)
	}
	return err
}

// RecoverSplitCluster rebuilds a durable Split cluster from its state
// directory (see recoverDurable for the sequence; the scrub repairs from
// parity).
func RecoverSplitCluster(opts SplitClusterOptions) (*SplitCluster, *durable.RecoveryReport, error) {
	opts = opts.withDefaults()
	if opts.Durability == nil {
		return nil, nil, errors.New("sdimm: RecoverSplitCluster requires Durability options")
	}
	c, err := buildSplitCluster(opts)
	if err != nil {
		return nil, nil, err
	}
	report, err := c.recoverDurable(opts.Durability, splitFingerprint(opts), opts.Key,
		nil, c.scrub, c.replayRecord, c.ForceCheckpoint)
	if err != nil {
		c.Close()
		return nil, nil, err
	}
	return c, report, nil
}
