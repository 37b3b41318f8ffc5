package sdimm

import (
	"errors"
	"fmt"
	"slices"

	"sdimm/internal/durable"
	"sdimm/internal/fault"
	"sdimm/internal/flight"
	"sdimm/internal/oram"
)

// This file implements elastic cluster membership: online drain/remove/join
// on an Independent cluster and failed-member replacement on a Split one.
// A call made on the other protocol's cluster fails and changes nothing.
// Every topology change is journaled through internal/durable
// (KindDrainBegin / KindDrainEnd / KindJoin), and every migration step is a
// normal-shaped access journaled as KindMigrate — a crash at any point
// recovers to the state before or after the interrupted step, never between.
// See DESIGN.md, "Elasticity & rebalancing".

// protocolErr refuses call unless the cluster runs the protocol it belongs
// to (split: the Split protocol).
func (c *Cluster) protocolErr(call string, split bool) error {
	if (c.splitSet() != nil) == split {
		return nil
	}
	if split {
		return fmt.Errorf("sdimm: %s needs a Split cluster", call)
	}
	return fmt.Errorf("sdimm: %s is not supported by a Split cluster", call)
}

// --- Independent cluster: drain / remove / join ---

// BeginDrain starts draining member i: it is excluded from new-leaf
// placement from this point on, but keeps serving exchanges (including the
// APPEND dummies of unrelated traffic) so the channel-visible traffic shape
// is unchanged. At most one drain runs at a time. The drain itself advances
// via DrainStep and ends with CompleteDrain.
func (c *Cluster) BeginDrain(i int) error {
	if err := c.protocolErr("BeginDrain", false); err != nil {
		return err
	}
	if err := c.failed(); err != nil {
		return err
	}
	if i < 0 || i >= len(c.members) {
		return fmt.Errorf("sdimm: member slot %d out of range", i)
	}
	if c.drainMember >= 0 {
		return fmt.Errorf("sdimm: drain of member %d already in progress", c.drainMember)
	}
	switch st := c.health[i].State(); st {
	case fault.Failed, fault.Removed:
		return fmt.Errorf("sdimm: cannot drain member %d in state %s (use RemoveFailed)", i, st)
	case fault.Draining:
		return fmt.Errorf("sdimm: member %d already draining", i)
	}
	// At least one other member must be eligible to receive the blocks.
	others := 0
	for j := range c.health {
		if j != i && placeable(c.health[j].State()) {
			others++
		}
	}
	if others == 0 {
		return ErrNoHealthySDIMM
	}
	return c.applyDrainBegin(i)
}

// applyDrainBegin is BeginDrain's committed effect, shared with replay.
func (c *Cluster) applyDrainBegin(i int) error {
	if i < 0 || i >= len(c.members) {
		return fmt.Errorf("sdimm: drain-begin member %d out of range", i)
	}
	if !c.health[i].MarkDraining() {
		return fmt.Errorf("sdimm: member %d cannot drain in state %s", i, c.health[i].State())
	}
	c.drainMember = i
	c.drainMoved = 0
	c.flight.Coordinator().Record(flight.KindDrainBegin, uint64(i), 0)
	return c.commitTopoRecord(durable.KindDrainBegin, i)
}

// DrainRemaining counts the addresses still mapped to the draining member
// (0 when no drain is in progress).
func (c *Cluster) DrainRemaining() int { return len(c.mappedTo(c.drainMember)) }

// NextMigrations returns up to n addresses the drain will migrate next, in
// the order DrainStep would take them (ascending address). Drivers use it
// to build migration batches for the parallel pipeline; the selection is a
// pure function of the position map, so a restarted driver recomputes the
// same order.
func (c *Cluster) NextMigrations(n int) []uint64 {
	if n <= 0 {
		return nil
	}
	addrs := c.mappedTo(c.drainMember)
	return addrs[:min(n, len(addrs))]
}

// mappedTo returns the addresses the position map places on member i, in
// ascending order. No address maps to -1, the drainMember of a cluster with
// no drain in progress.
func (c *Cluster) mappedTo(i int) []uint64 {
	var addrs []uint64
	c.pos.Each(func(a, g uint64) {
		if int(g>>c.localBits) == i {
			addrs = append(addrs, a)
		}
	})
	slices.Sort(addrs)
	return addrs
}

// DrainStep migrates one block off the draining member: the lowest still-
// mapped address is read through the ordinary access path, which re-homes
// it because pickLeaf no longer offers the draining member's leaves.
// On the channel the step is a single normal-shaped access — an observer
// cannot tell it from workload traffic. done reports that nothing was left
// to migrate (the step performed no access).
func (c *Cluster) DrainStep() (done bool, err error) {
	if err := c.protocolErr("DrainStep", false); err != nil {
		return false, err
	}
	if err := c.failed(); err != nil {
		return false, err
	}
	if c.drainMember < 0 {
		return false, errors.New("sdimm: no drain in progress")
	}
	next := c.NextMigrations(1)
	if len(next) == 0 {
		return true, nil
	}
	if r := c.access(BatchOp{Addr: next[0], Migrate: true}); r.Err != nil {
		return false, r.Err
	}
	if err := c.maybeCheckpoint(); err != nil {
		return false, err
	}
	return false, nil
}

// CompleteDrain detaches the drained member once nothing is mapped to it.
// The slot becomes Removed (terminal until a join repopulates it).
func (c *Cluster) CompleteDrain() error {
	if err := c.failed(); err != nil {
		return err
	}
	if c.drainMember < 0 {
		return errors.New("sdimm: no drain in progress")
	}
	if left := c.DrainRemaining(); left > 0 {
		return fmt.Errorf("sdimm: drain of member %d incomplete: %d blocks remain", c.drainMember, left)
	}
	return c.applyDetach(c.drainMember)
}

// CancelDrain aborts a drain in progress: the member returns to the
// placement pool and whatever migrated stays where it landed (migration is
// just placement — no state needs undoing). The cancellation journals as a
// DrainEnd record without a detach.
func (c *Cluster) CancelDrain() error {
	if err := c.protocolErr("CancelDrain", false); err != nil {
		return err
	}
	if err := c.failed(); err != nil {
		return err
	}
	if c.drainMember < 0 {
		return errors.New("sdimm: no drain in progress")
	}
	i := c.drainMember
	if !c.health[i].CancelDraining() {
		// The member failed mid-drain; cancellation cannot resurrect it.
		return fmt.Errorf("sdimm: member %d is %s, not draining", i, c.health[i].State())
	}
	c.drainMember, c.drainMoved = -1, 0
	c.flight.Coordinator().Record(flight.KindDrainCancel, uint64(i), 0)
	return c.commitTopoRecord(durable.KindDrainEnd, i)
}

// RemoveFailed detaches a fail-stopped member without a drain. Blocks still
// mapped to it are lost: each is poisoned (reads fail with ErrUnrecoverable
// until a write heals the address) and remapped to a surviving member so
// the tree stays navigable and future accesses keep their normal shape.
func (c *Cluster) RemoveFailed(i int) error {
	if err := c.protocolErr("RemoveFailed", false); err != nil {
		return err
	}
	if err := c.failed(); err != nil {
		return err
	}
	if i < 0 || i >= len(c.members) {
		return fmt.Errorf("sdimm: member slot %d out of range", i)
	}
	if c.detached[i] {
		return fmt.Errorf("sdimm: member %d already removed", i)
	}
	if st := c.health[i].State(); st != fault.Failed {
		return fmt.Errorf("sdimm: member %d is %s, not failed; drain it instead", i, st)
	}
	return c.applyDetach(i)
}

// applyDetach is the committed effect of CompleteDrain and RemoveFailed,
// shared with replay. MarkRemoved runs first so the remap draws below never
// offer the departing member; the leftover-address walk is in sorted order
// and the RNG draws happen at a deterministic point, so replay reproduces
// the exact remapping. After a completed drain the walk is empty.
func (c *Cluster) applyDetach(i int) error {
	if i < 0 || i >= len(c.members) {
		return fmt.Errorf("sdimm: detach member %d out of range", i)
	}
	c.health[i].MarkRemoved()
	c.detached[i] = true
	if c.drainMember == i {
		c.drainMember, c.drainMoved = -1, 0
	}
	orphans := c.mappedTo(i)
	states := c.HealthStates()
	for _, a := range orphans {
		g, err := c.pickLeaf(states)
		if err != nil {
			return err
		}
		c.pos.Set(a, g)
		c.poisoned[a] = true
	}
	c.flight.Coordinator().Record(flight.KindDetach, uint64(i), uint64(len(orphans)))
	return c.commitTopoRecord(durable.KindDrainEnd, i)
}

// AddSDIMM populates a removed slot with a fresh member (a join). The new
// incarnation gets its own sealed store, device identity, and link session;
// it starts empty and in Recovering probation, entering the placement pool
// on its first successful exchange. Only a detached slot can be joined —
// capacity changes reuse slots, keeping the global tree geometry (and with
// it the oblivious routing arithmetic) fixed.
func (c *Cluster) AddSDIMM(i int) error {
	if err := c.protocolErr("AddSDIMM", false); err != nil {
		return err
	}
	if err := c.failed(); err != nil {
		return err
	}
	if i < 0 || i >= len(c.members) {
		return fmt.Errorf("sdimm: member slot %d out of range", i)
	}
	if !c.detached[i] {
		return fmt.Errorf("sdimm: slot %d still holds a member; drain and remove it first", i)
	}
	return c.applyJoin(i)
}

// applyJoin is the committed effect of AddSDIMM and ReplaceMember, shared
// with replay. On a Split cluster the fresh member is rebuilt from the
// others. That must not require the member to be Failed: during replay the
// slot's buffer participated in the replayed accesses (the replayed cluster
// has no knowledge of the original fail-stop), but its state is provably
// identical to what reconstruction yields — every member's tree is a pure
// function of the shared access history — so rebuilding over it is a no-op
// disguised as a rebuild, and the RNG/journal effects match the original run
// exactly.
func (c *Cluster) applyJoin(i int) error {
	if i < 0 || i >= len(c.members) {
		return fmt.Errorf("sdimm: join member %d out of range", i)
	}
	inc, old := c.incarnations[i]+1, c.members[i]
	if err := c.mkMember(i, inc); err != nil {
		return err
	}
	if err := c.st.rebuildMember(i); err != nil {
		c.members[i] = old // a failed rebuild leaves the slot as it was
		return err
	}
	c.incarnations[i] = inc
	c.detached[i] = false
	// Lifetime exchange totals survive the slot's previous occupant; the
	// state machine restarts in probation with a clean streak.
	succ, fail := c.health[i].Totals()
	c.health[i].Restore(fault.Recovering, 0, succ, fail)
	c.flight.Coordinator().Record(flight.KindJoin, uint64(i), inc)
	return c.commitTopoRecord(durable.KindJoin, i)
}

// --- Split cluster: failed-member replacement ---

// ReplaceMember rebuilds failed member i (data shards 0..SDIMMs-1; SDIMMs =
// parity) of a Split cluster from the surviving members. Shard trees evolve
// in lockstep and the parity member holds the XOR of the data shards, so the
// missing member's entire tree — buckets and stash — is the XOR of all other
// members', resealed under the new incarnation's keys. There is no drain
// flavour for Split: the protocol has no routing, so membership can only
// change by whole-member replacement.
func (c *Cluster) ReplaceMember(i int) error {
	if err := c.protocolErr("ReplaceMember", true); err != nil {
		return err
	}
	if err := c.failed(); err != nil {
		return err
	}
	if i < 0 || i >= len(c.members) {
		return fmt.Errorf("sdimm: member slot %d out of range", i)
	}
	if c.health[i].State() != fault.Failed {
		return fmt.Errorf("sdimm: member %d is %s, not failed", i, c.health[i].State())
	}
	for _, j := range c.others(i) {
		if c.splitSet().memberDown(j) {
			return fmt.Errorf("sdimm: cannot rebuild member %d: member %d also down", i, j)
		}
	}
	return c.applyJoin(i)
}

// rebuildMember fills the freshly built member i from every other member:
// each bucket through rebuildBucket, the stash (same (addr, leaf) order on
// every member, data XOR-aligned) through the same XOR, and the engine RNG
// copied from a live sibling so the lockstep eviction draws stay identical
// from the next access on.
func (s *splitStages) rebuildMember(i int) error {
	c := s.c
	if !c.HasParity() {
		return errors.New("sdimm: replacement requires a parity member")
	}
	sources := c.others(i)
	sibling := c.members[sources[0]]
	for _, idx := range memStore(sibling).BucketIndices() {
		if err := s.rebuildBucket(idx, i, sources); err != nil {
			return err
		}
	}
	stashes := make([][]oram.Block, len(c.members))
	for _, j := range sources {
		stashes[j] = c.members[j].Engine().StashBlocks()
	}
	rebuilt := make([]oram.Block, len(stashes[sources[0]]))
	for k, blk := range stashes[sources[0]] {
		rebuilt[k] = oram.Block{Addr: blk.Addr, Leaf: blk.Leaf, Data: xorAcross(make([]byte, s.shard), sources,
			func(j int) []byte { return stashes[j][k].Data })}
	}
	if err := c.members[i].Engine().RestoreStash(rebuilt); err != nil {
		return err
	}
	c.members[i].Engine().RestoreRandState(sibling.Engine().RandState())
	return nil
}
