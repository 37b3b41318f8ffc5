package sdimm

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"sdimm/internal/fault"
)

func newElasticCluster(t *testing.T, sdimms int, tap func(sd int, dir fault.Direction, attempt int, frame []byte)) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterOptions{
		SDIMMs:  sdimms,
		Levels:  10,
		Key:     []byte("elastic-test-key"),
		Seed:    23,
		LinkTap: tap,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDrainRemoveJoinLifecycle walks the full elastic arc: drain a member
// to empty, detach it, rejoin the slot with a fresh incarnation, and keep
// serving exact payloads throughout.
func TestDrainRemoveJoinLifecycle(t *testing.T) {
	c := newElasticCluster(t, 4, nil)
	ref := map[uint64][]byte{}
	for a := uint64(0); a < 48; a++ {
		data := []byte(fmt.Sprintf("v-%d", a))
		if err := c.Write(a, data); err != nil {
			t.Fatal(err)
		}
		ref[a] = data
	}

	if err := c.BeginDrain(1); err != nil {
		t.Fatalf("BeginDrain: %v", err)
	}
	if got := c.Health().Draining(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("draining set %v, want [1]", got)
	}
	steps := 0
	for {
		done, err := c.DrainStep()
		if err != nil {
			t.Fatalf("DrainStep %d: %v", steps, err)
		}
		if done {
			break
		}
		steps++
		if steps > 10*48 {
			t.Fatal("drain did not converge")
		}
		// Interleave workload mid-drain: the draining member still serves.
		if steps%4 == 0 {
			a := uint64(steps % 48)
			got, err := c.Read(a)
			if err != nil {
				t.Fatalf("read %d mid-drain: %v", a, err)
			}
			if !bytes.Equal(got[:len(ref[a])], ref[a]) {
				t.Fatalf("read %d mid-drain = %q", a, got[:len(ref[a])])
			}
		}
	}
	if n := c.DrainRemaining(); n != 0 {
		t.Fatalf("drain done with %d blocks remaining", n)
	}
	if err := c.CompleteDrain(); err != nil {
		t.Fatalf("CompleteDrain: %v", err)
	}
	if got := c.Health().Removed(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("removed set %v, want [1]", got)
	}
	if !c.Detached(1) {
		t.Fatal("slot 1 not detached after CompleteDrain")
	}

	// A clean drain loses nothing: every payload reads back exactly with
	// the member gone.
	for a, want := range ref {
		got, err := c.Read(a)
		if err != nil {
			t.Fatalf("read %d after detach: %v", a, err)
		}
		if !bytes.Equal(got[:len(want)], want) {
			t.Fatalf("read %d after detach = %q, want %q", a, got[:len(want)], want)
		}
	}

	if err := c.AddSDIMM(1); err != nil {
		t.Fatalf("AddSDIMM: %v", err)
	}
	if c.Incarnation(1) != 1 {
		t.Fatalf("incarnation %d after join, want 1", c.Incarnation(1))
	}
	if c.Detached(1) {
		t.Fatal("slot 1 still detached after join")
	}
	h := c.Health()
	if len(h.Removed()) != 0 || len(h.Failed()) != 0 {
		t.Fatalf("health after join: removed=%v failed=%v", h.Removed(), h.Failed())
	}
	for a := uint64(0); a < 48; a++ {
		data := []byte(fmt.Sprintf("w-%d", a))
		if err := c.Write(a, data); err != nil {
			t.Fatalf("write %d after join: %v", a, err)
		}
		got, err := c.Read(a)
		if err != nil {
			t.Fatalf("read %d after join: %v", a, err)
		}
		if !bytes.Equal(got[:len(data)], data) {
			t.Fatalf("read %d after join = %q", a, got[:len(data)])
		}
	}
}

// TestDrainStepLooksLikeRead pins the obliviousness contract at the frame
// level: one migration step puts exactly the same number of frames, with
// exactly the same length multiset, on the wire as one ordinary read.
func TestDrainStepLooksLikeRead(t *testing.T) {
	type shot struct {
		frames  int
		lengths map[int]int
	}
	cur := &shot{lengths: map[int]int{}}
	c := newElasticCluster(t, 4, func(sd int, dir fault.Direction, attempt int, frame []byte) {
		cur.frames++
		cur.lengths[len(frame)]++
	})
	for a := uint64(0); a < 32; a++ {
		if err := c.Write(a, []byte{byte(a)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.BeginDrain(1); err != nil {
		t.Fatal(err)
	}

	snap := func(f func()) shot {
		cur.frames, cur.lengths = 0, map[int]int{}
		f()
		return shot{frames: cur.frames, lengths: cur.lengths}
	}
	read := snap(func() {
		if _, err := c.Read(5); err != nil {
			t.Fatal(err)
		}
	})
	mig := snap(func() {
		if done, err := c.DrainStep(); err != nil || done {
			t.Fatalf("DrainStep: done=%v err=%v", done, err)
		}
	})
	if read.frames != mig.frames {
		t.Fatalf("frame count differs: read=%d migration=%d", read.frames, mig.frames)
	}
	for l, n := range read.lengths {
		if mig.lengths[l] != n {
			t.Fatalf("frame lengths differ: read=%v migration=%v", read.lengths, mig.lengths)
		}
	}
}

// TestBeginDrainValidation exercises the refusal paths: bad index, double
// drain, and draining away the last eligible member.
func TestBeginDrainValidation(t *testing.T) {
	c := newElasticCluster(t, 4, nil)
	if err := c.BeginDrain(7); err == nil {
		t.Fatal("out-of-range drain accepted")
	}
	if err := c.BeginDrain(1); err != nil {
		t.Fatal(err)
	}
	if err := c.BeginDrain(1); err == nil {
		t.Fatal("double drain of the same member accepted")
	}
	if err := c.BeginDrain(2); err == nil {
		t.Fatal("concurrent drain of a second member accepted")
	}
	if err := c.CancelDrain(); err != nil {
		t.Fatal(err)
	}

	// With one member failed and one draining there must still be somewhere
	// for the blocks to go.
	in := fault.NewInjector(fault.Config{Seed: 21})
	fc := newFaultyCluster(t, 2, in, 3)
	in.FailStop(0)
	for a := uint64(0); a < 8; a++ {
		fc.Write(a, []byte("probe")) //nolint:errcheck — detection phase
	}
	if got := fc.Health().Failed(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("failed set %v, want [0]", got)
	}
	if err := fc.BeginDrain(1); !errors.Is(err, ErrNoHealthySDIMM) {
		t.Fatalf("draining the last member: %v, want ErrNoHealthySDIMM", err)
	}
}

// TestCancelDrainRestoresPlacement: an aborted drain leaves the member in
// the placement set and the data intact.
func TestCancelDrainRestoresPlacement(t *testing.T) {
	c := newElasticCluster(t, 4, nil)
	ref := map[uint64][]byte{}
	for a := uint64(0); a < 32; a++ {
		data := []byte(fmt.Sprintf("c-%d", a))
		if err := c.Write(a, data); err != nil {
			t.Fatal(err)
		}
		ref[a] = data
	}
	if err := c.BeginDrain(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.DrainStep(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CancelDrain(); err != nil {
		t.Fatal(err)
	}
	h := c.Health()
	if len(h.Draining()) != 0 || len(h.Removed()) != 0 {
		t.Fatalf("health after cancel: draining=%v removed=%v", h.Draining(), h.Removed())
	}
	if err := c.CompleteDrain(); err == nil {
		t.Fatal("CompleteDrain accepted with no drain in progress")
	}
	for a, want := range ref {
		got, err := c.Read(a)
		if err != nil {
			t.Fatalf("read %d after cancel: %v", a, err)
		}
		if !bytes.Equal(got[:len(want)], want) {
			t.Fatalf("read %d after cancel = %q", a, got[:len(want)])
		}
	}
}

// TestRemoveFailedPoisonsOrphans: detaching a fail-stopped member without a
// drain loses the blocks that lived only there — those must poison (loud
// ErrUnrecoverable), and a fresh write must heal each one. The slot must
// then accept a rejoin.
func TestRemoveFailedPoisonsOrphans(t *testing.T) {
	in := fault.NewInjector(fault.Config{Seed: 21})
	c := newFaultyCluster(t, 4, in, 3)
	for a := uint64(0); a < 32; a++ {
		if err := c.Write(a, []byte(fmt.Sprintf("pre-%d", a))); err != nil {
			t.Fatal(err)
		}
	}
	in.FailStop(1)
	for a := uint64(100); a < 110; a++ {
		c.Write(a, []byte("probe")) //nolint:errcheck — detection phase
	}
	if got := c.Health().Failed(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("failed set %v, want [1]", got)
	}
	if err := c.RemoveFailed(2); err == nil {
		t.Fatal("RemoveFailed accepted a live member")
	}
	if err := c.RemoveFailed(1); err != nil {
		t.Fatalf("RemoveFailed: %v", err)
	}
	if got := c.Health().Removed(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("removed set %v, want [1]", got)
	}

	poisoned := 0
	for a := uint64(0); a < 32; a++ {
		got, err := c.Read(a)
		if err != nil {
			if !errors.Is(err, ErrUnrecoverable) {
				t.Fatalf("read %d: %v, want ErrUnrecoverable", a, err)
			}
			poisoned++
			heal := []byte(fmt.Sprintf("heal-%d", a))
			if err := c.Write(a, heal); err != nil {
				t.Fatalf("healing write %d: %v", a, err)
			}
			back, err := c.Read(a)
			if err != nil || !bytes.Equal(back[:len(heal)], heal) {
				t.Fatalf("read %d after heal: %q %v", a, back, err)
			}
			continue
		}
		want := fmt.Sprintf("pre-%d", a)
		if string(got[:len(want)]) != want {
			t.Fatalf("read %d silently corrupted: %q", a, got[:len(want)])
		}
	}
	if poisoned == 0 {
		t.Fatal("no orphaned address poisoned — the unclean detach lost nothing?")
	}

	in.Revive(1) // replacement hardware in the slot
	if err := c.AddSDIMM(1); err != nil {
		t.Fatalf("AddSDIMM after RemoveFailed: %v", err)
	}
	for a := uint64(200); a < 216; a++ {
		data := []byte(fmt.Sprintf("post-%d", a))
		if err := c.Write(a, data); err != nil {
			t.Fatalf("write %d after rejoin: %v", a, err)
		}
		got, err := c.Read(a)
		if err != nil || !bytes.Equal(got[:len(data)], data) {
			t.Fatalf("read %d after rejoin: %q %v", a, got, err)
		}
	}
}

// TestPipelineMigrationMatchesSequential: the same drain driven through
// pipeline Migrate batches must land the identical position map and
// payloads as one driven step by step — the batched path is an execution
// strategy, not a different algorithm.
func TestPipelineMigrationMatchesSequential(t *testing.T) {
	build := func() *Cluster {
		c := newElasticCluster(t, 4, nil)
		for a := uint64(0); a < 48; a++ {
			if err := c.Write(a, []byte(fmt.Sprintf("m-%d", a))); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.BeginDrain(1); err != nil {
			t.Fatal(err)
		}
		return c
	}

	seq := build()
	for {
		done, err := seq.DrainStep()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	if err := seq.CompleteDrain(); err != nil {
		t.Fatal(err)
	}

	par := build()
	pipe := par.Pipeline(PipelineOptions{Window: 8, Parallelism: 4})
	for {
		addrs := par.NextMigrations(8)
		if len(addrs) == 0 {
			break
		}
		batch := make([]BatchOp, len(addrs))
		for j, a := range addrs {
			batch[j] = BatchOp{Addr: a, Migrate: true}
		}
		for _, r := range pipe.Do(batch) {
			if r.Err != nil {
				t.Fatalf("migrate batch: %v", r.Err)
			}
		}
	}
	pipe.Close()
	if err := par.CompleteDrain(); err != nil {
		t.Fatal(err)
	}

	sp, pp := seq.Positions(), par.Positions()
	if len(sp) != len(pp) {
		t.Fatalf("position map sizes differ: %d vs %d", len(sp), len(pp))
	}
	for a, l := range sp {
		if pp[a] != l {
			t.Fatalf("addr %d: sequential leaf %d, pipelined leaf %d", a, l, pp[a])
		}
	}
	for a := uint64(0); a < 48; a++ {
		sg, err1 := seq.Read(a)
		pg, err2 := par.Read(a)
		if err1 != nil || err2 != nil {
			t.Fatalf("read %d: %v / %v", a, err1, err2)
		}
		if !bytes.Equal(sg, pg) {
			t.Fatalf("addr %d payload diverged between drain strategies", a)
		}
	}
}

// TestSplitReplaceMemberRebuildsFromParity: a failed shard is rebuilt
// bucket-for-bucket from the surviving members, rejoins, and the cluster
// keeps the lockstep invariant and exact payloads. Replacing the parity
// member itself goes through the same path.
func TestSplitReplaceMemberRebuildsFromParity(t *testing.T) {
	c := newParityCluster(t, 4)
	ref := map[uint64][]byte{}
	for a := uint64(0); a < 40; a++ {
		data := []byte(fmt.Sprintf("s-%d", a))
		if err := c.Write(a, data); err != nil {
			t.Fatal(err)
		}
		ref[a] = data
	}

	if err := c.ReplaceMember(1); err == nil {
		t.Fatal("ReplaceMember accepted a live member")
	}
	c.FailShard(1)
	// Degraded window: reads reconstruct through parity.
	for a := uint64(0); a < 10; a++ {
		got, err := c.Read(a)
		if err != nil {
			t.Fatalf("degraded read %d: %v", a, err)
		}
		if !bytes.Equal(got[:len(ref[a])], ref[a]) {
			t.Fatalf("degraded read %d = %q", a, got[:len(ref[a])])
		}
	}
	if err := c.ReplaceMember(1); err != nil {
		t.Fatalf("ReplaceMember: %v", err)
	}
	if c.Incarnation(1) != 1 {
		t.Fatalf("incarnation %d after replacement, want 1", c.Incarnation(1))
	}
	if got := c.Health().Failed(); len(got) != 0 {
		t.Fatalf("failed set %v after replacement", got)
	}

	// The rebuilt shard must hold exactly what its predecessor held: fail
	// a DIFFERENT shard, forcing reads to XOR through the rebuilt one.
	c.FailShard(2)
	for a, want := range ref {
		got, err := c.Read(a)
		if err != nil {
			t.Fatalf("read %d through rebuilt shard: %v", a, err)
		}
		if !bytes.Equal(got[:len(want)], want) {
			t.Fatalf("read %d through rebuilt shard = %q, want %q", a, got[:len(want)], want)
		}
	}
	if err := c.ReplaceMember(2); err != nil {
		t.Fatalf("ReplaceMember(2): %v", err)
	}

	// Parity member replacement: rebuild it, then prove the fresh parity
	// works by surviving yet another data-shard loss.
	pi := len(c.members) - 1
	c.FailShard(pi)
	if err := c.ReplaceMember(pi); err != nil {
		t.Fatalf("ReplaceMember(parity): %v", err)
	}
	c.FailShard(0)
	for a, want := range ref {
		got, err := c.Read(a)
		if err != nil {
			t.Fatalf("read %d through rebuilt parity: %v", a, err)
		}
		if !bytes.Equal(got[:len(want)], want) {
			t.Fatalf("read %d through rebuilt parity = %q", a, got[:len(want)])
		}
	}
}

// TestWrongProtocolCallsFailClosed: a membership call that belongs to the
// other protocol returns an error and changes nothing — the committed
// sequence, position map, stashes and health states are as they were — and
// a Migrate op on a Split cluster fails at schedule and commits nothing.
func TestWrongProtocolCallsFailClosed(t *testing.T) {
	ind, split := newCluster(t, 4), newParityCluster(t, 4)
	for _, c := range []*Cluster{ind, split} {
		for a := uint64(0); a < 20; a++ {
			if err := c.Write(a, []byte{byte(a)}); err != nil {
				t.Fatal(err)
			}
		}
		c.FailShard(2)
	}
	footprint := func(c *Cluster) string {
		return fmt.Sprint(c.Seq(), c.Positions(), c.StashLens(), c.HealthStates())
	}
	migrate := func(c *Cluster) error {
		p := c.Pipeline(PipelineOptions{Window: 4, Parallelism: 2})
		defer p.Close()
		return p.Do([]BatchOp{{Addr: 3, Migrate: true}})[0].Err
	}
	for _, tc := range []struct {
		name string
		c    *Cluster
		call func(c *Cluster) error
	}{
		{"split/BeginDrain", split, func(c *Cluster) error { return c.BeginDrain(0) }},
		{"split/CancelDrain", split, func(c *Cluster) error { return c.CancelDrain() }},
		{"split/DrainStep", split, func(c *Cluster) error { _, err := c.DrainStep(); return err }},
		{"split/RemoveFailed", split, func(c *Cluster) error { return c.RemoveFailed(2) }},
		{"split/AddSDIMM", split, func(c *Cluster) error { return c.AddSDIMM(2) }},
		{"split/Migrate", split, migrate},
		{"independent/ReplaceMember", ind, func(c *Cluster) error { return c.ReplaceMember(2) }},
	} {
		before := footprint(tc.c)
		if err := tc.call(tc.c); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if after := footprint(tc.c); after != before {
			t.Errorf("%s: refused call changed the cluster:\nbefore %s\nafter  %s", tc.name, before, after)
		}
	}
}

// TestReplaceMemberWithoutParityFailsClosed: with no parity member a failed
// Split slot cannot be rebuilt, and the refusal leaves the slot's member,
// its incarnation and the cluster's state as they were.
func TestReplaceMemberWithoutParityFailsClosed(t *testing.T) {
	c := newSplitCluster(t, 4)
	if err := c.Write(1, []byte{1}); err != nil {
		t.Fatal(err)
	}
	c.FailShard(2)
	before := fmt.Sprint(c.Health().SDIMMs[2].ID, c.Incarnation(2), c.Seq(), c.Positions(), c.StashLens(), c.HealthStates())
	if err := c.ReplaceMember(2); err == nil {
		t.Fatal("rebuilt a member without a parity member")
	}
	if after := fmt.Sprint(c.Health().SDIMMs[2].ID, c.Incarnation(2), c.Seq(), c.Positions(), c.StashLens(), c.HealthStates()); after != before {
		t.Fatalf("refused replacement changed the cluster:\nbefore %s\nafter  %s", before, after)
	}
}
