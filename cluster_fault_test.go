package sdimm

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"sdimm/internal/fault"
	"sdimm/internal/rng"
	"sdimm/internal/telemetry"
)

func nop(time.Duration) {}

func newFaultyCluster(t *testing.T, sdimms int, in *fault.Injector, attempts int) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterOptions{
		SDIMMs: sdimms,
		Levels: 10,
		Key:    []byte("faulty-cluster-key"),
		Seed:   17,
		Faults: in,
		Retry:  fault.RetryPolicy{MaxAttempts: attempts, Sleep: nop},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestClusterSurvivesFaultyLinks runs a read/write workload over links with
// a noticeable random fault rate and requires map-exact behaviour with zero
// surfaced errors — every fault must be absorbed by the recovery layer.
func TestClusterSurvivesFaultyLinks(t *testing.T) {
	in := fault.NewInjector(fault.Config{
		Seed: 99, BitFlip: 0.01, Drop: 0.01, Duplicate: 0.01, Replay: 0.005, Stall: 0.005, MACCorrupt: 0.005,
	})
	c := newFaultyCluster(t, 4, in, 8)
	ref := map[uint64][]byte{}
	r := rng.New(5)
	for i := 0; i < 400; i++ {
		addr := r.Uint64n(80)
		if r.Bool(0.5) {
			data := []byte(fmt.Sprintf("v%d-%d", i, addr))
			if err := c.Write(addr, data); err != nil {
				t.Fatalf("op %d write %d: %v", i, addr, err)
			}
			ref[addr] = data
		} else {
			got, err := c.Read(addr)
			if err != nil {
				t.Fatalf("op %d read %d: %v", i, addr, err)
			}
			want := ref[addr]
			if !bytes.Equal(got[:len(want)], want) {
				t.Fatalf("op %d read %d = %q, want %q", i, addr, got[:len(want)], want)
			}
		}
	}
	s := in.Stats()
	if s.Drops+s.BitFlips+s.Duplicates+s.Replays+s.Stalls+s.MACCorruptions == 0 {
		t.Fatalf("fault injector never fired: %+v", s)
	}
	for _, sd := range c.Health().SDIMMs {
		if sd.State == fault.Failed {
			t.Fatalf("sdimm %d failed under transient faults: %+v", sd.Index, sd)
		}
	}
	t.Logf("faults absorbed: %+v", s)
}

// TestClusterStagedCommitSurvivesOutage pins the position-map recovery
// semantics: an access that dies on the wire must leave the address fully
// readable afterwards. The seed implementation committed the new leaf
// BEFORE talking to any buffer, so a single failed exchange permanently
// bricked the address.
func TestClusterStagedCommitSurvivesOutage(t *testing.T) {
	in := fault.NewInjector(fault.Config{Seed: 11})
	c := newFaultyCluster(t, 4, in, 3)
	payload := []byte("survives the outage")
	if err := c.Write(5, payload); err != nil {
		t.Fatal(err)
	}
	// Wedge every link long enough to exhaust the retry budget.
	for i := 0; i < 4; i++ {
		in.StallFor(i, 3)
	}
	if _, err := c.Read(5); err == nil {
		t.Fatal("read succeeded through a total link outage")
	} else {
		var se *fault.SDIMMError
		if !errors.As(err, &se) {
			t.Fatalf("outage error lacks SDIMM attribution: %v", err)
		}
		if !errors.Is(err, fault.ErrStalled) {
			t.Fatalf("outage error hides its cause: %v", err)
		}
	}
	for i := 0; i < 4; i++ {
		in.ClearStall(i)
	}
	got, err := c.Read(5)
	if err != nil {
		t.Fatalf("read after outage: %v", err)
	}
	if !bytes.Equal(got[:len(payload)], payload) {
		t.Fatalf("address corrupted by failed access: %q", got[:len(payload)])
	}
}

// TestClusterErrorsCarrySDIMMIndex checks satellite 2: any error crossing
// the cluster boundary names the buffer (index and ID) it came from.
func TestClusterErrorsCarrySDIMMIndex(t *testing.T) {
	in := fault.NewInjector(fault.Config{Seed: 4})
	c := newFaultyCluster(t, 2, in, 2)
	if err := c.Write(9, []byte("x")); err != nil {
		t.Fatal(err)
	}
	in.StallFor(0, 1<<20)
	in.StallFor(1, 1<<20)
	_, err := c.Read(9)
	if err == nil {
		t.Fatal("read succeeded with both links wedged")
	}
	var se *fault.SDIMMError
	if !errors.As(err, &se) {
		t.Fatalf("error is not a SDIMMError: %v", err)
	}
	if se.Index != 0 && se.Index != 1 {
		t.Fatalf("implausible SDIMM index %d", se.Index)
	}
	if want := fmt.Sprintf("sdimm-%d", se.Index); se.ID != want {
		t.Fatalf("SDIMM ID %q does not match index %d", se.ID, se.Index)
	}
	if !bytes.Contains([]byte(err.Error()), []byte(fmt.Sprintf("sdimm %d", se.Index))) {
		t.Fatalf("error text omits the index: %v", err)
	}
}

// TestClusterHealthDegradesAndRecovers drives one SDIMM through
// Healthy → Degraded → Healthy using forced stalls.
func TestClusterHealthDegradesAndRecovers(t *testing.T) {
	in := fault.NewInjector(fault.Config{Seed: 8})
	c := newFaultyCluster(t, 2, in, 2)
	// Every access exchanges with SDIMM 0 at least once (access or append),
	// so three wedged accesses produce three consecutive failures.
	in.StallFor(0, 1<<20)
	for i := uint64(0); i < 3; i++ {
		c.Write(100+i, []byte("z")) //nolint:errcheck — errors expected while wedged
	}
	h := c.Health()
	if h.SDIMMs[0].State != fault.Degraded {
		t.Fatalf("sdimm 0 not degraded after repeated failures: %+v", h.SDIMMs[0])
	}
	if h.Healthy() {
		t.Fatal("ClusterHealth.Healthy() true with a degraded member")
	}
	if h.SDIMMs[0].LastError == "" || h.SDIMMs[0].Retries == 0 {
		t.Fatalf("health view missing diagnostics: %+v", h.SDIMMs[0])
	}
	in.ClearStall(0)
	// One successful exchange recovers the state machine.
	for i := uint64(0); i < 2; i++ {
		if err := c.Write(200+i, []byte("y")); err != nil {
			t.Fatalf("write after stall cleared: %v", err)
		}
	}
	h = c.Health()
	if h.SDIMMs[0].State != fault.Healthy {
		t.Fatalf("sdimm 0 did not recover: %+v", h.SDIMMs[0])
	}
	if !h.Healthy() {
		t.Fatalf("cluster not healthy after recovery: %+v", h)
	}
}

// TestClusterFailStopIsolation kills one SDIMM and checks the cluster
// detects it, stops routing to it, and keeps serving everything that does
// not live there.
func TestClusterFailStopIsolation(t *testing.T) {
	in := fault.NewInjector(fault.Config{Seed: 21})
	c := newFaultyCluster(t, 4, in, 3)
	for a := uint64(0); a < 24; a++ {
		if err := c.Write(a, []byte(fmt.Sprintf("pre-%d", a))); err != nil {
			t.Fatal(err)
		}
	}
	in.FailStop(1)
	// The next accesses discover the corpse (via its dead link); at most the
	// ones routed directly at it error.
	for a := uint64(100); a < 110; a++ {
		c.Write(a, []byte("probe")) //nolint:errcheck — detection phase
	}
	h := c.Health()
	if got := h.Failed(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("failed set %v, want [1]", got)
	}
	// Post-detection: fresh writes and their reads must always succeed —
	// placement avoids the dead SDIMM entirely.
	for a := uint64(200); a < 230; a++ {
		data := []byte(fmt.Sprintf("post-%d", a))
		if err := c.Write(a, data); err != nil {
			t.Fatalf("write %d after detection: %v", a, err)
		}
		got, err := c.Read(a)
		if err != nil {
			t.Fatalf("read %d after detection: %v", a, err)
		}
		if !bytes.Equal(got[:len(data)], data) {
			t.Fatalf("read %d = %q", a, got[:len(data)])
		}
	}
	// Pre-failure addresses either survive (they lived elsewhere or migrated
	// off in the probe phase) or fail loudly with the dead SDIMM named —
	// never silently return wrong data.
	for a := uint64(0); a < 24; a++ {
		got, err := c.Read(a)
		if err != nil {
			var se *fault.SDIMMError
			if !errors.As(err, &se) || se.Index != 1 || !errors.Is(err, fault.ErrUnavailable) {
				t.Fatalf("read %d: unexpected failure shape: %v", a, err)
			}
			continue
		}
		want := fmt.Sprintf("pre-%d", a)
		if string(got[:len(want)]) != want {
			t.Fatalf("read %d silently corrupted: %q", a, got[:len(want)])
		}
	}
}

// TestClusterRehomesInFlightBlock wedges the link of the non-owning SDIMM
// so that every migration's real APPEND is abandoned; the block must be
// re-homed to a healthy SDIMM instead of being lost.
func TestClusterRehomesInFlightBlock(t *testing.T) {
	in := fault.NewInjector(fault.Config{Seed: 31})
	c := newFaultyCluster(t, 2, in, 2)
	payload := []byte("in-flight")
	if err := c.Write(3, payload); err != nil {
		t.Fatal(err)
	}
	oldG, ok := c.pos.Get(3)
	if !ok {
		t.Fatal("written address unmapped")
	}
	owner := int(oldG >> c.localBits)
	other := 1 - owner
	in.StallFor(other, 1<<20)
	// Hammer the address: every ~second access tries to migrate it to the
	// wedged SDIMM, whose append must be abandoned and re-homed.
	for i := 0; i < 20; i++ {
		got, err := c.Read(3)
		if err != nil {
			t.Fatalf("read %d during wedge: %v", i, err)
		}
		if !bytes.Equal(got[:len(payload)], payload) {
			t.Fatalf("read %d lost payload: %q", i, got[:len(payload)])
		}
		g, _ := c.pos.Get(3)
		if int(g>>c.localBits) == other {
			t.Fatalf("read %d left the block mapped to the wedged SDIMM", i)
		}
	}
	in.ClearStall(other)
	if got, err := c.Read(3); err != nil || !bytes.Equal(got[:len(payload)], payload) {
		t.Fatalf("read after wedge: %q %v", got, err)
	}
}

// TestClusterRehomeFollowsBroadcast pins where a sequential access re-homes
// a block whose real APPEND was abandoned: after the whole broadcast, as the
// access's last host→device exchange — the wave engine's rule, since
// Read/Write run its stages. Member 0's link is wedged, so every real APPEND
// to it is abandoned; cluster.rehomes finds the access that re-homed.
func TestClusterRehomeFollowsBroadcast(t *testing.T) {
	in := fault.NewInjector(fault.Config{Seed: 31})
	reg := telemetry.NewRegistry()
	var frames []int // members of the current access's original host→device frames
	c, err := NewCluster(ClusterOptions{
		SDIMMs: 4, Levels: 10, Key: []byte("faulty-cluster-key"), Seed: 17,
		Faults: in, Retry: fault.RetryPolicy{MaxAttempts: 2, Sleep: nop}, Telemetry: reg,
		LinkTap: func(sd int, dir fault.Direction, attempt int, _ []byte) {
			if dir == fault.HostToDev && attempt == 0 {
				frames = append(frames, sd)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for a := uint64(0); a < 32; a++ {
		if err := c.Write(a, []byte("rehome")); err != nil {
			t.Fatal(err)
		}
	}
	in.StallFor(0, 1<<20)
	rehomes := reg.Counter("cluster.rehomes")
	for i := uint64(0); i < 256; i++ {
		frames = frames[:0]
		before := rehomes.Value()
		c.Read(i % 32) //nolint:errcheck — reads of blocks on member 0 fail while wedged
		if rehomes.Value() == before {
			continue
		}
		// The ACCESS, the broadcast to every member in order, then the re-home.
		if len(frames) != 6 || !slices.Equal(frames[1:5], []int{0, 1, 2, 3}) || frames[5] == 0 {
			t.Fatalf("re-homing access sent host→device frames to members %v", frames)
		}
		return
	}
	t.Fatal("no access re-homed a block")
}

// ackDropper delivers every request and drops every response: the device
// runs each command, the host never sees an answer.
type ackDropper struct{}

func (ackDropper) Deliver(dir fault.Direction, frame []byte) ([][]byte, error) {
	if dir == fault.DevToHost {
		return nil, nil
	}
	return [][]byte{append([]byte(nil), frame...)}, nil
}

// frameLog records the direction and length of every frame sent on a link,
// before passing it to the wrapped link: what an observer on the bus sees.
type frameLog struct {
	inner  fault.Link
	frames []string
}

func (l *frameLog) Deliver(dir fault.Direction, frame []byte) ([][]byte, error) {
	l.frames = append(l.frames, fmt.Sprintf("%d:%d", dir, len(frame)))
	return l.inner.Deliver(dir, frame)
}

// movingOp builds a cluster and a same-seed twin, writes "v1" to addresses
// from 0 up on both, and stops at the first address where the twin shows
// that op moves the block from one member (owner) to another (dest). The
// returned cluster has not run that op yet; until then it ran every op the
// twin did.
func movingOp(t *testing.T, opts ClusterOptions, op func(*Cluster, uint64) error) (c *Cluster, addr uint64, owner, dest int) {
	t.Helper()
	twin, err := NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	if c, err = NewCluster(opts); err != nil {
		t.Fatal(err)
	}
	for ; addr < 64; addr++ {
		for _, x := range []*Cluster{twin, c} {
			if err := x.Write(addr, []byte("v1")); err != nil {
				t.Fatal(err)
			}
		}
		owner = member(twin, addr)
		if err := op(twin, addr); err != nil {
			t.Fatal(err)
		}
		if dest = member(twin, addr); dest != owner {
			return c, addr, owner, dest
		}
		if err := op(c, addr); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatal("no op moved its block between members")
	return
}

func member(c *Cluster, addr uint64) int {
	g, _ := c.pos.Get(addr)
	return int(g >> c.localBits)
}

func readOp(c *Cluster, addr uint64) error { _, err := c.Read(addr); return err }

func writeOp(c *Cluster, addr uint64) error { return c.Write(addr, []byte("v2")) }

// TestClusterExecutedExchangeIsNotLost drops every response of one member
// during one op that moves a block between members. The member executed
// every command it got, so nothing is lost: the block is not re-homed (that
// would leave a second, stale copy), a write succeeds, and a read whose block
// left inside the lost response fails closed until a write heals the
// address. The address is then mapped back onto the member and must read
// its latest payload.
func TestClusterExecutedExchangeIsNotLost(t *testing.T) {
	for _, tc := range []struct {
		name    string
		read    bool // the op is a read, else a write
		onOwner bool // drop the owner's responses (its ACCESS), else the destination's (the real APPEND)
	}{
		{"append-ack", false, false},
		{"write-access-response", false, true},
		{"read-access-response", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			opts := ClusterOptions{SDIMMs: 4, Levels: 10, Key: []byte("ack-loss-key"), Seed: 23,
				Retry: fault.RetryPolicy{MaxAttempts: 2, Sleep: nop}, Telemetry: reg}
			op := writeOp
			if tc.read {
				op = readOp
			}
			c, addr, owner, dest := movingOp(t, opts, op)
			dropped := dest
			if tc.onOwner {
				dropped = owner
			}
			c.links[dropped].Link = ackDropper{}
			err := op(c, addr)
			c.links[dropped].Link = nil
			want := []byte("v2")
			if tc.read {
				if !fault.Executed(err) {
					t.Fatalf("read whose response was lost: %v, want an executed abandonment", err)
				}
				if _, err := c.Read(addr); !errors.Is(err, ErrUnrecoverable) {
					t.Fatalf("read after the block was lost: %v, want ErrUnrecoverable", err)
				}
				want = []byte("v3")
				if err := c.Write(addr, want); err != nil {
					t.Fatal(err)
				}
			} else if err != nil {
				t.Fatalf("write whose responses were lost: %v", err)
			}
			if n := reg.Counter("cluster.rehomes").Value(); n != 0 {
				t.Fatalf("cluster.rehomes = %d: an executed exchange was re-homed", n)
			}
			for i := 0; i < 256; i++ {
				back := member(c, addr) == dropped
				got, err := c.Read(addr)
				if err != nil {
					t.Fatalf("read %d: %v", i, err)
				}
				if !bytes.Equal(got[:len(want)], want) {
					t.Fatalf("read %d = %q, want %q", i, got[:len(want)], want)
				}
				if back {
					return
				}
			}
			t.Fatal("the address never mapped back onto the member")
		})
	}
}

// TestClusterLostAccessResponseHidesOp drops every response of one ACCESS,
// once for a read and once for a write with the same seed and history. Every
// link must carry the same frames, in count and length, for both: the bus
// must not tell which op the abandoned access was.
func TestClusterLostAccessResponseHidesOp(t *testing.T) {
	opts := ClusterOptions{SDIMMs: 4, Levels: 10, Key: []byte("ack-loss-key"), Seed: 23,
		Retry: fault.RetryPolicy{MaxAttempts: 2, Sleep: nop}}
	var logs [2][]*frameLog
	var at [2][3]uint64
	for i, op := range []func(*Cluster, uint64) error{readOp, writeOp} {
		c, addr, owner, dest := movingOp(t, opts, op)
		at[i] = [3]uint64{addr, uint64(owner), uint64(dest)}
		for j, l := range c.links {
			fl := &frameLog{inner: fault.Perfect{}}
			if j == owner {
				fl.inner = ackDropper{}
			}
			l.Link = fl
			logs[i] = append(logs[i], fl)
		}
		op(c, addr)
	}
	if at[0] != at[1] {
		t.Fatalf("read and write took different routes: %v vs %v", at[0], at[1])
	}
	for j := range logs[0] {
		if r, w := logs[0][j].frames, logs[1][j].frames; !slices.Equal(r, w) {
			t.Fatalf("member %d: read sent %v, write sent %v", j, r, w)
		}
	}
}

func newParityCluster(t *testing.T, k int) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterOptions{
		Split:  true,
		SDIMMs: k,
		Levels: 10,
		Key:    []byte("parity-key"),
		Seed:   13,
		Parity: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSplitParityReconstruction fail-stops one data shard and checks every
// payload — written before or after the failure — reads back exactly via
// XOR reconstruction.
func TestSplitParityReconstruction(t *testing.T) {
	c := newParityCluster(t, 4)
	if !c.HasParity() {
		t.Fatal("parity shard missing")
	}
	for a := uint64(0); a < 20; a++ {
		if err := c.Write(a, []byte(fmt.Sprintf("pre-fail-%02d", a))); err != nil {
			t.Fatal(err)
		}
	}
	c.FailShard(2)
	for a := uint64(0); a < 20; a++ {
		got, err := c.Read(a)
		if err != nil {
			t.Fatalf("read %d with shard down: %v", a, err)
		}
		want := fmt.Sprintf("pre-fail-%02d", a)
		if string(got[:len(want)]) != want {
			t.Fatalf("reconstruction wrong for %d: %q", a, got[:len(want)])
		}
	}
	// Writes after the failure also survive: the parity slice carries the
	// dead shard's information.
	full := make([]byte, 64)
	for i := range full {
		full[i] = byte(0xA0 ^ i)
	}
	if err := c.Write(50, full); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(50)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, full) {
		t.Fatalf("post-failure write not reconstructed: %v", got)
	}
	h := c.Health()
	if got := h.Failed(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("failed set %v, want [2]", got)
	}
}

// TestSplitParityShardDownStillServes loses the parity shard itself: all
// data shards remain, so nothing needs reconstruction.
func TestSplitParityShardDownStillServes(t *testing.T) {
	c := newParityCluster(t, 2)
	if err := c.Write(7, []byte("no parity needed")); err != nil {
		t.Fatal(err)
	}
	c.FailShard(2) // index SDIMMs = the parity member
	if err := c.Write(8, []byte("still fine")); err != nil {
		t.Fatalf("write with parity down: %v", err)
	}
	got, err := c.Read(7)
	if err != nil || string(got[:16]) != "no parity needed" {
		t.Fatalf("read with parity down: %q %v", got, err)
	}
}

// splitFootprint is what a refused access must leave untouched: every
// member's stash occupancy and physical bucket-write count, the committed
// sequence and the position map.
func splitFootprint(c *Cluster) string {
	var writes []uint64
	for _, b := range c.members {
		writes = append(writes, memStore(b).Writes())
	}
	return fmt.Sprint(c.StashLens(), writes, c.Seq(), c.Positions())
}

// TestSplitWithoutParityFailsClosed checks a shard loss without parity is a
// loud, attributed error — never silent corruption — and that the access is
// refused before any surviving member runs it: a survivor that remapped the
// block to a leaf the position map never committed would have diverged.
func TestSplitWithoutParityFailsClosed(t *testing.T) {
	c := newSplitCluster(t, 2)
	if err := c.Write(1, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	c.FailShard(1)
	before := splitFootprint(c)
	_, err := c.Read(1)
	if err == nil {
		t.Fatal("read served with a shard missing and no parity")
	}
	var se *fault.SDIMMError
	if !errors.As(err, &se) || !errors.Is(err, fault.ErrUnavailable) {
		t.Fatalf("failure shape: %v", err)
	}
	if err := c.Write(2, []byte("x")); err == nil || !errors.Is(err, fault.ErrUnavailable) {
		t.Fatalf("write accepted with a shard missing and no parity: %v", err)
	}
	if after := splitFootprint(c); after != before {
		t.Fatalf("refused accesses mutated the survivors:\nbefore %s\nafter  %s", before, after)
	}
}

// TestSplitTwoShardsDownFailsClosed: XOR parity tolerates exactly one loss.
func TestSplitTwoShardsDownFailsClosed(t *testing.T) {
	c := newParityCluster(t, 4)
	if err := c.Write(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	c.FailShard(0)
	c.FailShard(3)
	if _, err := c.Read(1); err == nil || !errors.Is(err, fault.ErrUnavailable) {
		t.Fatalf("double loss not rejected: %v", err)
	}
}

// TestSplitParityStaysInLockstep extends the seed lockstep invariant to the
// parity member: its stash must track the data shards exactly.
func TestSplitParityStaysInLockstep(t *testing.T) {
	c := newParityCluster(t, 4)
	r := rng.New(6)
	for i := 0; i < 200; i++ {
		addr := r.Uint64n(90)
		if r.Bool(0.5) {
			if err := c.Write(addr, []byte{byte(addr)}); err != nil {
				t.Fatal(err)
			}
		} else if _, err := c.Read(addr); err != nil {
			t.Fatal(err)
		}
		lens := c.StashLens()
		for _, n := range lens[1:] {
			if n != lens[0] {
				t.Fatalf("op %d: data shards diverged: %v", i, lens)
			}
		}
		if p := c.members[len(c.members)-1].Engine().StashLen(); p != lens[0] {
			t.Fatalf("op %d: parity stash %d, data shards %d", i, p, lens[0])
		}
	}
}

// TestSplitDataAndParityDownFailsClosed: losing a data shard AND the parity
// member exceeds the XOR redundancy budget. Both reads and writes must fail
// loudly, health must attribute both corpses, and replacement must be
// refused until one of them is rebuilt first.
func TestSplitDataAndParityDownFailsClosed(t *testing.T) {
	c := newParityCluster(t, 4)
	if err := c.Write(3, []byte("two losses")); err != nil {
		t.Fatal(err)
	}
	pi := len(c.members) - 1
	c.FailShard(2)
	c.FailShard(pi)
	before := splitFootprint(c)
	if _, err := c.Read(3); err == nil || !errors.Is(err, fault.ErrUnavailable) {
		t.Fatalf("read served with data+parity down: %v", err)
	}
	if err := c.Write(4, []byte("x")); err == nil || !errors.Is(err, fault.ErrUnavailable) {
		t.Fatalf("write accepted with data+parity down: %v", err)
	}
	if after := splitFootprint(c); after != before {
		t.Fatalf("refused accesses mutated the survivors:\nbefore %s\nafter  %s", before, after)
	}
	failed := c.Health().Failed()
	if len(failed) != 2 || failed[0] != 2 || failed[1] != pi {
		t.Fatalf("failed set %v, want [2 %d]", failed, pi)
	}
	// A rebuild needs every other member alive; with two down it must be
	// refused for either corpse rather than produce garbage.
	if err := c.ReplaceMember(2); err == nil {
		t.Fatal("ReplaceMember rebuilt a shard from an incomplete XOR set")
	}
	if err := c.ReplaceMember(pi); err == nil {
		t.Fatal("ReplaceMember rebuilt parity from an incomplete XOR set")
	}
}

// TestSplitAbandonedExchangeFailsMember: a Split member's exchanges cross
// its sealed link like an Independent member's, so a stall or a fail-stop
// that exhausts a one-attempt retry budget abandons the exchange. The member
// has left lockstep and is marked Failed. With parity the survivors carry
// every op and each read rebuilds the lost slice; without it the op fails
// closed as unavailable. Neither ever returns a wrong payload, on the
// sequential path or in pipelined waves, and on a tree small enough that
// the members evict inside most of their accesses.
func TestSplitAbandonedExchangeFailsMember(t *testing.T) {
	kills := map[string]func(in *fault.Injector){
		"stall":     func(in *fault.Injector) { in.StallFor(1, 1) },
		"fail-stop": func(in *fault.Injector) { in.FailStop(1) },
	}
	for name, kill := range kills {
		for _, parity := range []bool{true, false} {
			for _, shape := range []struct {
				name          string
				levels, addrs int
				window        int // 0: sequential Read/Write
			}{{"seq", 8, 24, 0}, {"waves", 8, 24, 8}, {"evict", 4, 230, 8}} {
				t.Run(fmt.Sprintf("%s/parity=%v/%s", name, parity, shape.name), func(t *testing.T) {
					in := fault.NewInjector(fault.Config{Seed: 3})
					c, err := NewCluster(ClusterOptions{Split: true, Parity: parity, SDIMMs: 4, Levels: shape.levels, Seed: 5,
						Key: []byte("abandon-key"), Faults: in, Retry: fault.RetryPolicy{MaxAttempts: 1, Sleep: nop}})
					if err != nil {
						t.Fatal(err)
					}
					do := func(ops []BatchOp) []BatchResult {
						if shape.window > 0 {
							p := c.Pipeline(PipelineOptions{Window: shape.window, Parallelism: 4})
							defer p.Close()
							return p.Do(ops)
						}
						out := make([]BatchResult, len(ops))
						for i, op := range ops {
							if op.Write {
								out[i].Err = c.Write(op.Addr, op.Data)
							} else {
								out[i].Data, out[i].Err = c.Read(op.Addr)
							}
						}
						return out
					}
					want := map[uint64][]byte{}
					writes := func(round int) []BatchOp {
						ops := make([]BatchOp, shape.addrs)
						for a := range ops {
							ops[a] = BatchOp{Addr: uint64(a), Write: true, Data: []byte(fmt.Sprintf("r%d-a%03d", round, a))}
						}
						return ops
					}
					for _, r := range do(writes(0)) {
						if r.Err != nil {
							t.Fatalf("write before the kill: %v", r.Err)
						}
					}
					for _, op := range writes(0) {
						want[op.Addr] = op.Data
					}
					kill(in)
					// Writes, then reads of every address, after the kill.
					ops := writes(1)
					for a := range ops {
						ops = append(ops, BatchOp{Addr: uint64(a)})
					}
					var errs int
					for i, r := range do(ops) {
						op := ops[i]
						switch {
						case r.Err != nil && parity:
							t.Fatalf("op %d (addr %d) failed with parity to carry it: %v", i, op.Addr, r.Err)
						case r.Err != nil:
							if !errors.Is(r.Err, fault.ErrUnavailable) {
								t.Fatalf("op %d failed open: %v", i, r.Err)
							}
							errs++
							if op.Write {
								delete(want, op.Addr) // unknown since the errored write
							}
						case op.Write:
							want[op.Addr] = op.Data
						case want[op.Addr] != nil && !bytes.Equal(r.Data[:len(want[op.Addr])], want[op.Addr]):
							t.Fatalf("read of %d returned a wrong payload %q, want %q", op.Addr, r.Data[:len(want[op.Addr])], want[op.Addr])
						}
					}
					if !parity && errs == 0 {
						t.Fatal("no op failed with a member lost and no parity")
					}
					if failed := c.Health().Failed(); len(failed) != 1 || failed[0] != 1 {
						t.Fatalf("failed members %v, want [1]", failed)
					}
				})
			}
		}
	}
}
