package sdimm

import (
	"strings"
	"testing"

	"sdimm/internal/oram"
	"sdimm/internal/rng"
)

// TestCommandTableMatchesPaper pins the Table I encodings.
func TestCommandTableMatchesPaper(t *testing.T) {
	cases := []struct {
		cmd   Command
		long  bool
		write bool
		cas   uint32
	}{
		{CmdSendPKey, false, false, 0x0},
		{CmdReceiveSecret, true, true, 0x0},
		{CmdAccess, true, true, 0x0},
		{CmdProbe, false, false, 0x8},
		{CmdFetchResult, false, false, 0x10},
		{CmdAppend, true, true, 0x0},
		{CmdFetchData, false, false, 0x18},
		{CmdFetchStash, true, true, 0x18},
		{CmdReceiveList, true, true, 0x0},
	}
	for _, c := range cases {
		e := Table(c.cmd)
		if e.Long != c.long || e.Write != c.write || e.RAS != 0 || e.CAS != c.cas {
			t.Errorf("%v encoding = %+v, want long=%v write=%v cas=%#x", c.cmd, e, c.long, c.write, c.cas)
		}
	}
}

func TestCommandStrings(t *testing.T) {
	if CmdAccess.String() != "ACCESS" || CmdReceiveList.String() != "RECEIVE_LIST" {
		t.Fatal("command names wrong")
	}
	if !strings.Contains(Command(99).String(), "99") {
		t.Fatal("unknown command name")
	}
}

func TestWireRoundTrip(t *testing.T) {
	for _, c := range []Command{CmdSendPKey, CmdReceiveSecret, CmdAccess, CmdProbe,
		CmdFetchResult, CmdAppend, CmdFetchData, CmdFetchStash, CmdReceiveList} {
		payload := []byte("body-" + c.String())
		e := Table(c)
		w := Encode(c, payload)
		got, body, err := Decode(w)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if got != c {
			t.Fatalf("decoded %v as %v", c, got)
		}
		if e.Long && string(body) != string(payload) {
			t.Fatalf("%v payload = %q", c, body)
		}
	}
}

func TestDecodeRejections(t *testing.T) {
	cases := []Wire{
		{Write: false, RAS: 5, CAS: 0},                                     // outside reserved block
		{Write: false, RAS: 0, CAS: 0x20},                                  // unknown short command
		{Write: true, RAS: 0, CAS: 0},                                      // empty payload
		{Write: true, RAS: 0, CAS: 0, Payload: []byte{byte(CmdProbe)}},     // short opcode in long frame
		{Write: true, RAS: 0, CAS: 0x18, Payload: []byte{byte(CmdAccess)}}, // wrong CAS for opcode
	}
	for i, w := range cases {
		if _, _, err := Decode(w); err == nil {
			t.Errorf("bad wire %d accepted", i)
		}
	}
}

// TestAreaEstimate pins the paper's Section IV-B numbers.
func TestAreaEstimate(t *testing.T) {
	a := Area()
	if a.ControllerMM2 != 0.47 || a.BufferMM2 != 0.42 {
		t.Fatalf("area = %+v", a)
	}
	if a.Total() >= 1.0 {
		t.Fatalf("total area %v not under 1 mm² as the paper claims", a.Total())
	}
}

func newBuffer(t *testing.T, levels int) *Buffer {
	t.Helper()
	g := oram.MustGeometry(levels)
	eng, err := oram.NewEngine(oram.NewSparseStore(4), nil, oram.Options{
		Geometry:       g,
		StashCapacity:  200,
		EvictThreshold: 150,
		Rand:           rng.New(77),
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBuffer("sdimm-0", eng, 16, 0.25, rng.New(78))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewBufferValidation(t *testing.T) {
	g := oram.MustGeometry(4)
	eng, _ := oram.NewEngine(oram.NewSparseStore(4), nil, oram.Options{
		Geometry: g, StashCapacity: 10, EvictThreshold: 5, Rand: rng.New(1),
	})
	r := rng.New(2)
	if _, err := NewBuffer("x", nil, 4, 0.5, r); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := NewBuffer("x", eng, 0, 0.5, r); err == nil {
		t.Error("zero queue accepted")
	}
	if _, err := NewBuffer("x", eng, 4, 1.5, r); err == nil {
		t.Error("bad probability accepted")
	}
	if _, err := NewBuffer("x", eng, 4, 0.5, nil); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestAccessKeepWriteRespondsDummy(t *testing.T) {
	b := newBuffer(t, 8)
	_, _, err := b.HandleAccess(AccessRequest{
		Addr: 1, Op: oram.OpWrite, OldLeaf: 5, NewLeaf: 9, Keep: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !b.HandleProbe() {
		t.Fatal("no response ready after access")
	}
	r, err := b.HandleFetchResult()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Dummy {
		t.Fatal("kept write should produce a dummy response")
	}
	if b.HandleProbe() {
		t.Fatal("mailbox not drained")
	}
}

func TestAccessReadReturnsBlock(t *testing.T) {
	b := newBuffer(t, 8)
	// Install then read back keeping it local.
	b.HandleAccess(AccessRequest{Addr: 7, Op: oram.OpWrite, OldLeaf: 3, NewLeaf: 4, Keep: true})
	b.HandleFetchResult()
	_, _, err := b.HandleAccess(AccessRequest{Addr: 7, Op: oram.OpRead, OldLeaf: 4, NewLeaf: 6, Keep: true})
	if err != nil {
		t.Fatal(err)
	}
	r, _ := b.HandleFetchResult()
	if r.Dummy || r.Block.Addr != 7 || r.Block.Leaf != 6 {
		t.Fatalf("read response = %+v", r)
	}
}

func TestAccessMigrationReturnsBlockAndRemoves(t *testing.T) {
	b := newBuffer(t, 8)
	b.HandleAccess(AccessRequest{Addr: 7, Op: oram.OpWrite, OldLeaf: 3, NewLeaf: 4, Keep: true})
	b.HandleFetchResult()
	_, _, err := b.HandleAccess(AccessRequest{Addr: 7, Op: oram.OpWrite, OldLeaf: 4, NewLeaf: 12345, Keep: false})
	if err != nil {
		t.Fatal(err)
	}
	r, _ := b.HandleFetchResult()
	if r.Dummy || r.Block.Addr != 7 {
		t.Fatalf("migrating write must return the block: %+v", r)
	}
	if _, ok := b.Engine().StashGet(7); ok {
		t.Fatal("migrated block still resident")
	}
}

func TestFetchResultEmptyFails(t *testing.T) {
	b := newBuffer(t, 6)
	if _, err := b.HandleFetchResult(); err == nil {
		t.Fatal("empty mailbox fetch succeeded")
	}
}

func TestAppendDummyDiscarded(t *testing.T) {
	b := newBuffer(t, 6)
	forced, err := b.HandleAppend(oram.Block{}, true)
	if err != nil || forced != nil {
		t.Fatalf("dummy append: %v %v", forced, err)
	}
	if b.TransferQueueLen() != 0 {
		t.Fatal("dummy entered queue")
	}
	if b.Stats().DummyAppends != 1 {
		t.Fatal("dummy not counted")
	}
}

func TestAppendQueuesAndVacancyAdmits(t *testing.T) {
	b := newBuffer(t, 8)
	leaves := b.Engine().Geometry().Leaves()
	if _, err := b.HandleAppend(oram.Block{Addr: 100, Leaf: 3 % leaves}, false); err != nil {
		t.Fatal(err)
	}
	if b.TransferQueueLen() != 1 {
		t.Fatal("append did not queue")
	}
	// Install a block, then migrate it out: the departure must admit the
	// queued block into the stash.
	b.HandleAccess(AccessRequest{Addr: 1, Op: oram.OpWrite, OldLeaf: 0, NewLeaf: 1, Keep: true})
	b.HandleFetchResult()
	b.HandleAccess(AccessRequest{Addr: 1, Op: oram.OpWrite, OldLeaf: 1, NewLeaf: 999999, Keep: false})
	b.HandleFetchResult()
	if b.TransferQueueLen() != 0 {
		t.Fatal("vacancy did not admit queued block")
	}
}

func TestAppendOverflowForcesDrain(t *testing.T) {
	g := oram.MustGeometry(8)
	eng, _ := oram.NewEngine(oram.NewSparseStore(4), nil, oram.Options{
		Geometry: g, StashCapacity: 200, EvictThreshold: 150, Rand: rng.New(5),
	})
	b, _ := NewBuffer("s", eng, 2, 0, rng.New(6)) // p=0: only overflow forces drains
	leaves := g.Leaves()
	var forcedSeen bool
	for i := uint64(0); i < 5; i++ {
		forced, err := b.HandleAppend(oram.Block{Addr: 1000 + i, Leaf: i % leaves}, false)
		if err != nil {
			t.Fatal(err)
		}
		if forced != nil {
			forcedSeen = true
		}
		if b.TransferQueueLen() > 2 {
			t.Fatalf("queue exceeded capacity: %d", b.TransferQueueLen())
		}
	}
	if !forcedSeen {
		t.Fatal("overflow never forced a drain")
	}
	if b.Stats().TransferOverflows == 0 {
		t.Fatal("overflow not counted")
	}
}

func TestProbabilisticDrainHappens(t *testing.T) {
	g := oram.MustGeometry(8)
	eng, _ := oram.NewEngine(oram.NewSparseStore(4), nil, oram.Options{
		Geometry: g, StashCapacity: 200, EvictThreshold: 150, Rand: rng.New(5),
	})
	b, _ := NewBuffer("s", eng, 64, 1.0, rng.New(6)) // p=1: drain on every access
	b.HandleAppend(oram.Block{Addr: 50, Leaf: 2}, false)
	_, extra, err := b.HandleAccess(AccessRequest{Addr: 1, Op: oram.OpWrite, OldLeaf: 0, NewLeaf: 1, Keep: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(extra) != 1 {
		t.Fatalf("p=1 drain produced %d extra plans", len(extra))
	}
	if b.TransferQueueLen() != 0 {
		t.Fatal("queue not drained")
	}
	if b.Stats().ExtraAccesses != 1 {
		t.Fatal("extra access not counted")
	}
}

func TestShardAccessKeepsBlock(t *testing.T) {
	b := newBuffer(t, 8)
	blk, plan, err := b.ShardAccess(AccessRequest{Addr: 9, Op: oram.OpWrite, OldLeaf: 2, NewLeaf: 5})
	if err != nil {
		t.Fatal(err)
	}
	if blk.Addr != 9 || blk.Leaf != 5 {
		t.Fatalf("shard block = %+v", blk)
	}
	if len(plan.Path) != 8 {
		t.Fatalf("plan path %v", plan.Path)
	}
}
