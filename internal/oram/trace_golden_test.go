package oram

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"sdimm/internal/rng"
)

// traceCase is one engine shape driven by an op tape: path mode with and
// without auto-drain, or ring mode at flush interval ring, over a MemStore or
// a SparseStore.
type traceCase struct {
	name      string
	z         int
	ring      int
	levels    int
	addrs     uint64
	threshold int
	noDrain   bool
	sparse    bool
	digest    string
}

// traceDigests pin, per engine shape, everything a seeded tape of Access and
// AccessAt (keep and migrate) calls makes observable: every AccessPlan field,
// every returned payload and block, the stats after every operation, the
// store's write count, every bucket left in the tree (sealed bytes for a
// MemStore), the stash, the randomness state and the ring snapshot. The
// digests were generated at 1442751, while path and ring mode still had
// separate access bodies; any drift in either mode's behaviour shows up here.
// The four /mem digests were re-pinned when the tree top moved into trusted
// memory, which changes only the store's write count (DRAM seals only):
// hashing Writes() plus the rows' writes in its place reproduces the
// earlier digests exactly.
var traceDigests = []traceCase{
	{name: "path-z4-drain/mem", levels: 5, addrs: 55, z: 4, threshold: 1, digest: "40b074483afef06c9a8af9cbf065c8ae7306b33df3e86467cebc0c884c7db56b"},
	{name: "path-z4-drain/sparse", levels: 5, addrs: 55, z: 4, threshold: 1, sparse: true, digest: "915ac08422615b474f35e6685b5ae06c1cfb77cd5513cac7de5269f1e9313f7c"},
	{name: "path-z4-nodrain/mem", levels: 5, addrs: 55, z: 4, threshold: 1, noDrain: true, digest: "c1dcee2abf6b9806a1164d16d68c23eb750cddafee78c7d1b478a8a54389b04e"},
	{name: "path-z4-nodrain/sparse", levels: 5, addrs: 55, z: 4, threshold: 1, noDrain: true, sparse: true, digest: "690205fbd9e2ff98f9797add86f72e59ff75cd636a969ff0e10d839d30774ce3"},
	{name: "ring-a4-z4/mem", levels: 6, addrs: 40, z: 4, ring: 4, threshold: 2, digest: "7d41fe4044c9eaef7e60171af962b7f5032132b01b2323215847a1533cae35a4"},
	{name: "ring-a4-z4/sparse", levels: 6, addrs: 40, z: 4, ring: 4, threshold: 2, sparse: true, digest: "08bf93019fb672ea9e422e979536c41289c870bda8d504a346d099d67339909e"},
	{name: "ring-a2-z2/mem", levels: 7, addrs: 40, z: 2, ring: 2, threshold: 3, digest: "566b794311354434201c0474a1b73acd074b65f247f1bfd9c0e8902fbabe2df9"},
	{name: "ring-a2-z2/sparse", levels: 7, addrs: 40, z: 2, ring: 2, threshold: 3, sparse: true, digest: "82caa22e34acecf5eff375dc3739e898fbfcfd57ae0dfbdea4d26f04e4f1e519"},
}

const (
	traceBlockBytes = 64
	traceOps        = 800
	traceAtBase     = 1000 // AccessAt addresses live at traceAtBase + [0, addrs)
)

// traceHash is a sha256 fed fixed-width fields; byte strings carry their
// length, and nil is told apart from empty.
type traceHash struct{ h hash.Hash }

func (th traceHash) u64(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.BigEndian.PutUint64(b[:], v)
		th.h.Write(b[:])
	}
}

func (th traceHash) bytes(b []byte) {
	if b == nil {
		th.u64(^uint64(0))
		return
	}
	th.u64(uint64(len(b)))
	th.h.Write(b)
}

// ring hashes a ring-eviction state as th.bytes of the byte string the
// engine once serialized it to — u64 counter | u32 phase | u32 n | n × (u64
// bucket, u64 mask), nil in path mode — so the pinned digests still hold.
func (th traceHash) ring(st *RingState) {
	if st == nil {
		th.bytes(nil)
		return
	}
	th.u64(uint64(16+16*len(st.Dead)), st.Counter, uint64(st.Phase)<<32|uint64(len(st.Dead)))
	for _, d := range st.Dead {
		th.u64(d.Bucket, d.Mask)
	}
}

func (th traceHash) bool(v bool) {
	if v {
		th.u64(1)
	} else {
		th.u64(0)
	}
}

func (th traceHash) plan(p AccessPlan) {
	th.u64(p.Addr, p.OldLeaf, p.NewLeaf, uint64(len(p.Path)))
	th.u64(p.Path...)
	th.bool(p.Found)
	th.u64(uint64(p.StashAfter), uint64(p.BackgroundEvicts))
	th.bool(p.BackgroundLeaves == nil)
	th.u64(uint64(len(p.BackgroundLeaves)))
	th.u64(p.BackgroundLeaves...)
}

func (th traceHash) stats(s EngineStats) {
	th.u64(s.Accesses, s.PathReads, s.PathWrites, s.BackgroundEvicts, uint64(s.StashPeak))
}

// runTrace drives c's engine through the seeded tape and returns the digest.
func runTrace(t *testing.T, c traceCase) string {
	t.Helper()
	var store Store
	var ms *MemStore
	if c.sparse {
		store = NewSparseStore(c.z)
	} else {
		var err error
		if ms, err = NewMemStore(c.z, traceBlockBytes, []byte("trace-golden-key")); err != nil {
			t.Fatal(err)
		}
		store = ms
	}
	g := MustGeometry(c.levels)
	e, err := NewEngine(store, NewSparsePosMap(), Options{
		Geometry:          g,
		StashCapacity:     200,
		EvictThreshold:    c.threshold,
		Rand:              rng.New(29),
		DisableAutoDrain:  c.noDrain,
		RingFlushInterval: c.ring,
	})
	if err != nil {
		t.Fatal(err)
	}

	th := traceHash{sha256.New()}
	r := rng.New(2029)
	atPos := make(map[uint64]uint64) // the caller-owned position map AccessAt is driven by
	for i := 0; i < traceOps; i++ {
		op := OpRead
		var data []byte
		if r.Bool(0.5) {
			op = OpWrite
			if !c.sparse {
				data = make([]byte, traceBlockBytes)
				binary.BigEndian.PutUint64(data, r.Uint64())
				data[traceBlockBytes-1] = byte(i)
			}
		}
		th.u64(uint64(i), uint64(op))
		if r.Bool(0.5) {
			out, plan, err := e.Access(r.Uint64n(c.addrs), op, data)
			if err != nil {
				t.Fatalf("%s: op %d Access: %v", c.name, i, err)
			}
			th.plan(plan)
			th.bytes(out)
		} else {
			addr := traceAtBase + r.Uint64n(c.addrs)
			oldLeaf, mapped := atPos[addr]
			if !mapped {
				oldLeaf = r.Uint64n(g.Leaves())
			}
			newLeaf := r.Uint64n(g.Leaves())
			keep := !r.Bool(0.2)
			if keep {
				atPos[addr] = newLeaf
			} else {
				delete(atPos, addr)
			}
			blk, plan, err := e.AccessAt(addr, op, data, oldLeaf, newLeaf, keep)
			if err != nil {
				t.Fatalf("%s: op %d AccessAt: %v", c.name, i, err)
			}
			th.bool(keep)
			th.plan(plan)
			th.u64(blk.Addr, blk.Leaf)
			th.bytes(blk.Data)
		}
		th.stats(e.Stats())
	}

	for _, b := range e.StashBlocks() {
		th.u64(b.Addr, b.Leaf)
		th.bytes(b.Data)
	}
	rs := e.RandState()
	th.u64(rs[:]...)
	th.ring(e.RingState())
	if ms != nil {
		th.u64(ms.Writes())
		for _, idx := range ms.BucketIndices() {
			raw, _ := ms.RawBucket(idx)
			th.u64(idx)
			th.bytes(raw)
		}
	} else {
		for idx := uint64(0); idx < g.Buckets(); idx++ {
			b, err := store.ReadBucket(idx)
			if err != nil {
				t.Fatal(err)
			}
			th.u64(idx, b.Counter)
			for _, s := range b.Slots {
				th.u64(s.Addr, s.Leaf)
			}
		}
	}
	return hex.EncodeToString(th.h.Sum(nil))
}

// TestEngineTraceGolden is the engine's bitwise-equivalence wall: each
// engine shape's tape digest must match the one pinned above.
func TestEngineTraceGolden(t *testing.T) {
	for _, c := range traceDigests {
		if got := runTrace(t, c); got != c.digest {
			t.Errorf("%s: trace digest %s, want %s", c.name, got, c.digest)
		}
	}
}
