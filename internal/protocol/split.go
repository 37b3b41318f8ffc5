package protocol

import (
	"fmt"

	"sdimm/internal/config"
	"sdimm/internal/event"
	"sdimm/internal/oram"
	"sdimm/internal/rng"
)

// splitOp is one accessORAM executed by a split group.
type splitOp struct {
	addr    uint64
	op      oram.Op
	oldLeaf uint64 // leaf within the group's tree
	newLeaf uint64
	keep    bool // false: the block migrates to another group (indep-split)
	posted  bool // LLC writeback: yields to demand accesses
	// onData fires when the CPU holds the (reassembled) block.
	onData func()

	// path is the functional outcome, captured at submit time so that queue
	// reordering can never reorder ORAM state transitions.
	path []uint64
}

// splitGroup is one Split-protocol ORAM spread across a set of member
// SDIMMs (Section III-D). Every bucket is bit-sliced: each member stores
// 1/k of every block, 1/k of the metadata, and its own MAC. One logical
// engine tracks placement (all shards evolve in lockstep — greedy eviction
// is a pure function of stash contents); each member's internal channel
// carries the shard-sized path traffic.
type splitGroup struct {
	front  *sdimmFront // engine clock, host links and counters, shared by all groups
	engine *oram.Engine
	tms    []*treeMem // one per member SDIMM
	first  int        // global index of the first member; members are consecutive
	rnd    *rng.Source

	metaShare int // metadata bytes per bucket per member on the host bus
	fetchResp int // FETCH_STASH response bytes per member
	listBytes int // RECEIVE_LIST payload per member

	fetch  station[splitOp] // the fetch stage (stage A)
	drains int              // in-flight background-evict traffic generators
}

func newSplitGroup(front *sdimmFront, levels, first, k int, seed uint64) (*splitGroup, error) {
	cfg := front.cfg
	if k < 2 {
		return nil, fmt.Errorf("protocol: split group needs ≥ 2 members, got %d", k)
	}
	// Shard sizing: data Z*B/k + metadata share + an own MAC per shard.
	metaBytes := cfg.ORAM.Z*8 + 16
	metaShare := (metaBytes + k - 1) / k
	shardBytes := cfg.ORAM.Z*cfg.ORAM.BlockBytes/k + metaShare + 8
	shardLines := (shardBytes + cfg.Org.LineBytes - 1) / cfg.Org.LineBytes

	engine, err := oram.NewEngine(oram.NewSparseStore(cfg.ORAM.Z), nil, oram.Options{
		Geometry:         oram.MustGeometry(levels),
		StashCapacity:    cfg.ORAM.StashCapacity,
		EvictThreshold:   cfg.ORAM.EvictThreshold,
		Rand:             rng.New(seed ^ 0x5b17),
		DisableAutoDrain: true, // the CPU directs eviction for all shards
	})
	if err != nil {
		return nil, err
	}
	// Note: byte-granular packing (Layout.BucketBytes) does not pay here —
	// a 160 B 2-way shard spans 3 lines wherever it starts — so shards are
	// stored line-aligned.
	tms, err := front.sdimmTrees(first, k, levels, shardLines)
	if err != nil {
		return nil, err
	}
	return &splitGroup{
		front:     front,
		engine:    engine,
		tms:       tms,
		first:     first,
		rnd:       rng.New(seed ^ 0xe71c),
		metaShare: metaShare,
		fetchResp: cfg.ORAM.BlockBytes/k + 8,
		listBytes: 16 + (levels-cfg.ORAM.CachedLevels)*(cfg.ORAM.Z+2),
	}, nil
}

// submit enqueues one accessORAM on the group's controller. Demand
// accesses (read misses) bypass posted ones (LLC writebacks). The
// functional state transition happens here, in submission order; the
// pipeline replays it as bus traffic later. The accessed block (migrated
// out when keep is false) is returned so an indep-split caller can place
// it in the destination group immediately.
func (g *splitGroup) submit(op splitOp) oram.Block {
	blk, plan, err := g.engine.AccessAt(op.addr, op.op, nil, op.oldLeaf, op.newLeaf, op.keep)
	if err != nil {
		panic(fmt.Sprintf("protocol: split access (group at sdimm %d): %v", g.first, err))
	}
	// The op is queued and replayed after later submits; plan.Path is
	// engine scratch by then, so the op takes an owned copy.
	op.path = append([]uint64(nil), plan.Path...)
	g.fetch.push(op, op.posted)
	g.pump()
	return blk
}

// pump starts the next op when the fetch stage (internal shard reads +
// metadata) is free; the host handshake and writeback stage of the
// previous op overlaps with it, as a real controller would pipeline.
func (g *splitGroup) pump() {
	if op, ok := g.fetch.take(); ok {
		g.run(op)
	}
}

// broadcast sends bytes to every member's host link; done fires when all
// transfers complete.
func (g *splitGroup) broadcast(bytes int, done func()) {
	remaining := len(g.tms)
	arrived := func(event.Time) {
		remaining--
		if remaining == 0 {
			done()
		}
	}
	for i := range g.tms {
		g.front.send(g.first+i, bytes, arrived)
	}
}

// readShards reads path on every member's internal channel, calling done
// once all complete.
func (g *splitGroup) readShards(path []uint64, done func()) {
	remaining := len(g.tms)
	for _, tm := range g.tms {
		tm.readPath(path, func() {
			remaining--
			if remaining == 0 {
				done()
			}
		})
	}
}

func (g *splitGroup) writeShards(path []uint64) {
	for _, tm := range g.tms {
		tm.writePath(path)
	}
}

// run executes one accessORAM over the group (the numbered steps of
// Section III-D). Stage A: FETCH_DATA plus the metadata reads — the data
// shards flow into the members' stashes over their internal channels while
// the metadata crosses the host links concurrently (the two streams share
// no resource). Stage B: reassembly, FETCH_STASH, RECEIVE_LIST, and the
// local writeback; the next op's stage A overlaps with it.
func (g *splitGroup) run(op splitOp) {
	g.front.st.AccessORAMs++
	effLevels := len(op.path) - g.front.cfg.ORAM.CachedLevels
	if effLevels < 1 {
		effLevels = 1
	}
	metaBytes := g.metaShare * effLevels

	// Stage A: FETCH_DATA command, then data shards (internal) and path
	// metadata (host) in parallel.
	g.broadcast(16, func() {
		remaining := 2
		join := func() {
			remaining--
			if remaining != 0 {
				return
			}
			// Stage A complete: free the fetch station for the next op.
			g.fetch.busy = false
			g.pump()
			g.stageB(op)
		}
		g.readShards(op.path, join)
		g.broadcast(metaBytes, join)
	})
}

// stageB finishes one access: metadata reassembly, FETCH_STASH,
// RECEIVE_LIST, writeback, and any background eviction.
func (g *splitGroup) stageB(op splitOp) {
	g.front.eng.After(g.front.enc, func(event.Time) {
		g.broadcast(g.fetchResp, func() {
			g.front.eng.After(g.front.enc, func(event.Time) {
				op.onData()
				g.broadcast(g.listBytes, func() {
					g.writeShards(op.path)
					g.maybeEvict(0)
				})
			})
		})
	})
}

// maybeEvict performs CPU-directed background evictions while the mirrored
// stash runs hot. Eviction traffic rides alongside the pipeline (it
// contends on the buses naturally); at most one eviction chain runs at a
// time.
func (g *splitGroup) maybeEvict(n int) {
	if n >= 8 || !g.engine.NeedsDrain() || (n == 0 && g.drains > 0) {
		return
	}
	if n == 0 {
		g.drains++
	}
	leaf := g.rnd.Uint64n(g.engine.Geometry().Leaves())
	if err := g.engine.EvictPath(leaf); err != nil {
		panic(fmt.Sprintf("protocol: split eviction (group at sdimm %d): %v", g.first, err))
	}
	g.front.st.BgEvictions++
	path := g.engine.Geometry().Path(leaf, nil)
	// Eviction command + list to every member, then the local read/write.
	g.broadcast(g.listBytes, func() {
		g.readShards(path, func() {
			g.writeShards(path)
			if g.engine.NeedsDrain() && n+1 < 8 {
				g.maybeEvict(n + 1)
				return
			}
			g.drains--
			g.pump()
		})
	})
}

// insert adds a migrated block to the group's (mirrored) stash — the
// indep-split APPEND path. A hot stash triggers a background drain.
func (g *splitGroup) insert(blk oram.Block) error {
	if err := g.engine.StashInsert(blk); err != nil {
		return err
	}
	g.maybeEvict(0)
	return nil
}

// GroupedBackend serves both Split and Indep-Split, the way the paper
// presents them (Section III-D, Figure 7e): the global tree is partitioned
// Independent-style by leaf MSBs into groups, and every group runs the Split
// protocol across its share of the SDIMMs. Split is the one-group case —
// every access engages all SDIMMs and no block ever migrates. With two groups
// each access engages only half the SDIMMs (low latency, from Split) while
// the halves serve accesses in parallel (throughput, from Independent), and
// remapped blocks migrate between halves behind an APPEND broadcast.
type GroupedBackend struct {
	*sdimmFront
	groups    []*splitGroup
	groupBits uint // leaf bits within one group's tree
}

// NewSplit builds the Split backend: one group spanning all SDIMMs.
func NewSplit(eng *event.Engine, cfg config.Config) (*GroupedBackend, error) {
	return newGrouped(eng, cfg, 1, 0x517a)
}

// NewIndepSplit builds the combined backend: two groups of half the SDIMMs
// each. It requires ≥ 4 SDIMMs.
func NewIndepSplit(eng *event.Engine, cfg config.Config) (*GroupedBackend, error) {
	if cfg.NumSDIMMs < 4 {
		return nil, fmt.Errorf("protocol: indep-split needs ≥ 4 SDIMMs, got %d", cfg.NumSDIMMs)
	}
	return newGrouped(eng, cfg, 2, 0x1d59)
}

// newGrouped cuts the SDIMMs into groups (a power of two) of consecutive
// members. Group h's engine and eviction RNGs derive from Seed ^ h·0x9191,
// which is Seed itself for Split's only group.
func newGrouped(eng *event.Engine, cfg config.Config, groups int, posSalt uint64) (*GroupedBackend, error) {
	front, err := newSDIMMFront(eng, cfg, posSalt)
	if err != nil {
		return nil, err
	}
	levels := cfg.ORAM.Levels - int(log2(groups))
	b := &GroupedBackend{sdimmFront: front, groupBits: uint(levels - 1)}
	front.accessORAM = b.accessORAM
	per := cfg.NumSDIMMs / groups
	for h := 0; h < groups; h++ {
		g, err := newSplitGroup(front, levels, h*per, per, cfg.Seed^uint64(h*0x9191))
		if err != nil {
			return nil, err
		}
		b.groups = append(b.groups, g)
	}
	return b, nil
}

// accessORAM submits one access to the group that owns the block's old leaf
// and, when the new leaf falls in another group, migrates the block there.
func (b *GroupedBackend) accessORAM(addr uint64, op oram.Op, posted bool, _ int, _ string, cont func()) {
	oldG, newG := b.remap(addr)
	mask := uint64(1)<<b.groupBits - 1
	h := int(oldG >> b.groupBits)
	hNew := int(newG >> b.groupBits)
	keep := h == hNew

	blk := b.groups[h].submit(splitOp{
		addr:    addr,
		op:      op,
		oldLeaf: oldG & mask,
		newLeaf: newG & mask,
		keep:    keep,
		posted:  posted,
		onData: func() {
			// The data is at the CPU: the miss proceeds while the APPEND
			// broadcast (there is none with a single group) rides the links
			// in the background.
			cont()
			if len(b.groups) > 1 {
				b.appendBroadcast()
			}
		},
	})
	if !keep {
		// Functional migration happens now, in submission order; the
		// broadcast later carries only (timed) bytes.
		blk.Leaf = newG & mask
		if err := b.groups[hNew].insert(blk); err != nil {
			panic(fmt.Sprintf("protocol: indep-split append into group %d: %v", hNew, err))
		}
	}
}

// appendBroadcast sends one shard-sized APPEND to every SDIMM (real shards
// to the new group's members on migration, dummies elsewhere), preserving
// the Independent protocol's destination obfuscation. Placement already
// happened at submit; only the bus traffic is modelled here.
func (b *GroupedBackend) appendBroadcast() {
	shard := b.cfg.ORAM.BlockBytes/len(b.groups[0].tms) + 8
	for sd := 0; sd < b.cfg.NumSDIMMs; sd++ {
		b.send(sd, shard, nil)
	}
}
