package freecursive

import (
	"encoding/binary"
	"errors"
	"fmt"

	"sdimm/internal/oram"
	"sdimm/internal/rng"
)

// Functional is a complete, runnable Freecursive ORAM: the recursive
// position maps are real blocks living in the same ORAM tree as the data,
// the PLB caches their contents (write-back, with dirty eviction turning
// into ORAM writes), and only the smallest PosMap is held on chip. This is
// the full algorithm of Fletcher et al. operating on real bytes — the
// timing simulator's Frontend models the same walk, but this type actually
// stores and retrieves the leaves recursively.
type Functional struct {
	engine *Frontend // reuse the address-space arithmetic
	oram   *oram.Engine
	rnd    *rng.Source

	nPosMaps int
	leaves   uint64 // tree leaf count

	onchip []uint32 // leaves of the top PosMap's blocks

	plb    map[uint64]*plbEntry
	plbCap int
	lruHot *plbEntry // most recent
	lruOld *plbEntry // least recent
	pins   []*plbEntry

	stats FunctionalStats
}

// FunctionalStats counts the real recursive ORAM's work.
type FunctionalStats struct {
	DataAccesses  uint64 // public Access calls
	ORAMAccesses  uint64 // accessORAM operations (data + posmap + evictions)
	PLBHits       uint64
	PLBMisses     uint64
	EvictionWrite uint64 // dirty PLB evictions written back
}

// AccessesPerOp reports the recursion overhead actually incurred.
func (s FunctionalStats) AccessesPerOp() float64 {
	if s.DataAccesses == 0 {
		return 0
	}
	return float64(s.ORAMAccesses) / float64(s.DataAccesses)
}

type plbEntry struct {
	addr   uint64
	level  int
	leaves []uint32
	dirty  bool
	pinned bool

	newer, older *plbEntry
}

const unassigned = ^uint32(0)

// The functional ORAM's fixed geometry: Z blocks of blockBytes per bucket,
// and scale 4-byte leaves per PosMap block, so one PosMap block fills one
// data block.
const (
	z          = 4
	blockBytes = 64
	scale      = blockBytes / 4
)

// FunctionalOptions sizes a Functional instance.
type FunctionalOptions struct {
	DataBlocks uint64 // data-ORAM address space
	PosMaps    int    // recursive PosMap levels (≥ 1)
	PLBEntries int    // PLB capacity in PosMap blocks
	Levels     int    // tree levels (capacity must hold data + posmaps)
	Key        []byte
	Seed       uint64
}

// NewFunctional builds the full recursive ORAM.
func NewFunctional(o FunctionalOptions) (*Functional, error) {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.PosMaps < 1 {
		return nil, errors.New("freecursive: functional ORAM needs ≥ 1 recursive PosMap")
	}
	fe, err := New(o.DataBlocks, o.PosMaps, scale, max(o.PLBEntries, 8))
	if err != nil {
		return nil, err
	}
	geom, err := oram.NewGeometry(o.Levels)
	if err != nil {
		return nil, err
	}
	if o.Levels > 32 {
		return nil, errors.New("freecursive: leaves must fit 32-bit PosMap entries")
	}
	if geom.CapacityBlocks(z) < fe.TotalBlocks() {
		return nil, fmt.Errorf("freecursive: tree of %d levels holds %d blocks, need %d",
			o.Levels, geom.CapacityBlocks(z), fe.TotalBlocks())
	}
	store, err := oram.NewMemStore(z, blockBytes, o.Key)
	if err != nil {
		return nil, err
	}
	eng, err := oram.NewEngine(store, nil, oram.Options{
		Geometry:       geom,
		StashCapacity:  200,
		EvictThreshold: 150,
		Rand:           rng.New(o.Seed ^ 0xfc01),
	})
	if err != nil {
		return nil, err
	}
	if o.PLBEntries < 8 {
		o.PLBEntries = 8
	}
	top := fe.counts[o.PosMaps]
	f := &Functional{
		engine:   fe,
		oram:     eng,
		rnd:      rng.New(o.Seed ^ 0xfc02),
		nPosMaps: o.PosMaps,
		leaves:   geom.Leaves(),
		onchip:   make([]uint32, top),
		plb:      make(map[uint64]*plbEntry),
		plbCap:   o.PLBEntries,
	}
	for i := range f.onchip {
		f.onchip[i] = unassigned
	}
	return f, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Stats returns a snapshot.
func (f *Functional) Stats() FunctionalStats { return f.stats }

// StashLen exposes the underlying stash occupancy.
func (f *Functional) StashLen() int { return f.oram.StashLen() }

// Access performs one data-block operation through the full recursion.
func (f *Functional) Access(addr uint64, op oram.Op, data []byte) ([]byte, error) {
	if addr >= f.engine.counts[0] {
		return nil, fmt.Errorf("freecursive: address %d beyond %d data blocks", addr, f.engine.counts[0])
	}
	defer f.unpinAll()
	f.stats.DataAccesses++

	old, fresh, err := f.takeLeaf(1, addr)
	if err != nil {
		return nil, err
	}
	newLeaf := f.randomLeaf()
	if err := f.storeLeaf(1, addr, newLeaf); err != nil {
		return nil, err
	}
	blk, _, err := f.oram.AccessAt(addr, op, data, uint64(old), uint64(newLeaf), true)
	if err != nil {
		return nil, err
	}
	f.stats.ORAMAccesses++
	_ = fresh
	if op == oram.OpRead {
		if blk.Data == nil {
			return make([]byte, blockBytes), nil
		}
		return append([]byte(nil), blk.Data...), nil
	}
	return nil, nil
}

func (f *Functional) randomLeaf() uint32 {
	return uint32(f.rnd.Uint64n(f.leaves))
}

// takeLeaf returns the current leaf of the given block (a level-(lvl-1)
// block looked up in its level-lvl PosMap), assigning a fresh random leaf
// if the block has never existed. It does not modify the entry.
func (f *Functional) takeLeaf(lvl int, child uint64) (uint32, bool, error) {
	if lvl == f.nPosMaps+1 {
		idx := child - f.engine.bases[f.nPosMaps]
		if f.onchip[idx] == unassigned {
			return f.randomLeaf(), true, nil
		}
		return f.onchip[idx], false, nil
	}
	e, err := f.ensureCached(lvl, f.engine.PosMapBlock(lvl, child))
	if err != nil {
		return 0, false, err
	}
	idx := f.entryIndex(lvl, child)
	if e.leaves[idx] == unassigned {
		return f.randomLeaf(), true, nil
	}
	return e.leaves[idx], false, nil
}

// storeLeaf records a block's new leaf in its PosMap.
func (f *Functional) storeLeaf(lvl int, child uint64, leaf uint32) error {
	if lvl == f.nPosMaps+1 {
		f.onchip[child-f.engine.bases[f.nPosMaps]] = leaf
		return nil
	}
	e, err := f.ensureCached(lvl, f.engine.PosMapBlock(lvl, child))
	if err != nil {
		return err
	}
	e.leaves[f.entryIndex(lvl, child)] = leaf
	e.dirty = true
	return nil
}

func (f *Functional) entryIndex(lvl int, child uint64) int {
	return int((child - f.engine.bases[lvl-1]) % scale)
}

// ensureCached brings the level-lvl PosMap block at addr into the PLB
// (fetching it with a real accessORAM on a miss) and pins it for the
// duration of the public Access.
func (f *Functional) ensureCached(lvl int, addr uint64) (*plbEntry, error) {
	if e, ok := f.plb[addr]; ok {
		f.stats.PLBHits++
		f.touch(e)
		f.pin(e)
		return e, nil
	}
	f.stats.PLBMisses++
	old, _, err := f.takeLeaf(lvl+1, addr)
	if err != nil {
		return nil, err
	}
	newLeaf := f.randomLeaf()
	if err := f.storeLeaf(lvl+1, addr, newLeaf); err != nil {
		return nil, err
	}
	blk, plan, err := f.oram.AccessAt(addr, oram.OpRead, nil, uint64(old), uint64(newLeaf), true)
	if err != nil {
		return nil, err
	}
	f.stats.ORAMAccesses++

	e := &plbEntry{addr: addr, level: lvl, leaves: make([]uint32, scale)}
	if plan.Found && blk.Data != nil {
		for i := range e.leaves {
			e.leaves[i] = binary.LittleEndian.Uint32(blk.Data[4*i:])
		}
	} else {
		for i := range e.leaves {
			e.leaves[i] = unassigned
		}
		e.dirty = true // materialized: must eventually exist in the tree
	}
	f.pin(e)
	if err := f.insert(e); err != nil {
		return nil, err
	}
	return e, nil
}

// insert adds an entry to the PLB and evicts (writing back dirty victims)
// until within capacity.
func (f *Functional) insert(e *plbEntry) error {
	f.plb[e.addr] = e
	f.pushFront(e)
	guard := 0
	for len(f.plb) > f.plbCap {
		guard++
		if guard > f.plbCap+8 {
			return errors.New("freecursive: PLB eviction cascade did not converge")
		}
		v := f.lruVictim()
		if v == nil {
			// Everything pinned: tolerate transient overflow; the next
			// unpinned insert will shrink the PLB.
			return nil
		}
		f.remove(v)
		if v.dirty {
			if err := f.writeback(v); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeback stores a dirty PosMap block back into the ORAM.
func (f *Functional) writeback(v *plbEntry) error {
	old, _, err := f.takeLeaf(v.level+1, v.addr)
	if err != nil {
		return err
	}
	newLeaf := f.randomLeaf()
	if err := f.storeLeaf(v.level+1, v.addr, newLeaf); err != nil {
		return err
	}
	buf := make([]byte, blockBytes)
	for i, l := range v.leaves {
		binary.LittleEndian.PutUint32(buf[4*i:], l)
	}
	if _, _, err := f.oram.AccessAt(v.addr, oram.OpWrite, buf, uint64(old), uint64(newLeaf), true); err != nil {
		return err
	}
	f.stats.ORAMAccesses++
	f.stats.EvictionWrite++
	return nil
}

// --- PLB bookkeeping (tiny pinned LRU) ---

func (f *Functional) pin(e *plbEntry) {
	if !e.pinned {
		e.pinned = true
		f.pins = append(f.pins, e)
	}
}

func (f *Functional) unpinAll() {
	for _, e := range f.pins {
		e.pinned = false
	}
	f.pins = f.pins[:0]
}

func (f *Functional) pushFront(e *plbEntry) {
	e.newer, e.older = nil, f.lruHot
	if f.lruHot != nil {
		f.lruHot.newer = e
	}
	f.lruHot = e
	if f.lruOld == nil {
		f.lruOld = e
	}
}

func (f *Functional) remove(e *plbEntry) {
	if e.newer != nil {
		e.newer.older = e.older
	} else {
		f.lruHot = e.older
	}
	if e.older != nil {
		e.older.newer = e.newer
	} else {
		f.lruOld = e.newer
	}
	e.newer, e.older = nil, nil
	delete(f.plb, e.addr)
}

func (f *Functional) touch(e *plbEntry) {
	f.removeFromList(e)
	f.pushFront(e)
}

func (f *Functional) removeFromList(e *plbEntry) {
	if e.newer != nil {
		e.newer.older = e.older
	} else {
		f.lruHot = e.older
	}
	if e.older != nil {
		e.older.newer = e.newer
	} else {
		f.lruOld = e.newer
	}
	e.newer, e.older = nil, nil
}

func (f *Functional) lruVictim() *plbEntry {
	for e := f.lruOld; e != nil; e = e.newer {
		if !e.pinned {
			return e
		}
	}
	return nil
}
