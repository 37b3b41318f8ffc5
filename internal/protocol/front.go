package protocol

import (
	"fmt"

	"sdimm/internal/config"
	"sdimm/internal/dram"
	"sdimm/internal/event"
	"sdimm/internal/freecursive"
	"sdimm/internal/oram"
	"sdimm/internal/rng"
	"sdimm/internal/telemetry"
)

// station is a server that holds one item at a time with two classes of
// work waiting behind it: demand (read misses) is taken before posted (LLC
// writebacks), FIFO within a class. It stands behind the baseline's request
// queue, each SDIMM's local controller and each split group's fetch stage.
type station[T any] struct {
	demand, posted []T
	busy           bool
}

func (s *station[T]) push(item T, posted bool) {
	if posted {
		s.posted = append(s.posted, item)
	} else {
		s.demand = append(s.demand, item)
	}
}

// take hands out the next item and marks the station busy. It refuses while
// the station is busy or empty; the holder clears busy when its item is
// served and takes again.
func (s *station[T]) take() (item T, ok bool) {
	q := &s.demand
	if len(*q) == 0 {
		q = &s.posted
	}
	if s.busy || len(*q) == 0 {
		return item, false
	}
	item, *q = (*q)[0], (*q)[1:]
	s.busy = true
	return item, true
}

// newFrontend builds the Freecursive frontend (PLB + recursive position-map
// resolution) every ORAM backend runs at the CPU.
func newFrontend(cfg config.Config) (*freecursive.Frontend, error) {
	return freecursive.New(dataBlocks(cfg), cfg.ORAM.RecursivePosMaps, cfg.ORAM.PosMapScale,
		cfg.ORAM.PLBBytes/cfg.Org.LineBytes)
}

// sdimmFront is the CPU side every SDIMM protocol shares: the Freecursive
// frontend, the global position map and its RNG, the host links, the
// on-DIMM channels, the counters and the optional tracer. It turns each LLC
// miss or writeback into its chain of accessORAMs and hands every one to
// the embedding backend's accessORAM — the only part a protocol writes
// itself.
type sdimmFront struct {
	eng   *event.Engine
	cfg   config.Config
	fe    *freecursive.Frontend
	pos   *oram.SparsePosMap
	rnd   *rng.Source
	links []*dram.Link    // one per host channel
	chans []*dram.Channel // one per SDIMM, in SDIMM order
	enc   event.Time      // one encrypt/decrypt at the CPU or a secure buffer

	st     BackendStats
	tracer *telemetry.Tracer

	// accessORAM runs one distributed accessORAM and calls cont once the CPU
	// holds the block. posted marks LLC-writeback work that yields to demand
	// misses; lane and cat ("posmap" or "data") are for the backend's spans.
	accessORAM func(addr uint64, op oram.Op, posted bool, lane int, cat string, cont func())
}

// newSDIMMFront validates cfg and builds the front end with its host links.
// The position RNG is seeded cfg.Seed ^ posSalt.
func newSDIMMFront(eng *event.Engine, cfg config.Config, posSalt uint64) (*sdimmFront, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	fe, err := newFrontend(cfg)
	if err != nil {
		return nil, err
	}
	f := &sdimmFront{
		eng: eng,
		cfg: cfg,
		fe:  fe,
		pos: oram.NewSparsePosMap(),
		rnd: rng.New(cfg.Seed ^ posSalt),
		enc: event.Time(cfg.ORAM.EncLatency),
	}
	f.st.MissLatency = &telemetry.Histogram{}
	for c := 0; c < cfg.Org.Channels; c++ {
		f.links = append(f.links, dram.NewLink(eng, cfg.Org, cfg.Timing))
	}
	return f, nil
}

// sdimmTrees builds the on-DIMM channel and tree traffic generator of SDIMMs
// first … first+n-1, each holding a tree of the given shape (rank-pinned
// under the low-power layout).
func (f *sdimmFront) sdimmTrees(first, n, levels, linesPerBucket int) ([]*treeMem, error) {
	numRanks := 0
	if f.cfg.LowPower {
		numRanks = f.cfg.Org.RanksPerDIMM
	}
	layout, err := buildLayout(f.cfg, levels, linesPerBucket, numRanks)
	if err != nil {
		return nil, err
	}
	var tms []*treeMem
	for sd := first; sd < first+n; sd++ {
		ch := dram.NewChannel(f.eng, fmt.Sprintf("sdimm%d", sd), f.cfg.Org, f.cfg.Timing, f.cfg.Org.RanksPerDIMM)
		f.chans = append(f.chans, ch)
		tm, err := newTreeMem(f.eng, []*dram.Channel{ch}, f.cfg.Org, layout, f.cfg.LowPower)
		if err != nil {
			return nil, err
		}
		tms = append(tms, tm)
	}
	return tms, nil
}

// SetTelemetry attaches a metrics registry and an access tracer. The
// registry gains the miss-latency histogram (shared, not copied, with the
// paper-table stats) under protocol.miss_latency; the tracer receives one
// lane per in-flight miss carrying a miss (or writeback.miss) span, plus
// whatever phase spans the backend's accessORAM records inside it.
func (f *sdimmFront) SetTelemetry(reg *telemetry.Registry, tr *telemetry.Tracer) {
	f.tracer = tr
	reg.AddHistogram("protocol.miss_latency", f.st.MissLatency)
}

// Read implements Backend.
func (f *sdimmFront) Read(addr uint64, done func()) {
	f.st.Reads++
	start, lane := f.eng.Now(), f.tracer.Lane()
	f.miss(addr, lane, false, func() {
		f.st.MissLatency.Add(uint64(f.eng.Now() - start))
		f.endSpan("miss", lane, addr, start)
		done()
	})
}

// Write implements Backend.
func (f *sdimmFront) Write(addr uint64) {
	f.st.Writes++
	start, lane := f.eng.Now(), f.tracer.Lane()
	var fin func()
	if f.tracer != nil {
		fin = func() { f.endSpan("writeback.miss", lane, addr, start) }
	}
	f.miss(addr, lane, true, fin)
}

func (f *sdimmFront) endSpan(name string, lane int, addr uint64, start event.Time) {
	if f.tracer == nil {
		return
	}
	f.tracer.CompleteArgs(lane, name, "access", uint64(start), uint64(f.eng.Now()),
		map[string]any{"addr": addr})
	f.tracer.FreeLane(lane)
}

// miss resolves one line address into its accessORAM chain (position-map
// fetches, then the data access) and runs it; done may be nil.
func (f *sdimmFront) miss(addr uint64, lane int, write bool, done func()) {
	ops, err := f.fe.Resolve(addr % dataBlocks(f.cfg))
	if err != nil {
		panic(fmt.Sprintf("protocol: %v resolve: %v", f.cfg.Protocol, err))
	}
	f.runOps(ops, 0, lane, write, done)
}

func (f *sdimmFront) runOps(ops []freecursive.Op, i, lane int, write bool, done func()) {
	if i == len(ops) {
		if done != nil {
			done()
		}
		return
	}
	op := oram.OpRead
	cat := "posmap"
	if i == len(ops)-1 {
		cat = "data"
		if write {
			op = oram.OpWrite
		}
	}
	f.accessORAM(ops[i].Addr, op, write, lane, cat, func() {
		f.runOps(ops, i+1, lane, write, done)
	})
}

// remap looks up addr's leaf in the global tree (a first touch draws one)
// and assigns it a fresh uniform leaf.
func (f *sdimmFront) remap(addr uint64) (oldG, newG uint64) {
	leaves := uint64(1) << (f.cfg.ORAM.Levels - 1)
	oldG, ok := f.pos.Get(addr)
	if !ok {
		oldG = f.rnd.Uint64n(leaves)
	}
	newG = f.rnd.Uint64n(leaves)
	f.pos.Set(addr, newG)
	return oldG, newG
}

// send models one host-link transfer to SDIMM sd; cb (may be nil) fires when
// the last beat lands.
func (f *sdimmFront) send(sd, bytes int, cb func(event.Time)) {
	f.st.HostBytes += uint64(bytes)
	f.links[sd/f.cfg.Org.DIMMsPerChannel].Transfer(bytes, cb)
}

// Channels implements Backend: every bank-modelled channel is on-DIMM.
func (f *sdimmFront) Channels() ([]*dram.Channel, []bool) {
	local := make([]bool, len(f.chans))
	for i := range local {
		local[i] = true
	}
	return f.chans, local
}

// Links implements Backend.
func (f *sdimmFront) Links() []*dram.Link { return f.links }

// Stats implements Backend.
func (f *sdimmFront) Stats() BackendStats { return f.st }

// Frontend exposes the Freecursive frontend (accessORAM-per-miss stats).
func (f *sdimmFront) Frontend() *freecursive.Frontend { return f.fe }
