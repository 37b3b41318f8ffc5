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

// request is one pending line operation.
type request struct {
	addr  uint64
	write bool
	done  func()
	start event.Time
}

// FreecursiveBackend is the paper's baseline: the full Freecursive ORAM
// controller at the CPU, with the unified tree striped across all host
// channels (subtree-packed layout, top levels optionally cached on chip).
// The backend serves one accessORAM at a time — its throughput is bound by
// host-channel bandwidth, which is exactly the bottleneck the SDIMM
// protocols attack.
type FreecursiveBackend struct {
	eng    *event.Engine
	cfg    config.Config
	fe     *freecursive.Frontend
	engine *oram.Engine
	tm     *treeMem
	chans  []*dram.Channel
	enc    event.Time

	q  station[request] // one accessORAM chain at a time, reads first
	st BackendStats
}

// NewFreecursive builds the baseline backend.
func NewFreecursive(eng *event.Engine, cfg config.Config) (*FreecursiveBackend, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	fe, err := newFrontend(cfg)
	if err != nil {
		return nil, err
	}
	geom, err := oram.NewGeometry(cfg.ORAM.Levels)
	if err != nil {
		return nil, err
	}
	engine, err := oram.NewEngine(oram.NewSparseStore(cfg.ORAM.Z), oram.NewSparsePosMap(), oram.Options{
		Geometry:       geom,
		StashCapacity:  cfg.ORAM.StashCapacity,
		EvictThreshold: cfg.ORAM.EvictThreshold,
		Rand:           rng.New(cfg.Seed ^ 0xf4ee),
	})
	if err != nil {
		return nil, err
	}
	b := &FreecursiveBackend{
		eng:    eng,
		cfg:    cfg,
		fe:     fe,
		engine: engine,
		enc:    event.Time(cfg.ORAM.EncLatency),
	}
	b.st.MissLatency = &telemetry.Histogram{}
	b.chans = hostChannels(eng, cfg)
	layout, err := buildLayout(cfg, cfg.ORAM.Levels, cfg.ORAM.LinesPerBucket(), 0)
	if err != nil {
		return nil, err
	}
	b.tm, err = newTreeMem(eng, b.chans, cfg.Org, layout, false)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// Read implements Backend.
func (b *FreecursiveBackend) Read(addr uint64, done func()) {
	b.st.Reads++
	b.q.push(request{addr: addr, done: done, start: b.eng.Now()}, false)
	b.pump()
}

// Write implements Backend.
func (b *FreecursiveBackend) Write(addr uint64) {
	b.st.Writes++
	b.q.push(request{addr: addr, write: true}, true)
	b.pump()
}

func (b *FreecursiveBackend) pump() {
	req, ok := b.q.take()
	if !ok {
		return
	}
	ops, err := b.fe.Resolve(req.addr % dataBlocks(b.cfg))
	if err != nil {
		panic(fmt.Sprintf("protocol: freecursive resolve: %v", err))
	}
	b.runOps(req, ops, 0)
}

// runOps performs the accessORAM chain serially: each op reads a path,
// waits for the data (+ decrypt), writes it back, then the next op starts.
func (b *FreecursiveBackend) runOps(req request, ops []freecursive.Op, i int) {
	if i == len(ops) {
		if !req.write {
			b.st.MissLatency.Add(uint64(b.eng.Now() - req.start))
			req.done()
		}
		b.q.busy = false
		b.pump()
		return
	}
	op := oram.OpRead
	if req.write && i == len(ops)-1 {
		op = oram.OpWrite
	}
	_, plan, err := b.engine.Access(ops[i].Addr, op, nil)
	if err != nil {
		panic(fmt.Sprintf("protocol: freecursive access: %v", err))
	}
	b.st.AccessORAMs++
	b.st.BgEvictions += uint64(plan.BackgroundEvicts)

	// Main path plus any background-eviction paths, chained serially.
	// plan.Path aliases engine scratch clobbered by the next Access; the
	// replay closures run after later ops, so capture an owned copy.
	paths := [][]uint64{append([]uint64(nil), plan.Path...)}
	for _, leaf := range plan.BackgroundLeaves {
		paths = append(paths, b.engine.Geometry().Path(leaf, nil))
	}
	b.runPaths(paths, 0, func() {
		b.runOps(req, ops, i+1)
	})
}

func (b *FreecursiveBackend) runPaths(paths [][]uint64, i int, done func()) {
	if i == len(paths) {
		done()
		return
	}
	b.tm.accessPath(paths[i], func() {
		b.eng.After(b.enc, func(event.Time) { b.runPaths(paths, i+1, done) })
	})
}

// Channels implements Backend.
func (b *FreecursiveBackend) Channels() ([]*dram.Channel, []bool) {
	return b.chans, make([]bool, len(b.chans))
}

// Links implements Backend.
func (b *FreecursiveBackend) Links() []*dram.Link { return nil }

// Stats implements Backend.
func (b *FreecursiveBackend) Stats() BackendStats { return b.st }

// Frontend exposes the Freecursive frontend (for accessORAM-per-miss stats).
func (b *FreecursiveBackend) Frontend() *freecursive.Frontend { return b.fe }
