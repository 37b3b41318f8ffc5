package fault

import (
	"sdimm/internal/rng"
	"sdimm/internal/telemetry"
)

// Config is a fault schedule: per-delivery probabilities for each fault
// class. All randomness is derived from Seed, so two injectors with the
// same Config produce byte-identical fault sequences.
type Config struct {
	// Seed drives every fault decision (0 uses 1).
	Seed uint64
	// BitFlip is the probability of flipping one random bit of a frame in
	// flight (channel noise or an active attacker poking ciphertext).
	BitFlip float64
	// MACCorrupt is the probability of entering a transient MAC-key
	// corruption window: for macOps deliveries every frame's tag is
	// damaged, modelling a flipped key register rather than per-frame
	// noise.
	MACCorrupt float64
	// Drop is the probability a frame vanishes entirely.
	Drop float64
	// Duplicate is the probability a frame is delivered twice.
	Duplicate float64
	// Replay is the probability a stale captured frame is re-delivered
	// alongside the current one.
	Replay float64
	// Stall is the probability the link wedges for stallOps deliveries,
	// during which nothing moves in either direction.
	Stall float64
}

// The lengths, in deliveries, of a MAC corruption window and of a stall.
const (
	macOps   = 2
	stallOps = 2
)

// Rate returns the total per-delivery probability that some fault fires —
// the chaos harness uses it to report the effective fault rate.
func (c Config) Rate() float64 {
	return c.BitFlip + c.MACCorrupt + c.Drop + c.Duplicate + c.Replay + c.Stall
}

// Stats counts injected faults across all links of an injector.
type Stats struct {
	Deliveries     uint64
	BitFlips       uint64
	MACCorruptions uint64 // frames damaged inside MAC-corruption windows
	Drops          uint64
	Duplicates     uint64
	Replays        uint64
	Stalls         uint64 // deliveries refused while stalled
	FailStopped    uint64 // deliveries refused because the SDIMM is dead
}

func (s *Stats) add(o Stats) {
	s.Deliveries += o.Deliveries
	s.BitFlips += o.BitFlips
	s.MACCorruptions += o.MACCorruptions
	s.Drops += o.Drops
	s.Duplicates += o.Duplicates
	s.Replays += o.Replays
	s.Stalls += o.Stalls
	s.FailStopped += o.FailStopped
}

// injectorMetrics mirrors Stats into telemetry counters under
// fault.injected.*. The zero value (all-nil counters) records nothing;
// bump guards every increment.
type injectorMetrics struct {
	deliveries     *telemetry.Counter
	bitFlips       *telemetry.Counter
	macCorruptions *telemetry.Counter
	drops          *telemetry.Counter
	duplicates     *telemetry.Counter
	replays        *telemetry.Counter
	stalls         *telemetry.Counter
	failStopped    *telemetry.Counter
}

func bump(c *telemetry.Counter) {
	if c != nil {
		c.Inc()
	}
}

// Injector manufactures per-SDIMM faulty Links from one deterministic
// schedule and carries the runtime controls (fail-stop, forced stalls) the
// chaos harness scripts against.
type Injector struct {
	cfg   Config
	links map[int]*FaultyLink
	tm    injectorMetrics
}

// EnableTelemetry mirrors injected-fault outcomes into reg under the
// fault.injected.* namespace, aggregated across all links (existing and
// future) so the totals line up with Injector.Stats.
func (in *Injector) EnableTelemetry(reg *telemetry.Registry) {
	in.tm = injectorMetrics{
		deliveries:     reg.Counter("fault.injected.deliveries"),
		bitFlips:       reg.Counter("fault.injected.bitflips"),
		macCorruptions: reg.Counter("fault.injected.mac_corruptions"),
		drops:          reg.Counter("fault.injected.drops"),
		duplicates:     reg.Counter("fault.injected.duplicates"),
		replays:        reg.Counter("fault.injected.replays"),
		stalls:         reg.Counter("fault.injected.stalls"),
		failStopped:    reg.Counter("fault.injected.failstops"),
	}
	for _, l := range in.links {
		l.tm = in.tm
	}
}

// NewInjector builds an injector for the given schedule.
func NewInjector(cfg Config) *Injector {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return &Injector{cfg: cfg, links: make(map[int]*FaultyLink)}
}

// Link returns the faulty link for SDIMM idx, creating it on first use.
// Each link gets an independent deterministic stream derived from the
// injector seed and the index.
func (in *Injector) Link(idx int) *FaultyLink {
	if l, ok := in.links[idx]; ok {
		return l
	}
	l := &FaultyLink{
		cfg: in.cfg,
		rnd: rng.New(in.cfg.Seed ^ uint64(0x9e37*idx+0xb5)),
		tm:  in.tm,
	}
	in.links[idx] = l
	return l
}

// FailStop permanently kills SDIMM idx: every subsequent delivery on its
// link fails with ErrFailStop.
func (in *Injector) FailStop(idx int) { in.Link(idx).dead = true }

// Revive clears a fail-stop on SDIMM idx's link — the model for replacement
// hardware arriving in the same slot before a cluster-level rejoin.
func (in *Injector) Revive(idx int) { in.Link(idx).dead = false }

// IsFailStopped reports whether SDIMM idx has been fail-stopped.
func (in *Injector) IsFailStopped(idx int) bool {
	l, ok := in.links[idx]
	return ok && l.dead
}

// StallFor wedges SDIMM idx's link for the next n deliveries.
func (in *Injector) StallFor(idx, n int) { in.Link(idx).stalled += n }

// ClearStall releases any forced stall on SDIMM idx's link.
func (in *Injector) ClearStall(idx int) { in.Link(idx).stalled = 0 }

// Stats aggregates fault counts across all links.
func (in *Injector) Stats() Stats {
	var s Stats
	for _, l := range in.links {
		s.add(l.stats)
	}
	return s
}

// FaultyLink is one SDIMM's unreliable channel. At most one fault class
// fires per delivery (plus an independently running MAC-corruption
// window), which keeps the per-delivery fault rate equal to Config.Rate.
type FaultyLink struct {
	cfg     Config
	rnd     *rng.Source
	history [2][][]byte // recent frames per direction, for replay
	stalled int
	macOps  int // remaining deliveries in a MAC corruption window
	dead    bool
	stats   Stats
	tm      injectorMetrics
}

const historyCap = 16

// Deliver implements Link.
func (l *FaultyLink) Deliver(dir Direction, frame []byte) ([][]byte, error) {
	if l.dead {
		l.stats.FailStopped++
		bump(l.tm.failStopped)
		return nil, ErrFailStop
	}
	if l.stalled > 0 {
		l.stalled--
		l.stats.Stalls++
		bump(l.tm.stalls)
		return nil, ErrStalled
	}
	l.stats.Deliveries++
	bump(l.tm.deliveries)

	// The delivered frame is always a copy: corruption must never reach
	// back into the sender's retained buffers (the Transactor caches its
	// last response frame for ARQ retransmission).
	f := append([]byte(nil), frame...)

	var out [][]byte
	r := l.rnd.Float64()
	switch {
	case r < l.cfg.Drop:
		l.stats.Drops++
		bump(l.tm.drops)
	case r < l.cfg.Drop+l.cfg.BitFlip:
		bit := l.rnd.Intn(len(f) * 8)
		f[bit/8] ^= 1 << (bit % 8)
		l.stats.BitFlips++
		bump(l.tm.bitFlips)
		out = [][]byte{f}
	case r < l.cfg.Drop+l.cfg.BitFlip+l.cfg.Duplicate:
		l.stats.Duplicates++
		bump(l.tm.duplicates)
		out = [][]byte{f, append([]byte(nil), f...)}
	case r < l.cfg.Drop+l.cfg.BitFlip+l.cfg.Duplicate+l.cfg.Replay && len(l.history[dir]) > 0:
		stale := l.history[dir][l.rnd.Intn(len(l.history[dir]))]
		l.stats.Replays++
		bump(l.tm.replays)
		out = [][]byte{f, append([]byte(nil), stale...)}
	case r < l.cfg.Drop+l.cfg.BitFlip+l.cfg.Duplicate+l.cfg.Replay+l.cfg.Stall:
		// The stall swallows this frame and the next stallOps-1 deliveries.
		l.stalled = stallOps - 1
		l.stats.Stalls++
		bump(l.tm.stalls)
		return nil, ErrStalled
	default:
		out = [][]byte{f}
	}

	// A MAC-corruption window damages every frame passing while it lasts,
	// independent of the per-frame fault drawn above.
	if l.macOps == 0 && l.cfg.MACCorrupt > 0 && l.rnd.Bool(l.cfg.MACCorrupt) {
		l.macOps = macOps
	}
	if l.macOps > 0 {
		l.macOps--
		for _, g := range out {
			if len(g) > 0 {
				g[len(g)-1] ^= 0xa5
				l.stats.MACCorruptions++
				bump(l.tm.macCorruptions)
			}
		}
	}

	// Record what was actually observed for future replays.
	h := append(l.history[dir], append([]byte(nil), frame...))
	if len(h) > historyCap {
		h = h[len(h)-historyCap:]
	}
	l.history[dir] = h
	return out, nil
}
