package sdimm

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"strconv"

	"sdimm/internal/blame"
	"sdimm/internal/fault"
	"sdimm/internal/flight"
	"sdimm/internal/oram"
	"sdimm/internal/rng"
	isdimm "sdimm/internal/sdimm"
	"sdimm/internal/seccomm"
	"sdimm/internal/telemetry"
)

// ClusterOptions sizes a distributed functional ORAM with real payloads:
// the Independent protocol of Section III-C (whole accessORAM operations on
// the owning SDIMM, over sealed links) or, with Split set, the Split
// protocol of Section III-D (every block bit-sliced across all members).
type ClusterOptions struct {
	// SDIMMs is the number of secure buffers; must be a power of two ≥ 2.
	SDIMMs int
	// Levels is the global tree height (each SDIMM holds a subtree of
	// Levels - log2(SDIMMs) levels; a Split member holds a shard tree of
	// all Levels).
	Levels int
	// BlockSize is the payload bytes per block (default 64; with Split it
	// must divide by SDIMMs, each member holding BlockSize/SDIMMs bytes).
	BlockSize int
	// Z is the bucket capacity (default 4).
	Z int
	// Split runs the Split protocol: the host owns one shared tree's
	// position map, every access goes to every member, and each member holds
	// one slice of every block (see DESIGN.md, the Split stage set).
	Split bool
	// Parity, with Split, adds one more member holding the XOR of the data
	// slices, so an access survives the loss of any one member.
	Parity bool
	// RingFlushInterval, when > 0, runs every member's engine in
	// ring-eviction mode: reads lift only the target block off the path and
	// writeback is deferred to a deterministic reverse-lexicographic
	// eviction pointer that flushes one path per RingFlushInterval accesses
	// (see DESIGN.md, Backends). 0 keeps the Path ORAM engines. Requires
	// Z ≥ 2 (each written bucket reserves dummy slots); Independent only.
	RingFlushInterval int
	// Key seeds the bucket encryption/MAC keys.
	Key []byte
	// Seed drives leaf assignment (0 uses 1).
	Seed uint64
	// Faults optionally injects deterministic channel faults between
	// seccomm Seal and Open on every member's link (nil = perfect links;
	// on a Split cluster the parity member's link is SDIMMs).
	Faults *fault.Injector
	// Retry bounds per-exchange retransmission and backoff (zero value =
	// defaults: 8 attempts, 50µs base backoff, 5ms cap).
	Retry fault.RetryPolicy
	// LinkTap, when set, observes every frame put on a link before fault
	// injection (attempt 0 = original transmission, >0 = retransmission).
	// The chaos harness uses it to assert retries never change the
	// observable traffic.
	LinkTap func(sd int, dir fault.Direction, attempt int, frame []byte)
	// Telemetry, when set, receives cluster.* access counters, fault.*
	// link-recovery counters, seccomm.* crypto counters, and per-SDIMM
	// health-state gauges with transition counts.
	Telemetry *telemetry.Registry
	// Blame, when set, folds every wave record (sequential accesses
	// included) and the per-SDIMM worker busy spans into the critical-path
	// profiler and its serialization ledger (see internal/blame). Attaching
	// a collector never changes cluster behaviour — it draws no randomness
	// and touches no shared state.
	Blame *blame.Collector
	// Flight, when set, is the always-on flight recorder: it keeps the
	// recent wave records; checkpoints, recoveries, re-homes, reconstructions
	// and membership changes land on the coordinator ring, health
	// transitions and link retry/ARQ activity on the owning member's ring
	// (the parity member's is ring SDIMMs, so size the recorder for every
	// member). Recording is allocation-free; harnesses dump the recorder
	// when a check goes red.
	Flight *flight.Recorder
	// Durability, when set, gives the cluster crash consistency: every
	// committed access is journaled, state is checkpointed every Interval
	// accesses, and RecoverCluster can rebuild the cluster from the state
	// directory after a crash (see DESIGN.md, Durability & crash recovery).
	Durability *DurabilityOptions
}

// withDefaults normalizes the option fields that have defaults, so every
// consumer (construction, fingerprinting, recovery) sees the same values.
func (o ClusterOptions) withDefaults() ClusterOptions {
	if o.BlockSize == 0 {
		o.BlockSize = 64
	}
	if o.Z == 0 {
		o.Z = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// clusterTelemetry bundles the handles a functional cluster updates. All
// handles come from a (possibly nil) registry, so they are always valid —
// with no registry they are unregistered orphans and updates are harmless.
type clusterTelemetry struct {
	accesses, reads, writes, errors *telemetry.Counter
	rehomes, rehomeFailures         *telemetry.Counter
	rehomeAttempts                  *telemetry.Counter
	appendsLost                     *telemetry.Counter
	migrations                      *telemetry.Counter
	reconstructions                 *telemetry.Counter
	checkpoints                     *telemetry.Counter
	replayed                        *telemetry.Counter
	scrubScanned, scrubRepaired     *telemetry.Counter
	scrubUnrecoverable              *telemetry.Counter
	poisonedReads                   *telemetry.Counter
}

func newClusterTelemetry(reg *telemetry.Registry) clusterTelemetry {
	return clusterTelemetry{
		accesses:           reg.Counter("cluster.accesses"),
		reads:              reg.Counter("cluster.reads"),
		writes:             reg.Counter("cluster.writes"),
		errors:             reg.Counter("cluster.errors"),
		rehomes:            reg.Counter("cluster.rehomes"),
		rehomeFailures:     reg.Counter("cluster.rehome_failures"),
		rehomeAttempts:     reg.Counter("cluster.rehome_attempts"),
		appendsLost:        reg.Counter("cluster.appends_lost"),
		migrations:         reg.Counter("cluster.migrations"),
		reconstructions:    reg.Counter("cluster.reconstructions"),
		checkpoints:        reg.Counter("cluster.checkpoints"),
		replayed:           reg.Counter("cluster.recovery.replayed"),
		scrubScanned:       reg.Counter("cluster.scrub.scanned"),
		scrubRepaired:      reg.Counter("cluster.scrub.repaired"),
		scrubUnrecoverable: reg.Counter("cluster.scrub.unrecoverable"),
		poisonedReads:      reg.Counter("cluster.poisoned_reads"),
	}
}

// observe records one completed top-level access.
func (t *clusterTelemetry) observe(op oram.Op, err error) {
	t.accesses.Inc()
	if op == oram.OpRead {
		t.reads.Inc()
	} else {
		t.writes.Inc()
	}
	if err != nil {
		t.errors.Inc()
	}
}

// watchHealth publishes h's state as a per-SDIMM gauge (values: 0 healthy,
// 1 degraded, 2 failed, 3 recovering, 4 draining, 5 removed) and counts
// every transition edge under
// fault.health.transitions{from=...,to=...}. A flight ring, when given,
// additionally records every transition edge in the member's ring buffer.
// With neither a registry nor a ring it leaves the Health unobserved.
func watchHealth(reg *telemetry.Registry, fr *flight.Ring, h *fault.Health, idx int) {
	if reg == nil && fr == nil {
		return
	}
	g := reg.Gauge("fault.health.state", "sdimm", strconv.Itoa(idx))
	g.Set(int64(fault.Healthy))
	h.SetObserver(func(from, to fault.State) {
		g.Set(int64(to))
		reg.Counter("fault.health.transitions", "from", from.String(), "to", to.String()).Inc()
		fr.Record(flight.KindHealth, uint64(from), uint64(to))
	})
}

// flightKind maps a transactor recovery event onto its flight-recorder
// event kind, so each member's ring shows retry/ARQ activity inline with
// that member's health transitions.
func flightKind(ev fault.NotifyEvent) flight.Kind {
	switch ev {
	case fault.NotifyRetry:
		return flight.KindRetry
	case fault.NotifyRetransmit:
		return flight.KindRetransmit
	case fault.NotifyResync:
		return flight.KindResync
	default:
		return flight.KindAbandon
	}
}

// appendAck is the one-byte body of an APPEND acknowledgement.
const appendAck byte = 0x06

// degradeAfter is how many consecutive failed exchanges mark a member
// Degraded, on either protocol.
const degradeAfter = 3

// appendAckBody is the shared APPEND acknowledgement body. It is read-only
// (the transactor copies it into the seal buffer), so one instance serves
// every SDIMM.
var appendAckBody = []byte{appendAck}

// Cluster is a functional distributed ORAM: the host side (position map,
// request routing, the post-commit step) runs here; the members' secure
// buffers execute the accesses against their own encrypted trees. On either
// protocol every host<->buffer message crosses an (in-process) untrusted
// channel sealed with the session cryptography of the paper's Section
// III-B — a channel that is allowed to fail: every exchange runs through a
// fault.Transactor that retries transient faults with byte-identical
// retransmissions, and per-member health tracking degrades buffers instead
// of bricking addresses. On an Independent cluster each access is a whole
// accessORAM operation on the owning SDIMM, and position-map updates commit
// only after the owning buffer has executed the access. On a Split cluster
// every block is bit-sliced across members holding shard trees of identical
// shape; each shard tree is independently encrypted and MACed (the n-MAC
// overhead the paper accepts), and the members' placements never diverge
// because greedy eviction is a pure function of (identical) stash contents.
// With Parity one more member holds the XOR of the data slices; it is an
// ordinary member that is handed a different slice, evolves in the same
// lockstep, and makes the loss of any single member survivable: a member
// whose exchange fails has left lockstep and is marked Failed.
type Cluster struct {
	links     []*fault.Transactor
	blockSize int
	leaves    uint64 // leaves of the global (Independent) or shared (Split) tree
	localBits uint
	blame     *blame.Collector
	// st is the protocol's stage set, chosen once by buildCluster.
	st stages
	// waves counts the wave records stamped so far: the next one's Index.
	waves uint64
	// Position map, RNG, the secure buffers (members) with their health and
	// factory, telemetry, flight recorder, durability.
	durableState

	// elig is pickLeaf's reusable eligible-member scratch.
	elig []int

	// inline runs every sequential access as a one-op run of the wave loop
	// (Window 1, Parallelism 1: no goroutine), so Read, Write, DrainStep and
	// replay take the same path as Pipeline.Do.
	inline *Pipeline

	// Per-SDIMM reusable message scratch. Commands to (and the serve
	// response for) SDIMM i are only ever built inside member i's shares,
	// which run on the caller at Parallelism 1 (every sequential access
	// included) and on worker i otherwise — so per-SDIMM buffers are
	// race-free by the same argument as the links themselves.
	cmdBufs   [][]byte // kind byte + marshalled command body
	serveBufs [][]byte // device-side response body
}

// NewCluster builds a cluster. It mints a device identity per member,
// registers them with an authority, and performs the SEND_PKEY /
// RECEIVE_SECRET handshake for each. With Durability set the
// state directory must be empty (recovering an existing one is
// RecoverCluster's job — silently reinitializing it would clobber
// recoverable state) and a genesis checkpoint is written before the cluster
// accepts traffic.
func NewCluster(opts ClusterOptions) (*Cluster, error) {
	opts = opts.withDefaults()
	c, err := buildCluster(opts)
	if err != nil {
		return nil, err
	}
	if opts.Durability != nil {
		if err := c.createDurable(opts); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// buildCluster builds the cluster core (members, health, the protocol's
// stage set) with no durability attached. opts must already be defaulted.
func buildCluster(opts ClusterOptions) (*Cluster, error) {
	if opts.SDIMMs < 2 || opts.SDIMMs&(opts.SDIMMs-1) != 0 {
		return nil, errors.New("sdimm: SDIMM count must be a power of two ≥ 2")
	}
	c := &Cluster{
		blockSize: opts.BlockSize,
		blame:     opts.Blame,
	}
	c.pos = oram.NewSparsePosMap()
	c.tm = newClusterTelemetry(opts.Telemetry)
	c.flight = opts.Flight
	c.poisoned = make(map[uint64]bool)
	if opts.Telemetry != nil && opts.Faults != nil {
		opts.Faults.EnableTelemetry(opts.Telemetry)
	}
	build := c.independentSpec
	if opts.Split {
		build = c.splitSpec
	}
	spec, err := build(opts)
	if err != nil {
		return nil, err
	}
	// Both builders checked the geometry, so Levels ≥ 1 here.
	c.leaves = uint64(1) << (opts.Levels - 1)
	c.mkMember = c.memberFactory(opts, spec)
	for i := range c.members {
		if err := c.mkMember(i, 0); err != nil {
			return nil, err
		}
		h := fault.NewHealth(degradeAfter)
		watchHealth(opts.Telemetry, opts.Flight.Ring(i), h, i)
		c.health = append(c.health, h)
	}
	c.initElastic(len(c.members))
	c.inline = c.Pipeline(PipelineOptions{Window: 1, Parallelism: 1})
	return c, nil
}

// memberSpec is what one protocol's members differ in; memberFactory builds
// every member of either protocol from it.
type memberSpec struct {
	engine oram.Options // the geometry and the eviction mode; the rest is common
	slice  int          // payload bytes a member holds of every block
	drain  float64      // the transfer queue's drain probability
	// name returns incarnation inc of slot i's device ID, store-key prefix,
	// and engine and buffer RNG streams.
	name func(i int, inc uint64) (id, keyPrefix string, engineRand, bufRand *rng.Source)
}

// independentSpec sets an Independent cluster up: one secure buffer per
// SDIMM, each holding a subtree of the global tree.
func (c *Cluster) independentSpec(opts ClusterOptions) (memberSpec, error) {
	if opts.Parity {
		return memberSpec{}, errors.New("sdimm: Parity needs Split")
	}
	localLevels := opts.Levels - log2int(opts.SDIMMs)
	if localLevels < 2 {
		return memberSpec{}, fmt.Errorf("sdimm: %d levels too shallow for %d SDIMMs", opts.Levels, opts.SDIMMs)
	}
	geom, err := oram.NewGeometry(localLevels)
	if err != nil {
		return memberSpec{}, err
	}
	c.localBits = uint(localLevels - 1)
	c.rnd = rng.New(opts.Seed)
	c.st = independentStages{c}
	c.members = make([]*isdimm.Buffer, opts.SDIMMs)
	return memberSpec{
		engine: oram.Options{Geometry: geom, RingFlushInterval: opts.RingFlushInterval},
		slice:  opts.BlockSize,
		drain:  0.25,
		name: func(i int, inc uint64) (string, string, *rng.Source, *rng.Source) {
			if inc == 0 {
				return fmt.Sprintf("sdimm-%d", i), fmt.Sprintf("sd%d|", i), rng.New(opts.Seed ^ uint64(0x5d*i+11)), rng.New(opts.Seed ^ uint64(0x77*i+5))
			}
			stream := int(inc)<<8 | i
			return fmt.Sprintf("sdimm-%d.%d", i, inc), fmt.Sprintf("sd%d.%d|", i, inc), rng.Stream(opts.Seed, "elastic.engine", stream), rng.Stream(opts.Seed, "elastic.buffer", stream)
		},
	}, nil
}

// splitSpec sets a Split cluster up: one shard holder per data slice, then
// the parity member when there is one, each with a shard tree of all Levels.
func (c *Cluster) splitSpec(opts ClusterOptions) (memberSpec, error) {
	switch {
	case opts.BlockSize%opts.SDIMMs != 0:
		return memberSpec{}, fmt.Errorf("sdimm: block size %d not divisible by %d shards", opts.BlockSize, opts.SDIMMs)
	case opts.RingFlushInterval > 0:
		return memberSpec{}, errors.New("sdimm: RingFlushInterval conflicts with Split")
	}
	geom, err := oram.NewGeometry(opts.Levels)
	if err != nil {
		return memberSpec{}, err
	}
	c.rnd = rng.New(opts.Seed ^ 0x59117)
	s := &splitStages{c: c, shard: opts.BlockSize / opts.SDIMMs, dataShards: opts.SDIMMs}
	c.st = s
	n := opts.SDIMMs
	if opts.Parity {
		n++
	}
	c.members = make([]*isdimm.Buffer, n)
	return memberSpec{
		// All shards must evolve in lockstep: every engine evicts inside its
		// own access, drawing its leaves from the same stream, so every
		// member's stash crosses the threshold on the same access and drains
		// the same paths.
		engine: oram.Options{Geometry: geom},
		slice:  s.shard,
		name: func(i int, inc uint64) (string, string, *rng.Source, *rng.Source) {
			// The parity member is slot SDIMMs and differs in name only. A
			// replacement's engine RNG is irrelevant: rebuildMember copies a
			// live sibling's to restore lockstep.
			id, key := fmt.Sprintf("shard-%d", i), fmt.Sprintf("shard%d", i)
			if i == opts.SDIMMs {
				id, key = "parity", "parity"
			}
			bufSeed := opts.Seed ^ uint64(0x99*i+1)
			if inc > 0 {
				id, key = fmt.Sprintf("%s.%d", id, inc), fmt.Sprintf("%s.%d", key, inc)
				bufSeed = rng.Stream(opts.Seed, "elastic.shard", int(inc)<<8|i).Uint64()
			}
			return id, key + "|", rng.New(opts.Seed ^ 0x3b1d), rng.New(bufSeed)
		},
	}, nil
}

// memberFactory returns the one member factory: it builds incarnation inc
// of slot i (store, engine, buffer, device identity, handshake, transactor)
// and installs it in place. Founding members (incarnation 0) keep the seed's
// original key and RNG derivations, so incarnation 0 always reconstructs
// bit-identically. Later incarnations (joins, replacements and restores)
// derive both from (slot, incarnation), so a new member never aliases state
// with any predecessor in the same slot, and reconstruction is deterministic
// from the options alone.
func (c *Cluster) memberFactory(opts ClusterOptions, spec memberSpec) func(i int, inc uint64) error {
	n := len(c.members)
	c.links = make([]*fault.Transactor, n)
	c.cmdBufs, c.serveBufs = make([][]byte, n), make([][]byte, n)
	// Link-recovery and crypto counters aggregate across all members, so the
	// registry totals line up with the sums over Health().
	var linkMetrics *fault.LinkMetrics
	var commMetrics *seccomm.Metrics
	if opts.Telemetry != nil {
		linkMetrics = fault.NewLinkMetrics(opts.Telemetry)
		commMetrics = seccomm.NewMetrics(opts.Telemetry)
	}
	auth := seccomm.NewAuthority()
	return func(i int, inc uint64) error {
		if i < 0 || i >= n {
			return fmt.Errorf("sdimm: member slot %d out of range", i)
		}
		id, keyPrefix, engineRand, bufRand := spec.name(i, inc)
		store, err := oram.NewMemStore(opts.Z, spec.slice, append([]byte(keyPrefix), opts.Key...))
		if err != nil {
			return err
		}
		eo := spec.engine
		eo.StashCapacity, eo.EvictThreshold, eo.Rand = 200, 150, engineRand
		engine, err := oram.NewEngine(store, nil, eo)
		if err != nil {
			return err
		}
		buf, err := isdimm.NewBuffer(id, engine, 64, spec.drain, bufRand)
		if err != nil {
			return err
		}
		dev, err := seccomm.NewDevice(buf.ID(), nil)
		if err != nil {
			return err
		}
		auth.Register(dev)
		host, devSide, err := seccomm.Handshake(nil, dev, auth)
		if err != nil {
			return err
		}
		host.SetMetrics(commMetrics)
		devSide.SetMetrics(commMetrics)
		tr := &fault.Transactor{Host: host, Dev: devSide, Retry: opts.Retry, Metrics: linkMetrics,
			Serve: func(body []byte) ([]byte, error) { return c.serve(i, body) }}
		if opts.Faults != nil {
			tr.Link = opts.Faults.Link(i)
		}
		if tap := opts.LinkTap; tap != nil {
			tr.Tap = func(dir fault.Direction, attempt int, frame []byte) { tap(i, dir, attempt, frame) }
		}
		if fr := opts.Flight.Ring(i); fr != nil {
			tr.Notify = func(ev fault.NotifyEvent, n int) { fr.Record(flightKind(ev), uint64(n), 0) }
		}
		c.members[i] = buf
		c.links[i] = tr
		return nil
	}
}

func log2int(n int) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// SDIMMs returns the number of members (on a Split cluster the parity
// member included).
func (c *Cluster) SDIMMs() int { return len(c.members) }

// BlockSize returns the payload size per block.
func (c *Cluster) BlockSize() int { return c.blockSize }

// Read returns the payload of addr (zeros if never written). A read of an
// address lost to unrecoverable corruption returns ErrUnrecoverable.
func (c *Cluster) Read(addr uint64) ([]byte, error) {
	r := c.access(BatchOp{Addr: addr})
	return r.Data, r.Err
}

// Write stores up to BlockSize bytes at addr.
func (c *Cluster) Write(addr uint64, data []byte) error {
	if len(data) > c.blockSize {
		return fmt.Errorf("sdimm: payload %d exceeds block size %d", len(data), c.blockSize)
	}
	return c.access(BatchOp{Addr: addr, Write: true, Data: data}).Err
}

// padInto returns data zero-padded to size, staged in *buf's backing array
// (grown once, then reused).
func padInto(buf *[]byte, data []byte, size int) []byte {
	if cap(*buf) < size {
		*buf = make([]byte, size)
	}
	b := (*buf)[:size]
	clear(b)
	copy(b, data)
	return b
}

// Close releases the durability manager (no-op without one) and returns its
// close error. Idempotent.
func (c *Cluster) Close() error {
	if c.dur != nil {
		return c.dur.Close()
	}
	return nil
}

// serve is the device-side command dispatcher: it runs inside the
// fault.Transactor with an opened (authenticated, decrypted) body, hands
// the command to the stage set, which executes the buffer operation, and
// returns the response body to seal. The Transactor guarantees it runs at
// most once per exchange regardless of link faults.
func (c *Cluster) serve(sd int, body []byte) ([]byte, error) {
	if len(body) == 0 {
		return nil, fmt.Errorf("sdimm %d: empty command body", sd)
	}
	// The body opens with its command's Table I opcode, so the buffer
	// dispatches without relying on message length.
	resp, err := c.st.serve(sd, isdimm.Command(body[0]), body[1:])
	if resp == nil && err == nil {
		return nil, fmt.Errorf("sdimm %d: unknown command kind %#02x", sd, body[0])
	}
	return resp, err
}

// serve runs an Independent member's commands: ACCESS, answered with the
// FETCH_RESULT body, and APPEND.
func (s independentStages) serve(sd int, kind isdimm.Command, payload []byte) ([]byte, error) {
	c := s.c
	switch kind {
	case isdimm.CmdAccess:
		// Zero-copy decode: req.Data aliases the opened frame, which stays
		// valid through HandleAccess (the engine copies write payloads in).
		req, err := isdimm.UnmarshalAccessView(payload, c.blockSize)
		if err != nil {
			return nil, err
		}
		if _, _, err := c.members[sd].HandleAccess(req); err != nil {
			return nil, err
		}
		// PROBE until ready (functional: immediately), then FETCH_RESULT.
		if !c.members[sd].HandleProbe() {
			return nil, fmt.Errorf("sdimm: buffer %d has no response", sd)
		}
		resp, err := c.members[sd].HandleFetchResult()
		if err != nil {
			return nil, err
		}
		// The body is sealed (copied) by the transactor before serve's next
		// invocation on this SDIMM, so per-SDIMM scratch is safe to hand out.
		c.serveBufs[sd] = isdimm.AppendBlock(c.serveBufs[sd][:0], resp.Block, resp.Dummy, c.blockSize)
		return c.serveBufs[sd], nil
	case isdimm.CmdAppend:
		blk, dummy, err := isdimm.UnmarshalBlockView(payload, c.blockSize)
		if err != nil {
			return nil, err
		}
		if _, err := c.members[sd].HandleAppend(blk, dummy); err != nil {
			return nil, err
		}
		return appendAckBody, nil
	}
	return nil, nil
}

// serve runs a Split member's one command: ACCESS, the member's slice of
// one op (ShardAccess, which evicts too while the stash runs hot), answered
// with its slice in the block message — so reads and writes put the same
// frames on the wire.
func (s *splitStages) serve(sd int, kind isdimm.Command, payload []byte) ([]byte, error) {
	if kind != isdimm.CmdAccess {
		return nil, nil
	}
	c := s.c
	req, err := isdimm.UnmarshalAccessView(payload, s.shard)
	if err != nil {
		return nil, err
	}
	blk, _, err := c.members[sd].ShardAccess(req)
	if err != nil {
		return nil, err
	}
	c.serveBufs[sd] = isdimm.AppendBlock(c.serveBufs[sd][:0], blk, blk.Data == nil, s.shard)
	return c.serveBufs[sd], nil
}

// accessBody marshals an ACCESS command with a size-byte payload slot into
// SDIMM sd's command scratch. The body is consumed (copied into the link's
// seal buffer) before the next command to the same SDIMM is built.
func (c *Cluster) accessBody(sd int, req isdimm.AccessRequest, size int) []byte {
	b := append(c.cmdBufs[sd][:0], byte(isdimm.CmdAccess))
	b = isdimm.AppendAccess(b, req, size)
	c.cmdBufs[sd] = b
	return b
}

// appendBody marshals an APPEND command into SDIMM sd's command scratch.
func (c *Cluster) appendBody(sd int, blk oram.Block, dummy bool) []byte {
	b := append(c.cmdBufs[sd][:0], byte(isdimm.CmdAppend))
	b = isdimm.AppendBlock(b, blk, dummy, c.blockSize)
	c.cmdBufs[sd] = b
	return b
}

// exchange runs one sealed command/response transaction with buffer sd and
// keeps its health record current. Every error leaving here carries the
// buffer's index and ID. The response is the transactor's scratch: valid
// only until the next exchange on the same SDIMM.
func (c *Cluster) exchange(sd int, op string, body []byte) ([]byte, error) {
	resp, err := c.links[sd].Exchange(body)
	if err != nil {
		c.health[sd].Failure(err)
		return nil, c.wrapErr(sd, op, err)
	}
	c.health[sd].Success()
	return resp, nil
}

// ErrNoHealthySDIMM reports that no cluster member is eligible to receive
// block placements: every SDIMM is failed, draining, or removed.
var ErrNoHealthySDIMM = errors.New("sdimm: no healthy SDIMM available for placement")

// pickLeaf draws a uniformly random global leaf whose owning SDIMM is
// eligible for placement in the health view states — not failed, not
// draining, not removed — so blocks are never placed on a dead buffer and a
// draining member's population only shrinks. Eligible members are enumerated
// once and a single draw spans (eligible × local leaves): unlike the old
// bounded-retry loop this cannot spuriously fail while healthy SDIMMs remain,
// and with every member eligible it consumes exactly the same single
// Uint64n(c.leaves) draw (the eligible count is a power of two), so
// seeded histories are unchanged. An access reads the coordinator's
// snapshot (Pipeline.healthSnap), a membership change the live records;
// identical views consume identical draws. A failed/draining/removed SDIMM is
// public knowledge on the channel, so the skew is not an access-pattern leak.
func (c *Cluster) pickLeaf(states []fault.State) (uint64, error) {
	c.elig = c.elig[:0]
	for i, st := range states {
		if placeable(st) {
			c.elig = append(c.elig, i)
		}
	}
	if len(c.elig) == 0 {
		return 0, ErrNoHealthySDIMM
	}
	x := c.rnd.Uint64n(uint64(len(c.elig)) << c.localBits)
	mask := uint64(1)<<c.localBits - 1
	return uint64(c.elig[x>>c.localBits])<<c.localBits | (x & mask), nil
}

// placeable reports whether a member in state st may be given new leaves:
// every state but Failed, Draining and Removed.
func placeable(st fault.State) bool {
	return st != fault.Failed && st != fault.Draining && st != fault.Removed
}

// access runs one sequential access — Read, Write, DrainStep or a replayed
// record — as a one-op run of the wave loop on the inline pipeline: its one
// wave launches and retires in a single iteration, followed by the
// checkpoint it makes due. An access that succeeded before its checkpoint
// failed reports the checkpoint's error with its payload. A cluster whose
// durability failed (a planned crash point or a real write error) refuses it
// uncounted, as the wave loop's abort does.
func (c *Cluster) access(op BatchOp) BatchResult {
	if err := c.failed(); err != nil {
		return BatchResult{Err: err}
	}
	var r BatchResult
	err := c.inline.run(func(pending []BatchOp, _ bool) ([]BatchOp, bool) {
		return append(pending, op), true
	}, func(res BatchResult) { r = res })
	if r.Err == nil {
		r.Err = err
	}
	return r
}

// BucketWrites sums physical bucket writes across every member's store:
// DRAM seals only, so the tree-top rows each secure buffer keeps on chip
// are not counted. This is the on-DIMM write-traffic metric
// TestClusterRingWriteReduction pins: ring engines defer path writeback to
// the eviction pointer, so the count grows much slower than under Path
// ORAM at the same workload.
func (c *Cluster) BucketWrites() uint64 {
	var n uint64
	for _, b := range c.members {
		if ms, ok := b.Engine().Store().(*oram.MemStore); ok {
			n += ms.Writes()
		}
	}
	return n
}

// SDIMMHealth is one buffer's health as surfaced to operators.
type SDIMMHealth struct {
	Index               int
	ID                  string
	State               fault.State
	ConsecutiveFailures int
	Successes           uint64
	Failures            uint64
	// Link recovery activity.
	Retries     uint64
	Retransmits uint64
	Resyncs     uint64
	Abandoned   uint64
	// LastError is the most recent failure cause ("" if none).
	LastError string
}

// ClusterHealth is a point-in-time view of every buffer's health.
type ClusterHealth struct {
	SDIMMs []SDIMMHealth
}

// Healthy reports whether every buffer is in the Healthy state.
func (h ClusterHealth) Healthy() bool {
	for _, s := range h.SDIMMs {
		if s.State != fault.Healthy {
			return false
		}
	}
	return true
}

// Failed lists the indices of fail-stopped buffers.
func (h ClusterHealth) Failed() []int { return h.inState(fault.Failed) }

// Draining lists the indices of buffers currently being drained.
func (h ClusterHealth) Draining() []int { return h.inState(fault.Draining) }

// Removed lists the indices of detached (removed, not yet replaced) slots.
func (h ClusterHealth) Removed() []int { return h.inState(fault.Removed) }

// inState lists the indices of buffers in state st.
func (h ClusterHealth) inState(st fault.State) []int {
	var out []int
	for _, s := range h.SDIMMs {
		if s.State == st {
			out = append(out, s.Index)
		}
	}
	return out
}

func healthEntry(i int, id string, h *fault.Health, ts fault.TransactorStats) SDIMMHealth {
	succ, fail := h.Totals()
	e := SDIMMHealth{
		Index:               i,
		ID:                  id,
		State:               h.State(),
		ConsecutiveFailures: h.Consecutive(),
		Successes:           succ,
		Failures:            fail,
		Retries:             ts.Retries,
		Retransmits:         ts.Retransmits,
		Resyncs:             ts.Resyncs,
		Abandoned:           ts.Abandoned,
	}
	if err := h.LastError(); err != nil {
		e.LastError = err.Error()
	}
	return e
}

// HealthStates returns a snapshot of every member's health state. Unlike
// Health it reads only the mutex-guarded state machines (no transactor
// stats), so it is safe to call concurrently with a running pipeline — the
// serving front end's capacity ticker polls it while waves are in flight to
// shrink advertised capacity for Degraded/Recovering/Draining members.
func (c *Cluster) HealthStates() []fault.State {
	out := make([]fault.State, len(c.health))
	for i, h := range c.health {
		out[i] = h.State()
	}
	return out
}

// Capacity is the mean CapacityWeight of the members' health states: the
// fraction of full service the cluster can give. It reads only the
// mutex-guarded state machines and allocates nothing, so the serving
// front end's admission calls it on every request.
func (c *Cluster) Capacity() float64 {
	if len(c.health) == 0 {
		return 0
	}
	var sum float64
	for _, h := range c.health {
		sum += h.State().CapacityWeight()
	}
	return sum / float64(len(c.health))
}

// Health returns the current per-member health view (on a Split cluster
// the data shards first, then the parity member when present).
func (c *Cluster) Health() ClusterHealth {
	out := ClusterHealth{SDIMMs: make([]SDIMMHealth, len(c.members))}
	for i, b := range c.members {
		out.SDIMMs[i] = healthEntry(i, b.ID(), c.health[i], c.links[i].Stats())
	}
	return out
}

// splitSet returns the Split stage set, nil on an Independent cluster.
func (c *Cluster) splitSet() *splitStages {
	s, _ := c.st.(*splitStages)
	return s
}

// HasParity reports whether the cluster carries a parity member (Split
// only).
func (c *Cluster) HasParity() bool {
	s := c.splitSet()
	return s != nil && len(c.members) > s.dataShards
}

// FailShard marks member i (on a Split cluster: data shards 0..SDIMMs-1,
// SDIMMs = parity) fail-stopped. Tests and the chaos harness use it to model
// a member dying mid-run.
func (c *Cluster) FailShard(i int) {
	if i >= 0 && i < len(c.health) {
		c.health[i].MarkFailed(fault.ErrFailStop)
	}
}

// others lists every member index but i, ascending: the sources member i's
// slices and buckets are the XOR of.
func (c *Cluster) others(i int) []int {
	out := make([]int, 0, len(c.members)-1)
	for j := range c.members {
		if j != i {
			out = append(out, j)
		}
	}
	return out
}

// xorAcross sets dst to the XOR of slice(j) over the source members and
// returns it — the one cross-member XOR behind the parity slice of a write,
// the reconstruction of a read, and every bucket and stash rebuild. With a
// parity member the members' slices of any block XOR to zero, so each is
// the XOR of all the others.
func xorAcross(dst []byte, sources []int, slice func(j int) []byte) []byte {
	clear(dst)
	for _, j := range sources {
		subtle.XORBytes(dst, dst, slice(j))
	}
	return dst
}
