package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"sdimm"
	"sdimm/internal/durable"
	"sdimm/internal/fault"
	"sdimm/internal/flight"
	"sdimm/internal/telemetry"
	"sdimm/internal/witness"
)

// Config assembles a Server: the cluster it fronts, the pipeline shape, and
// the serving knobs. The admission controller and the witness monitor run at
// their package constants.
type Config struct {
	// Cluster configures the backing cluster. The server wires its own
	// witness monitor and flight recorder into these options; a LinkTap
	// already present (e.g. an attacker harness) is chained, not replaced.
	Cluster sdimm.ClusterOptions
	// Pipeline shapes the streaming pipeline (zero value = defaults).
	Pipeline sdimm.PipelineOptions
	// DefaultDeadline applies to requests with DeadlineMS 0 (default
	// 250ms).
	DefaultDeadline time.Duration
	// FlightDir, when set, is where the flight recorder auto-dumps on a
	// shed storm, an accepted-request deadline miss, or a witness
	// violation (one dump per trigger kind per process).
	FlightDir string
}

// Serving constants. A connection's slow-start request window starts at
// initialCredit and grows to at most maxCredit, the most requests it may hold
// unanswered; stormFactor × the admission queue limit consecutive sheds (no
// accept in between) are a shed storm. writeTimeout bounds one response
// write, well inside sdimm-serve's 30 s drain budget.
const (
	initialCredit = 1
	maxCredit     = 32
	stormFactor   = 4
	writeTimeout  = 10 * time.Second
)

func (c Config) withDefaults() Config {
	if c.DefaultDeadline == 0 {
		c.DefaultDeadline = 250 * time.Millisecond
	}
	return c
}

// Server is the multi-tenant block-serving front end: TCP connections carry
// framed requests into the admission layer, accepted requests flow through
// the cluster's streaming pipeline, and the telemetry/SLO surface hangs off
// HTTPHandler.
type Server struct {
	cfg  Config
	c    *sdimm.Cluster
	pipe *sdimm.Pipeline
	in   chan *sdimm.AsyncOp
	adm  *Admission
	reg  *telemetry.Registry
	wit  *witness.Monitor
	fr   *flight.Recorder

	ln      net.Listener
	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	tenants map[string]*tenantCounters // guarded by mu
	connWG  sync.WaitGroup
	pipeWG  sync.WaitGroup
	down    atomic.Bool

	start        time.Time
	okCount      atomic.Uint64
	shedStreak   atomic.Uint64
	acceptedDM   atomic.Uint64
	dumpMu       sync.Mutex
	dumped       map[string]bool
	latency      *telemetry.Histogram
	backpressure *telemetry.Counter
	stormThresh  uint64
}

// New builds the cluster and its serving front. The cluster is created
// inside New so the witness tap and flight recorder observe every frame
// from the first access.
func New(cfg Config) (*Server, error) {
	return build(cfg, func(opts sdimm.ClusterOptions) (*sdimm.Cluster, error) {
		return sdimm.NewCluster(opts)
	})
}

// Recover is New over sdimm.RecoverCluster: it rebuilds the cluster from
// its durable state directory (replaying the journal tail) and fronts the
// recovered cluster. The report describes what recovery replayed.
func Recover(cfg Config) (*Server, *durable.RecoveryReport, error) {
	var report *durable.RecoveryReport
	s, err := build(cfg, func(opts sdimm.ClusterOptions) (*sdimm.Cluster, error) {
		c, r, err := sdimm.RecoverCluster(opts)
		report = r
		return c, err
	})
	return s, report, err
}

func build(cfg Config, mk func(sdimm.ClusterOptions) (*sdimm.Cluster, error)) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Cluster.Telemetry == nil {
		cfg.Cluster.Telemetry = telemetry.NewRegistry()
	}
	reg := cfg.Cluster.Telemetry

	s := &Server{
		cfg:     cfg,
		reg:     reg,
		conns:   make(map[net.Conn]struct{}),
		tenants: make(map[string]*tenantCounters),
		dumped:  make(map[string]bool),
		start:   time.Now(),
	}

	s.wit = witness.New(witness.Options{
		Members:     cfg.Cluster.SDIMMs,
		Registry:    reg,
		OnViolation: func(kind string) { s.dumpFlight("witness-" + kind) },
	})

	if cfg.Cluster.Flight == nil {
		cfg.Cluster.Flight = flight.New(cfg.Cluster.SDIMMs, 4096)
	}
	s.fr = cfg.Cluster.Flight

	userTap := cfg.Cluster.LinkTap
	cfg.Cluster.LinkTap = func(sd int, dir fault.Direction, attempt int, frame []byte) {
		s.wit.Tap(sd, dir, attempt, frame)
		if userTap != nil {
			userTap(sd, dir, attempt, frame)
		}
	}

	c, err := mk(cfg.Cluster)
	if err != nil {
		return nil, err
	}
	s.c = c
	s.cfg = cfg

	adm, err := NewAdmission(AdmissionOptions{Capacity: c.Capacity})
	if err != nil {
		c.Close()
		return nil, err
	}
	s.adm = adm
	s.stormThresh = uint64(stormFactor * adm.Limit())

	s.latency = reg.Histogram("serve.latency_us")
	s.backpressure = reg.Counter("serve.backpressure")

	s.pipe = c.Pipeline(cfg.Pipeline)
	s.in = make(chan *sdimm.AsyncOp, 256)
	s.pipeWG.Add(1)
	go func() {
		defer s.pipeWG.Done()
		s.pipe.Serve(s.in)
	}()
	return s, nil
}

// Cluster exposes the backing cluster (tests: positions, crash planning).
func (s *Server) Cluster() *sdimm.Cluster { return s.c }

// Witness exposes the obliviousness monitor.
func (s *Server) Witness() *witness.Monitor { return s.wit }

// Admission exposes the admission controller.
func (s *Server) Admission() *Admission { return s.adm }

// Registry exposes the telemetry registry.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Start listens on addr (e.g. "127.0.0.1:0") and serves connections until
// Shutdown. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.connWG.Add(1)
	go func() {
		defer s.connWG.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			s.mu.Lock()
			if s.down.Load() {
				s.mu.Unlock()
				conn.Close()
				continue
			}
			s.conns[conn] = struct{}{}
			s.mu.Unlock()
			s.connWG.Add(1)
			go func() {
				defer s.connWG.Done()
				s.handleConn(conn)
			}()
		}
	}()
	return ln.Addr().String(), nil
}

// maxTenantLabels caps how many client-chosen tenant names become metric
// label values. A tenant name is up to 255 bytes a client picks, so without
// a cap a client chooses the registry's size; names past the cap are counted
// under tenant="other".
const maxTenantLabels = 64

// tenantLabel turns a client-chosen tenant name into a label value: every
// byte outside [A-Za-z0-9._-] becomes '_', so no name can end the label set
// or add a label of its own, and an empty name is "anon".
func tenantLabel(name string) string {
	if name == "" {
		return "anon"
	}
	b := []byte(name)
	for i, ch := range b {
		if !('a' <= ch && ch <= 'z' || 'A' <= ch && ch <= 'Z' || '0' <= ch && ch <= '9' || ch == '.' || ch == '_' || ch == '-') {
			b[i] = '_'
		}
	}
	return string(b)
}

// tenantCounters are one tenant label's counter handles, resolved once at
// Hello so a request touches neither the registry mutex nor a name build.
type tenantCounters struct {
	connections, requests, ok, errors, missed *telemetry.Counter
	shedOverload, shedDeadline                *telemetry.Counter
}

// tenantCounters returns the handles for tenant, registering the label if
// the cap allows and folding it into "other" if not.
func (s *Server) tenantCounters(tenant string) *tenantCounters {
	s.mu.Lock()
	defer s.mu.Unlock()
	tc := s.tenants[tenant]
	if tc == nil && len(s.tenants) >= maxTenantLabels {
		tenant = "other"
		tc = s.tenants[tenant]
	}
	if tc == nil {
		tc = &tenantCounters{
			connections:  s.reg.Counter("serve.connections", "tenant", tenant),
			requests:     s.reg.Counter("serve.requests", "tenant", tenant),
			ok:           s.reg.Counter("serve.ok", "tenant", tenant),
			errors:       s.reg.Counter("serve.errors", "tenant", tenant),
			missed:       s.reg.Counter("serve.deadline.missed.accepted", "tenant", tenant),
			shedOverload: s.reg.Counter("serve.shed", "reason", "overload", "tenant", tenant),
			shedDeadline: s.reg.Counter("serve.shed", "reason", "deadline", "tenant", tenant),
		}
		s.tenants[tenant] = tc
	}
	return tc
}

// servConn is one connection's state. Its reader and writer pass requests
// through maxCredit fixed slots: free holds the window's room, replies the
// requests awaiting an answer, in arrival order. Only the writer uses credit.
type servConn struct {
	conn    net.Conn
	tc      *tenantCounters
	credit  int
	free    chan *slot
	replies chan *slot
	slots   [maxCredit]slot
}

// slot is one request between reader and writer: admission's decision, the
// reusable op that carries an accepted request through the pipeline, and
// the frame the request was read into, which a write's Data views until the
// slot is freed. All of a connection's ops answer on one channel in
// submission order, as the pipeline delivers, so the next result is the
// oldest accepted request's.
type slot struct {
	op                sdimm.AsyncOp
	id                uint64
	decision          Decision
	arrived, deadline time.Time
	frame             []byte
}

// adjustCredit applies slow-start: grow multiplicatively while the server
// is unpressured, halve on pressure or shed. Returns the window to
// advertise.
func (s *Server) adjustCredit(cn *servConn, ok bool) uint16 {
	if ok && !s.adm.Pressure() {
		cn.credit = min(cn.credit*2, maxCredit)
	} else {
		cn.credit = max(cn.credit/2, 1)
		s.backpressure.Inc()
	}
	return uint16(cn.credit)
}

// handleConn serves one connection: after the hello it is the reader, and a
// writer goroutine answers. The reader takes a free slot before it runs
// admission, so a client past its window stops being read (TCP pushes back)
// and an admitted op reaches the pipeline at once, whatever the client does.
func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	// One buffered reader for the connection's life: a frame's header and
	// payload come out of one read. Deadlines stay on the conn.
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	hello, ok := readMsg(br).(Hello)
	if !ok {
		return
	}
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	if WriteFrame(conn, HelloAck{Credit: initialCredit, BlockSize: uint32(s.c.BlockSize())}.Encode()) != nil {
		return
	}
	cn := &servConn{conn: conn, credit: initialCredit, tc: s.tenantCounters(tenantLabel(hello.Tenant)),
		free: make(chan *slot, maxCredit), replies: make(chan *slot, maxCredit)}
	cn.tc.connections.Inc()
	results := make(chan sdimm.BatchResult, maxCredit)
	for i := range cn.slots {
		cn.slots[i].op.Done = results
		cn.free <- &cn.slots[i]
	}
	written := make(chan struct{})
	go s.writeLoop(cn, written)
	defer func() {
		close(cn.replies)
		<-written
	}()

	// The reader reads one frame ahead into spare, then trades it for the
	// frame of the slot it takes: that slot's request has been answered.
	var spare []byte
	for {
		conn.SetReadDeadline(time.Now().Add(30 * time.Second))
		payload, err := readFrame(br, spare)
		if err != nil {
			return
		}
		req, err := decodeRequest(payload)
		if err != nil {
			return
		}
		cn.tc.requests.Inc()
		sl := <-cn.free
		sl.frame, spare = payload, sl.frame
		budget := time.Duration(req.DeadlineMS) * time.Millisecond
		if budget == 0 {
			budget = s.cfg.DefaultDeadline
		}
		sl.id, sl.arrived = req.ID, time.Now()
		sl.deadline = sl.arrived.Add(budget)
		// The tenant is used for telemetry only — it is not passed to the
		// admission layer, whose Admit signature cannot even express it.
		switch sl.decision = s.adm.Admit(budget, req.Retry); sl.decision {
		case ShedOverload:
			s.noteShed(cn.tc.shedOverload)
		case ShedDeadline:
			s.noteShed(cn.tc.shedDeadline)
		case Accepted:
			s.shedStreak.Store(0)
			sl.op.Op = sdimm.BatchOp{Addr: req.Addr, Write: req.Write}
			if req.Write {
				sl.op.Op.Data = req.Data
			}
			s.in <- &sl.op
		}
		cn.replies <- sl
	}
}

// readMsg reads and decodes one handshake frame: nil on any error.
func readMsg(br *bufio.Reader) any {
	payload, err := ReadFrame(br)
	if err != nil {
		return nil
	}
	msg, _ := Decode(payload)
	return msg
}

// writeLoop answers cn's requests in arrival order and closes done after
// replies. Ready replies are framed into one reused buffer, which goes out in
// one Write before the loop would block: when no request awaits an answer, or
// when the next one's result has not arrived. A slot is freed once its reply
// is written. A failed or timed-out write closes the connection, ending the
// reader, but every accepted op's result is still collected, so depth and
// counters stay exact.
func (s *Server) writeLoop(cn *servConn, done chan<- struct{}) {
	defer close(done)
	var err error
	var buf []byte
	held := make([]*slot, 0, maxCredit) // slots whose replies are in buf
	flush := func() {
		if err == nil && len(buf) > 0 {
			cn.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
			if _, err = cn.conn.Write(buf); err != nil {
				cn.conn.Close()
			}
		}
		for _, sl := range held {
			cn.free <- sl
		}
		buf, held = buf[:0], held[:0]
	}
	for sl := range cn.replies {
		if sl.decision == Accepted && len(sl.op.Done) == 0 {
			flush()
		}
		resp := s.answer(cn, sl)
		if err == nil {
			if buf, err = resp.appendFrame(buf); err != nil {
				cn.conn.Close()
			}
		}
		if held = append(held, sl); len(cn.replies) == 0 {
			flush()
		}
	}
}

// answer is one request's response. For an accepted request it waits for
// the result and settles its accounting: admission's service-time feed, the
// latency histogram and the SLO counters.
func (s *Server) answer(cn *servConn, sl *slot) Response {
	resp := Response{ID: sl.id, Status: StatusOK}
	switch sl.decision {
	case ShedClosing:
		return Response{ID: sl.id, Status: StatusClosing, Credit: 1}
	case ShedOverload:
		resp.Status = StatusShed
	case ShedDeadline:
		resp.Status = StatusDeadline
	case Accepted:
		r := <-sl.op.Done
		elapsed := time.Since(sl.arrived)
		s.adm.Done(elapsed)
		s.latency.Add(uint64(elapsed.Microseconds()))
		switch {
		case r.Err != nil:
			resp.Status, resp.Data = StatusError, []byte(r.Err.Error())
			cn.tc.errors.Inc()
		case time.Now().After(sl.deadline):
			// Accepted and executed, but too late: this is the SLO breach the
			// admission layer exists to prevent — count it loudly and
			// snapshot the flight rings.
			resp.Status = StatusDeadline
			s.acceptedDM.Add(1)
			cn.tc.missed.Inc()
			s.dumpFlight("deadline-miss")
		default:
			if !sl.op.Op.Write {
				resp.Data = r.Data
			}
			s.okCount.Add(1)
			cn.tc.ok.Inc()
		}
	}
	resp.Credit = s.adjustCredit(cn, resp.Status == StatusOK)
	return resp
}

func (s *Server) noteShed(shed *telemetry.Counter) {
	shed.Inc()
	if s.shedStreak.Add(1) == s.stormThresh {
		s.dumpFlight("shed-storm")
	}
}

// dumpFlight snapshots the flight recorder into FlightDir, once per
// trigger kind.
func (s *Server) dumpFlight(trigger string) {
	if s.fr == nil || s.cfg.FlightDir == "" {
		return
	}
	s.dumpMu.Lock()
	if s.dumped[trigger] {
		s.dumpMu.Unlock()
		return
	}
	s.dumped[trigger] = true
	s.dumpMu.Unlock()
	path := filepath.Join(s.cfg.FlightDir, "flight-"+trigger+".trace.json")
	if err := os.MkdirAll(s.cfg.FlightDir, 0o755); err == nil {
		if err := s.fr.DumpFile(path); err == nil {
			s.reg.Counter("serve.flight.dumps", "trigger", trigger).Inc()
			fmt.Fprintf(os.Stderr, "sdimm-serve: flight recorder dumped to %s (%s)\n", path, trigger)
		}
	}
}

// SLOSnapshot is the serving-health summary exposed at /slo.
type SLOSnapshot struct {
	UptimeSec              float64         `json:"uptime_sec"`
	GoodputPerSec          float64         `json:"goodput_per_sec"`
	OK                     uint64          `json:"ok"`
	AcceptedDeadlineMissed uint64          `json:"accepted_deadline_missed"`
	QueueDepth             int             `json:"queue_depth"`
	QueuePeak              int             `json:"queue_peak"`
	QueueLimit             int             `json:"queue_limit"`
	Capacity               float64         `json:"capacity"`
	LatencyP50US           uint64          `json:"latency_p50_us"`
	LatencyP99US           uint64          `json:"latency_p99_us"`
	Health                 []string        `json:"health"`
	Witness                witness.Verdict `json:"witness"`
}

// SLO snapshots current serving health.
func (s *Server) SLO() SLOSnapshot {
	states := s.c.HealthStates()
	names := make([]string, len(states))
	for i, st := range states {
		names[i] = st.String()
	}
	up := time.Since(s.start).Seconds()
	ok := s.okCount.Load()
	return SLOSnapshot{
		UptimeSec:              up,
		GoodputPerSec:          float64(ok) / up,
		OK:                     ok,
		AcceptedDeadlineMissed: s.acceptedDM.Load(),
		QueueDepth:             s.adm.Depth(),
		QueuePeak:              s.adm.PeakDepth(),
		QueueLimit:             s.adm.Limit(),
		Capacity:               s.c.Capacity(),
		LatencyP50US:           s.latency.Quantile(0.5),
		LatencyP99US:           s.latency.Quantile(0.99),
		Health:                 names,
		Witness:                s.wit.Verdict(),
	}
}

// HTTPHandler is the observability surface: the telemetry registry at /
// and /metrics, the SLO snapshot at /slo, and the witness verdict at
// /witness.
func (s *Server) HTTPHandler() http.Handler {
	return telemetry.HandlerMux(s.reg, map[string]http.Handler{
		"/slo": http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(s.SLO())
		}),
		"/witness": s.wit.Handler(),
	})
}

// Shutdown drains the server gracefully: admission closes (new requests
// answer StatusClosing), accepted requests run to completion through the
// pipeline and the durable journal commit point, the pipeline drains, a
// final checkpoint is forced when durability is on, and only then do the
// cluster and connections close. A server killed instead of Shutdown —
// SIGKILL, or a planned crash — recovers through Recover with no committed
// op lost (the crash suites pin bitwise equality).
func (s *Server) Shutdown(ctx context.Context) error {
	if s.down.Swap(true) {
		return nil
	}
	s.adm.Close()
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	s.mu.Unlock()

	// Drain accepted requests: depth falls to zero once every in-flight op
	// has retired and its connection's writer has collected the result.
	drained := false
	for !drained {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
			drained = s.adm.Depth() == 0
		}
	}

	// No submissions can follow: admission is closed and depth is zero.
	close(s.in)
	s.pipeWG.Wait()
	s.pipe.Close()

	var err error
	if s.cfg.Cluster.Durability != nil {
		err = s.c.ForceCheckpoint()
	}

	// Connections now: readers unblock on close and handlers exit.
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.connWG.Wait()

	if cerr := s.c.Close(); err == nil {
		err = cerr
	}
	return err
}
