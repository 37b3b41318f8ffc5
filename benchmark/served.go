package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sdimm"
	"sdimm/internal/serve"
)

const (
	openLoopRate   = 4000.0 // requests per second over both tenants
	closedInFlight = 32     // requests kept in flight over both tenants
	sloP99us       = 10000.0
	// deadlineMS is each request's budget at the server. It is far beyond
	// anything a healthy run needs, on purpose: admission estimates queue
	// drain time as depth × whole-request latency, so with 64 requests
	// credited a single 40 ms hiccup of the host makes a 2 s budget look
	// infeasible and the request is refused. A refused request is a failed
	// operation here, and a noisy neighbour is not a defect of the program.
	// The latency limit is applied by the benchmark to what it measures.
	deadlineMS = 30000
	zipfHot    = 1.1
)

// servedAddr is the shadow state of one address under concurrent requests.
// Writes to one address are serialised by mu, so versions land in order; a
// read that overlaps a write may see either side of it, which is the window
// [acked when the read was issued, issued when it completed].
type servedAddr struct {
	mu     sync.Mutex
	issued atomic.Uint64
	acked  atomic.Uint64
}

// tenant is one connection with its own address range and key popularity.
type tenant struct {
	name  string
	cl    *serve.Client
	base  uint64
	space uint64
	zipf  float64
}

// served is a running server on loopback with its tenants connected and the
// address space prefilled.
type served struct {
	srv     *serve.Server
	tenants []*tenant
	shadow  []servedAddr

	log *spanLog // traced runs: one span per request, client send → response

	// why counts failed requests by cause, for the run's notes.
	whyMu sync.Mutex
	why   map[string]int
}

func (s *served) fail(cause string) bool {
	s.whyMu.Lock()
	if s.why == nil {
		s.why = map[string]int{}
	}
	s.why[cause]++
	s.whyMu.Unlock()
	return false
}

// verdict explains a response that is not a checked success.
func verdict(resp serve.Response, err error) string {
	if err != nil {
		return "transport: " + err.Error()
	}
	return "status " + serve.StatusString(resp.Status)
}

func newServed(sc scale, obs observers) (*served, error) {
	srv, err := serve.New(serve.Config{
		Cluster:  clusterOptions(sc, false, "", obs),
		Pipeline: sdimm.PipelineOptions{Window: window, Parallelism: parallelism},
	})
	if err != nil {
		return nil, err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{srv: srv, shadow: make([]servedAddr, sc.space)}
	half := sc.space / connections
	for i, name := range []string{"uniform", "hot"} {
		cl, err := serve.Dial(addr, name)
		if err != nil {
			s.close()
			return nil, err
		}
		t := &tenant{name: name, cl: cl, base: uint64(i) * half, space: half}
		if name == "hot" {
			t.zipf = zipfHot
		}
		s.tenants = append(s.tenants, t)
	}
	if err := s.prefill(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *served) close() {
	for _, t := range s.tenants {
		t.cl.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
}

// request sends one operation and checks the answer. Any status but OK, any
// transport error and any payload outside the version window is a failure.
func (s *served) request(ti int, o op, buf, scratch []byte) bool {
	t := s.tenants[ti]
	sh := &s.shadow[o.addr]
	if s.log != nil {
		defer s.log.close(s.log.open("request", laneClient+ti, 0))
	}
	if o.write {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		ver := sh.issued.Add(1)
		fillPayload(buf, o.addr, ver)
		resp, err := t.cl.Do(serve.Request{Addr: o.addr, Write: true, Data: buf, DeadlineMS: deadlineMS})
		if err != nil || resp.Status != serve.StatusOK {
			return s.fail(verdict(resp, err))
		}
		sh.acked.Store(ver)
		return true
	}
	lo := sh.acked.Load()
	resp, err := t.cl.Do(serve.Request{Addr: o.addr, DeadlineMS: deadlineMS})
	if err != nil || resp.Status != serve.StatusOK {
		return s.fail(verdict(resp, err))
	}
	if ver, ok := payloadVersion(resp.Data, o.addr, scratch); !ok || ver < lo || ver > sh.issued.Load() {
		return s.fail("payload outside the version window")
	}
	return true
}

// prefill writes version 1 to every address, each tenant over its own
// connection with a full credit window in flight.
func (s *served) prefill() error {
	var wg sync.WaitGroup
	var bad atomic.Int64
	for ti, t := range s.tenants {
		var next atomic.Uint64
		for w := 0; w < closedInFlight/connections; w++ {
			wg.Add(1)
			go func(ti int, t *tenant) {
				defer wg.Done()
				buf, scratch := make([]byte, blockSize), make([]byte, blockSize)
				for {
					off := next.Add(1) - 1
					if off >= t.space {
						return
					}
					if !s.request(ti, op{addr: t.base + off, write: true}, buf, scratch) {
						bad.Add(1)
					}
				}
			}(ti, t)
		}
	}
	wg.Wait()
	if n := bad.Load(); n > 0 {
		return fmt.Errorf("served prefill: %d writes failed", n)
	}
	return nil
}

// sampleSlices cuts a phase that several goroutines drive into n slices on a
// fixed grid: it wakes at each boundary and reads the completed-operation
// counter and the CPU clock.
func sampleSlices(start time.Time, n int, each time.Duration, done *atomic.Int64) []timeSlice {
	slices := make([]timeSlice, n)
	last, lastOps, lastCPU := start, int64(0), cpuMicros()
	for i := range slices {
		time.Sleep(time.Until(start.Add(time.Duration(i+1) * each)))
		now, ops, cpu := time.Now(), done.Load(), cpuMicros()
		slices[i] = timeSlice{ops: int(ops - lastOps), wall: now.Sub(last), cpu: cpu - lastCPU}
		last, lastOps, lastCPU = now, ops, cpu
	}
	return slices
}

// closedLoop keeps closedInFlight requests in flight (half per tenant) for
// the given time, or until each worker has done opsPerWorker when that is
// positive. Each worker draws from its own seeded stream, so the set of
// operations is a function of the seed.
func (s *served) closedLoop(seed uint64, round string, seconds float64, opsPerWorker int) phase {
	var p phase
	perTenant := closedInFlight / connections
	type workerOut struct {
		samples []float64
		failed  int
	}
	outs := make([]workerOut, len(s.tenants)*perTenant)
	var done atomic.Int64
	var wg sync.WaitGroup
	m := startMeter()
	cpu := cpuMicros()
	n, each := sliceGrid(seconds)
	end := m.start.Add(time.Duration(n) * each)
	for ti, t := range s.tenants {
		for w := 0; w < perTenant; w++ {
			wg.Add(1)
			go func(ti int, t *tenant, w int, out *workerOut) {
				defer wg.Done()
				gen := newOpGen(seed, fmt.Sprintf("closed/%s/%s/%d", round, t.name, w), t.base, t.space, t.zipf)
				buf, scratch := make([]byte, blockSize), make([]byte, blockSize)
				for n := 0; ; n++ {
					start := time.Now()
					if opsPerWorker > 0 {
						if n >= opsPerWorker {
							return
						}
					} else if !start.Before(end) {
						return
					}
					if !s.request(ti, gen.next(), buf, scratch) {
						out.failed++
					}
					out.samples = append(out.samples, float64(time.Since(start).Nanoseconds())/1e3)
					done.Add(1)
				}
			}(ti, t, w, &outs[ti*perTenant+w])
		}
	}
	var slices []timeSlice
	if opsPerWorker <= 0 {
		slices = sampleSlices(m.start, n, each, &done)
	}
	wg.Wait()
	cpu = cpuMicros() - cpu
	p.Ops = int(done.Load())
	m.stop(&p)
	for i := range outs {
		p.Samples = append(p.Samples, outs[i].samples...)
		p.Failed += outs[i].failed
	}
	if slices == nil {
		slices = []timeSlice{{ops: p.Ops, wall: time.Duration(p.Seconds * float64(time.Second)), cpu: cpu}}
	}
	p.setSlices(slices)
	return p
}

// openResult is one open-loop phase: latencies timed from each request's due
// time, per tenant, and how late the generator itself ran.
type openResult struct {
	Attempted int
	Failed    int
	Seconds   float64
	Latency   [][]float64 // microseconds from due time to response, per tenant
	Late      []float64   // microseconds from due time to actual send
}

// pooled interleaves the tenants' latencies. Every tenant is offered the same
// number of requests at the same rate, so the result is in time order to
// within one arrival, which is what summarize asks for.
func (r openResult) pooled() []float64 {
	all := make([]float64, 0, len(r.Latency)*len(r.Latency[0]))
	for i := range r.Latency[0] {
		for _, l := range r.Latency {
			all = append(all, l[i])
		}
	}
	return all
}

// openLoop offers Poisson arrivals at rate requests per second, split evenly
// over the tenants, for the given time. A request is sent when it is due
// whether or not earlier ones have been answered; each is timed from its due
// time, so a stall is charged to every request that waited behind it.
func (s *served) openLoop(seed uint64, round string, rate, seconds float64) openResult {
	res := openResult{Latency: make([][]float64, len(s.tenants))}
	perTenant := rate / float64(len(s.tenants))
	n := int(perTenant * seconds)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	for ti, t := range s.tenants {
		wg.Add(1)
		go func(ti int, t *tenant) {
			defer wg.Done()
			due := poissonDue(seed, "due/"+round+"/"+t.name, perTenant, n)
			gen := newOpGen(seed, "open/"+round+"/"+t.name, t.base, t.space, t.zipf)
			lat := make([]float64, n)
			late := make([]float64, n)
			var failed atomic.Int64
			// The bound keeps a stalled server from growing goroutines without
			// limit; when it binds, the dispatcher runs late and the lateness
			// is charged to the waiting requests like any other stall.
			sem := make(chan struct{}, 512)
			var reqs sync.WaitGroup
			for i := 0; i < n; i++ {
				at := start.Add(time.Duration(due[i] * float64(time.Second)))
				if d := time.Until(at); d > 0 {
					time.Sleep(d)
				}
				sem <- struct{}{}
				o := gen.next()
				late[i] = float64(time.Since(at).Nanoseconds()) / 1e3
				reqs.Add(1)
				go func(i int, o op, at time.Time) {
					defer reqs.Done()
					buf, scratch := make([]byte, blockSize), make([]byte, blockSize)
					if !s.request(ti, o, buf, scratch) {
						failed.Add(1)
					}
					lat[i] = float64(time.Since(at).Nanoseconds()) / 1e3
					<-sem
				}(i, o, at)
			}
			reqs.Wait()
			mu.Lock()
			res.Latency[ti] = lat
			res.Late = append(res.Late, late...)
			res.Attempted += n
			res.Failed += int(failed.Load())
			mu.Unlock()
		}(ti, t)
	}
	wg.Wait()
	res.Seconds = time.Since(start).Seconds()
	return res
}
