package serve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sdimm/internal/rng"
)

// LoadOptions drive the closed-loop load generator: Workers clients each
// keep exactly one request in flight (issue, wait, issue), so offered load
// scales with the worker count — the standard way to push a server past
// saturation without open-loop queue explosion.
type LoadOptions struct {
	Addr string
	// Tenant labels this generator's connections (default "loadgen").
	Tenant string
	// Workers is the closed-loop concurrency (default 4).
	Workers int
	// Ops is the total operation budget across workers.
	Ops int
	// Space is the block address space the workload draws from (default
	// 256).
	Space uint64
	// DeadlineMS is the per-request budget (0 = server default).
	DeadlineMS uint32
	// Seed makes the workload deterministic (default 1).
	Seed uint64
}

// Half the generated requests are writes, each of a loadPayload-byte value.
const (
	loadWriteFrac = 0.5
	loadPayload   = 32
)

// LoadReport summarizes one load run.
type LoadReport struct {
	Offered       uint64  `json:"offered"`
	OK            uint64  `json:"ok"`
	Shed          uint64  `json:"shed"`
	Deadline      uint64  `json:"deadline"`
	Closing       uint64  `json:"closing"`
	Errors        uint64  `json:"errors"`
	ElapsedSec    float64 `json:"elapsed_sec"`
	GoodputPerSec float64 `json:"goodput_per_sec"`
	P50MS         float64 `json:"p50_ms"`
	P99MS         float64 `json:"p99_ms"`
}

// RunLoad runs the closed-loop generator to its op budget and reports.
func RunLoad(o LoadOptions) (LoadReport, error) {
	if o.Tenant == "" {
		o.Tenant = "loadgen"
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.Ops <= 0 {
		o.Ops = 1000
	}
	if o.Space == 0 {
		o.Space = 256
	}
	if o.Seed == 0 {
		o.Seed = 1
	}

	var (
		rep     LoadReport
		budget  atomic.Int64
		mu      sync.Mutex
		lats    []float64 // ms, successful ops only
		firstEr error
		wg      sync.WaitGroup
	)
	budget.Store(int64(o.Ops))
	start := time.Now()
	for w := 0; w < o.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := Dial(o.Addr, o.Tenant)
			if err != nil {
				mu.Lock()
				if firstEr == nil {
					firstEr = err
				}
				mu.Unlock()
				return
			}
			defer cl.Close()
			r := rng.Stream(o.Seed, "loadgen/"+o.Tenant, w)
			var myLats []float64
			for budget.Add(-1) >= 0 {
				req := Request{
					Addr:       r.Uint64n(o.Space),
					DeadlineMS: o.DeadlineMS,
				}
				if r.Bool(loadWriteFrac) {
					req.Write = true
					req.Data = []byte(fmt.Sprintf("%-*d", loadPayload, r.Uint64n(1<<32)))
				}
				t0 := time.Now()
				resp, err := cl.Do(req)
				atomic.AddUint64(&rep.Offered, 1)
				if err != nil {
					atomic.AddUint64(&rep.Errors, 1)
					mu.Lock()
					if firstEr == nil {
						firstEr = err
					}
					mu.Unlock()
					return
				}
				switch resp.Status {
				case StatusOK:
					atomic.AddUint64(&rep.OK, 1)
					myLats = append(myLats, float64(time.Since(t0).Microseconds())/1000)
				case StatusShed:
					atomic.AddUint64(&rep.Shed, 1)
				case StatusDeadline:
					atomic.AddUint64(&rep.Deadline, 1)
				case StatusClosing:
					atomic.AddUint64(&rep.Closing, 1)
					return
				default:
					atomic.AddUint64(&rep.Errors, 1)
				}
			}
			mu.Lock()
			lats = append(lats, myLats...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	rep.ElapsedSec = time.Since(start).Seconds()
	if rep.ElapsedSec > 0 {
		rep.GoodputPerSec = float64(rep.OK) / rep.ElapsedSec
	}
	if len(lats) > 0 {
		sort.Float64s(lats)
		rep.P50MS = lats[len(lats)/2]
		rep.P99MS = lats[(len(lats)*99)/100]
	}
	return rep, firstEr
}
