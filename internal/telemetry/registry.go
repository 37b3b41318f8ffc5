// Package telemetry is the single metrics source of truth for SDIMM
// clusters and the event-driven simulator: a concurrency-safe registry of
// counters, gauges and latency histograms (all allocation-free on
// the update path), a span-based access tracer exporting Chrome
// trace-event JSON (openable in Perfetto / chrome://tracing), a live
// expvar-style HTTP endpoint, and a periodic snapshot logger.
//
// Metric handles are resolved once, at construction time, by name —
// optionally with labels folded into the name via Name — and updated
// through atomic operations afterwards, so instrumentation never shows up
// in hot-path profiles. Every accessor is nil-receiver-safe: a component
// built without a registry gets unregistered orphan metrics and the
// instrumentation code stays unconditional.
package telemetry

import (
	"maps"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically growing event count, safe for concurrent use.
type Counter struct {
	n uint64
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { atomic.AddUint64(&c.n, d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { atomic.AddUint64(&c.n, 1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return atomic.LoadUint64(&c.n) }

// Gauge is an instantaneous signed level (queue depth, health state),
// safe for concurrent use.
type Gauge struct {
	v int64
}

// Set stores the current level.
func (g *Gauge) Set(v int64) { atomic.StoreInt64(&g.v, v) }

// Add moves the level by d (negative to decrease).
func (g *Gauge) Add(d int64) { atomic.AddInt64(&g.v, d) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return atomic.LoadInt64(&g.v) }

// Histogram is a latency histogram with one log-linear bucket layout
// shared by every histogram: each value below 32 has its own bucket, and
// each power-of-two range [2^e, 2^(e+1)) above is cut into 32 equal
// buckets, so 1 920 buckets cover all of uint64 and a bucket is never
// wider than 1/32 of its lower edge. The zero value is ready to
// use; a quiesced histogram compares with ==. Updates are atomic and
// allocation-free; a concurrent Quantile sees a near-point-in-time view.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	sum     atomic.Uint64
	n       atomic.Uint64
	max     atomic.Uint64
}

const (
	subBits     = 5
	subBuckets  = 1 << subBits                // buckets per power-of-two range
	histBuckets = (65 - subBits) * subBuckets // 0 … 31, then 32 per range 2^5 … 2^63
)

// bucketOf returns the index of the bucket holding v.
func bucketOf(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	shift := bits.Len64(v) - 1 - subBits
	return shift*subBuckets + int(v>>shift)
}

// upperEdge returns the largest value bucket i holds.
func upperEdge(i int) uint64 {
	if i < subBuckets {
		return uint64(i)
	}
	shift := i/subBuckets - 1
	lo := uint64(subBuckets+i%subBuckets) << shift
	return lo + (1<<shift - 1)
}

// Add records one sample.
func (h *Histogram) Add(v uint64) {
	h.sum.Add(v)
	h.n.Add(1)
	h.raiseMax(v)
	h.buckets[bucketOf(v)].Add(1)
}

// raiseMax lifts the recorded max to v if v is larger.
func (h *Histogram) raiseMax(v uint64) {
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// N returns the number of samples.
func (h *Histogram) N() uint64 { return h.n.Load() }

// Sum returns the total of all samples.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Mean returns the mean sample, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	n := h.N()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Max returns the largest sample seen.
func (h *Histogram) Max() uint64 { return h.max.Load() }

// Merge folds another histogram's samples into this one, bucket by bucket.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil {
		return
	}
	h.sum.Add(o.sum.Load())
	h.n.Add(o.n.Load())
	h.raiseMax(o.max.Load())
	for i := range h.buckets {
		h.buckets[i].Add(o.buckets[i].Load())
	}
}

// Quantile returns an upper bound for the q-quantile (q is clamped to
// (0, 1]): the upper edge of the bucket holding that order statistic,
// capped at Max, so it exceeds the exact value by at most 1/32 of it. With
// no samples it returns 0.
func (h *Histogram) Quantile(q float64) uint64 {
	n := h.N()
	if n == 0 {
		return 0
	}
	q = min(max(q, 0), 1)
	target := min(max(uint64(math.Ceil(q*float64(n))), 1), n) // the order statistic's rank
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= target {
			return min(upperEdge(i), h.Max())
		}
	}
	return h.Max()
}

// Name folds label key/value pairs into a metric name:
// Name("dram.reads", "chan", "sdimm0") => "dram.reads{chan=sdimm0}".
// Labels are sorted by key so the same set always produces the same name.
func Name(base string, kv ...string) string {
	if len(kv) == 0 {
		return base
	}
	if len(kv)%2 != 0 {
		panic("telemetry: Name needs key/value pairs")
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteByte('=')
		b.WriteString(p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// Registry is a concurrency-safe named-metric store. Handles are resolved
// under a mutex (get-or-create); updates through the returned handles are
// lock-free. The zero value is not usable — call NewRegistry. All methods
// tolerate a nil receiver by handing out unregistered orphan metrics, so
// instrumented components work unchanged without telemetry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name (with labels folded
// in), creating it on first use.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return &Counter{}
	}
	name = Name(name, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	name = Name(name, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	if r == nil {
		return &Histogram{}
	}
	name = Name(name, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// handles copies the name-to-handle maps under the lock, so Merge, Snapshot
// and WritePrometheus read the metrics without holding it. A nil registry
// has none.
func (r *Registry) handles() (map[string]*Counter, map[string]*Gauge, map[string]*Histogram) {
	if r == nil {
		return nil, nil, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return maps.Clone(r.counters), maps.Clone(r.gauges), maps.Clone(r.hists)
}

// Merge folds every metric of src into r: counters and histograms add, and
// gauges take src's level (a gauge is an instantaneous reading, so the most
// recently merged source wins). Missing metrics are created.
//
// Merging is order-independent for counters and histograms: their
// accumulation is exact integer arithmetic, so any merge order of the same
// sources produces a bit-identical aggregate. Gauges are the exception by design — an
// instantaneous reading has no meaningful pooled value. The parallel
// campaign runner relies on this: per-shard registries merged in any job
// order agree bitwise no matter how many workers ran the shards.
//
// A nil receiver or nil src is a no-op. src must be quiescent (no
// concurrent writers) for an exact merge.
func (r *Registry) Merge(src *Registry) {
	if r == nil {
		return
	}
	counters, gauges, hists := src.handles()
	for k, c := range counters {
		r.Counter(k).Add(c.Value())
	}
	for k, g := range gauges {
		r.Gauge(k).Set(g.Value())
	}
	for k, h := range hists {
		r.Histogram(k).Merge(h)
	}
}

// AddHistogram registers an existing histogram under name, so a component
// that already owns one (e.g. the protocol backends' miss-latency
// histogram feeding the paper tables) can expose it without double
// bookkeeping. Registering over an existing name replaces the view.
func (r *Registry) AddHistogram(name string, h *Histogram, labels ...string) {
	if r == nil || h == nil {
		return
	}
	name = Name(name, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hists[name] = h
}
