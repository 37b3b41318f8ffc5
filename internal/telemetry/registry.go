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
	"math"
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

// Histogram is a latency histogram with fixed-width buckets plus an
// overflow bucket, retaining enough information for mean and quantiles.
// Updates are atomic and allocation-free; a concurrent Quantile sees a
// near-point-in-time view.
type Histogram struct {
	width   uint64
	buckets []uint64
	over    uint64
	sum     uint64
	n       uint64
	max     uint64
}

// NewHistogram builds a histogram with nbuckets buckets of the given width.
func NewHistogram(width uint64, nbuckets int) *Histogram {
	if width == 0 || nbuckets <= 0 {
		panic("telemetry: invalid histogram shape")
	}
	return &Histogram{width: width, buckets: make([]uint64, nbuckets)}
}

// Add records one sample.
func (h *Histogram) Add(v uint64) {
	atomic.AddUint64(&h.sum, v)
	atomic.AddUint64(&h.n, 1)
	for {
		old := atomic.LoadUint64(&h.max)
		if v <= old || atomic.CompareAndSwapUint64(&h.max, old, v) {
			break
		}
	}
	i := v / h.width
	if i >= uint64(len(h.buckets)) {
		atomic.AddUint64(&h.over, 1)
		return
	}
	atomic.AddUint64(&h.buckets[i], 1)
}

// N returns the number of samples.
func (h *Histogram) N() uint64 { return atomic.LoadUint64(&h.n) }

// Sum returns the total of all samples.
func (h *Histogram) Sum() uint64 { return atomic.LoadUint64(&h.sum) }

// Mean returns the mean sample, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	n := h.N()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Max returns the largest sample seen.
func (h *Histogram) Max() uint64 { return atomic.LoadUint64(&h.max) }

// HistogramDump is the full bucket-level content of a histogram — unlike
// HistogramSnapshot it loses nothing, so two dumps are equal exactly when
// the histograms would answer every query identically. Equivalence tests
// compare dumps to prove bitwise-identical stats.
type HistogramDump struct {
	Width   uint64   `json:"width"`
	Buckets []uint64 `json:"buckets"`
	Over    uint64   `json:"over"`
	Sum     uint64   `json:"sum"`
	N       uint64   `json:"n"`
	Max     uint64   `json:"max"`
}

// Dump returns the histogram's complete state. Concurrent updates yield a
// near-point-in-time view; quiesce writers for an exact one.
func (h *Histogram) Dump() HistogramDump {
	d := HistogramDump{
		Width:   h.width,
		Buckets: make([]uint64, len(h.buckets)),
		Over:    atomic.LoadUint64(&h.over),
		Sum:     atomic.LoadUint64(&h.sum),
		N:       atomic.LoadUint64(&h.n),
		Max:     atomic.LoadUint64(&h.max),
	}
	for i := range h.buckets {
		d.Buckets[i] = atomic.LoadUint64(&h.buckets[i])
	}
	return d
}

// Merge folds another histogram's samples into this one, bucket by bucket.
// Both histograms must have the same shape (width and bucket count); Merge
// panics otherwise, because silently re-bucketing would corrupt quantiles.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil {
		return
	}
	if h.width != o.width || len(h.buckets) != len(o.buckets) {
		panic("telemetry: merging histograms of different shapes")
	}
	atomic.AddUint64(&h.sum, atomic.LoadUint64(&o.sum))
	atomic.AddUint64(&h.n, atomic.LoadUint64(&o.n))
	atomic.AddUint64(&h.over, atomic.LoadUint64(&o.over))
	om := atomic.LoadUint64(&o.max)
	for {
		old := atomic.LoadUint64(&h.max)
		if om <= old || atomic.CompareAndSwapUint64(&h.max, old, om) {
			break
		}
	}
	for i := range h.buckets {
		atomic.AddUint64(&h.buckets[i], atomic.LoadUint64(&o.buckets[i]))
	}
}

// Quantile returns an upper bound for the q-quantile (0 < q ≤ 1), using
// bucket upper edges. With no samples it returns 0; samples landing in the
// overflow bucket report the observed max rather than the last bucket
// boundary.
func (h *Histogram) Quantile(q float64) uint64 {
	n := h.N()
	if n == 0 {
		return 0
	}
	if q <= 0 {
		q = math.SmallestNonzeroFloat64
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(n)))
	var cum uint64
	for i := range h.buckets {
		cum += atomic.LoadUint64(&h.buckets[i])
		if cum >= target {
			return (uint64(i) + 1) * h.width
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

// Histogram returns the histogram registered under name, creating it with
// the given shape on first use (the shape of an existing histogram wins).
func (r *Registry) Histogram(name string, width uint64, nbuckets int, labels ...string) *Histogram {
	if r == nil {
		return NewHistogram(width, nbuckets)
	}
	name = Name(name, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(width, nbuckets)
		r.hists[name] = h
	}
	return h
}

// Merge folds every metric of src into r: counters and histograms add, and
// gauges take src's level (a gauge is an instantaneous reading, so the most
// recently merged source wins). Missing metrics are created; histograms
// adopt src's shape on first sight.
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
	if r == nil || src == nil {
		return
	}
	src.mu.Lock()
	counters := make(map[string]uint64, len(src.counters))
	for k, v := range src.counters {
		counters[k] = v.Value()
	}
	gauges := make(map[string]int64, len(src.gauges))
	for k, v := range src.gauges {
		gauges[k] = v.Value()
	}
	hists := make(map[string]*Histogram, len(src.hists))
	for k, v := range src.hists {
		hists[k] = v
	}
	src.mu.Unlock()

	for k, v := range counters {
		r.Counter(k).Add(v)
	}
	for k, v := range gauges {
		r.Gauge(k).Set(v)
	}
	for k, h := range hists {
		r.Histogram(k, h.width, len(h.buckets)).Merge(h)
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
