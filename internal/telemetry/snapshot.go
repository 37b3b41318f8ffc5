package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// HistogramSnapshot is a point-in-time summary of one histogram.
type HistogramSnapshot struct {
	N    uint64  `json:"n"`
	Mean float64 `json:"mean"`
	Max  uint64  `json:"max"`
	P50  uint64  `json:"p50"`
	P95  uint64  `json:"p95"`
	P99  uint64  `json:"p99"`
}

// Snapshot is a point-in-time copy of every registered metric, suitable
// for JSON serialization, text rendering, and test assertions.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures the current value of every metric. A nil registry
// yields an empty (but fully allocated) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	counters, gauges, hists := r.handles()
	for k, c := range counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range hists {
		s.Histograms[k] = HistogramSnapshot{
			N:    h.N(),
			Mean: h.Mean(),
			Max:  h.Max(),
			P50:  h.Quantile(0.50),
			P95:  h.Quantile(0.95),
			P99:  h.Quantile(0.99),
		}
	}
	return s
}

// JSON renders the snapshot as indented JSON.
func (s Snapshot) JSON() []byte {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil { // maps of scalars cannot fail to marshal
		panic(err)
	}
	return b
}

// WriteText renders the snapshot as sorted "name value" lines, grouping
// metric kinds. An optional prefix filter keeps only names starting with
// one of the given prefixes (no prefixes = everything).
func (s Snapshot) WriteText(w io.Writer, prefixes ...string) {
	keep := func(name string) bool {
		if len(prefixes) == 0 {
			return true
		}
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
	var names []string
	for k := range s.Counters {
		if keep(k) {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-52s %d\n", k, s.Counters[k])
	}
	names = names[:0]
	for k := range s.Gauges {
		if keep(k) {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-52s %d\n", k, s.Gauges[k])
	}
	names = names[:0]
	for k := range s.Histograms {
		if keep(k) {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		h := s.Histograms[k]
		fmt.Fprintf(w, "%-52s n=%d mean=%.1f p50=%d p95=%d p99=%d max=%d\n",
			k, h.N, h.Mean, h.P50, h.P95, h.P99, h.Max)
	}
}

// String renders the full snapshot as text.
func (s Snapshot) String() string {
	var b strings.Builder
	s.WriteText(&b)
	return b.String()
}
