package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file renders a Registry in the Prometheus text exposition format
// (version 0.0.4), so a cluster's live endpoint can be scraped directly.
// The registry's folded names ("fault.retries{sdimm=3}") are unfolded back
// into label sets, metric names are sanitized to the Prometheus charset,
// and families are emitted sorted, so the rendering of a quiesced registry
// is byte-for-byte deterministic (the golden test relies on this):
//
//   - Counter  -> counter
//   - Gauge    -> gauge
//   - Histogram-> histogram (cumulative le buckets at the upper edge of
//                 every bucket non-empty in some series of the family,
//                 +Inf bucket, _sum / _count)
//
// Every histogram shares one bucket layout, so each le value comes from one
// edge set and the same le means the same bucket in every series and run.

// promSeries is one rendered sample line (everything after the TYPE header).
type promSeries struct {
	group  string // the metric's own rendered {...} label block, "" for none
	le     string // a histogram bucket's upper edge, "" off a _bucket line
	suffix string // family-name suffix (_sum, _count, _bucket)
	value  string
	order  int // tie-break so _sum/_count/bucket lines keep their order
}

// promFamily groups the series sharing one sanitized family name.
type promFamily struct {
	name   string
	kind   string // counter | gauge | histogram
	series []promSeries
	edges  []bool // histogram: bucket i has samples in some series
}

// sanitizeMetricName maps a registry base name onto the Prometheus metric
// charset [a-zA-Z_:][a-zA-Z0-9_:]*; the registry's dotted namespaces become
// underscore-separated ("cluster.accesses" -> "cluster_accesses").
func sanitizeMetricName(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteRune(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// sanitizeLabelName maps a label key onto [a-zA-Z_][a-zA-Z0-9_]*.
func sanitizeLabelName(s string) string {
	n := sanitizeMetricName(s)
	return strings.ReplaceAll(n, ":", "_")
}

// escapeLabelValue escapes a label value per the exposition format.
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// splitFolded undoes Name's label folding: "base{k=v,k2=v2}" becomes the
// base name and the rendered Prometheus label block. Registry names always
// come from Name, so the fold is unambiguous (sorted keys, no nesting).
func splitFolded(folded string) (base, labels string) {
	i := strings.IndexByte(folded, '{')
	if i < 0 || !strings.HasSuffix(folded, "}") {
		return folded, ""
	}
	base = folded[:i]
	var b strings.Builder
	b.WriteByte('{')
	for j, kv := range strings.Split(folded[i+1:len(folded)-1], ",") {
		k, v, _ := strings.Cut(kv, "=")
		if j > 0 {
			b.WriteByte(',')
		}
		b.WriteString(sanitizeLabelName(k))
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return base, b.String()
}

// mergeLabels appends extra k="v" pairs into an existing label block.
func mergeLabels(labels string, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format. Families are sorted by name and series within a family by label
// block, so the output for a quiescent registry is deterministic. A
// histogram's +Inf bucket and _count are the total of the buckets read.
func (r *Registry) WritePrometheus(w io.Writer) error {
	counters, gauges, hists := r.handles()
	fams := make(map[string]*promFamily)
	family := func(folded, kind string) (*promFamily, string) {
		base, labels := splitFolded(folded)
		name := sanitizeMetricName(base)
		f, ok := fams[name]
		if !ok {
			f = &promFamily{name: name, kind: kind}
			fams[name] = f
		}
		return f, labels
	}

	for folded, c := range counters {
		f, g := family(folded, "counter")
		f.series = append(f.series, promSeries{group: g, value: strconv.FormatUint(c.Value(), 10)})
	}
	for folded, v := range gauges {
		f, g := family(folded, "gauge")
		f.series = append(f.series, promSeries{group: g, value: strconv.FormatInt(v.Value(), 10)})
	}
	// A histogram family's edges are the union of its series' non-empty
	// buckets, and every series lists them all, so `sum by (le)` and
	// histogram_quantile add like with like across series.
	type histSeries struct {
		f *promFamily
		g string
		h *Histogram
	}
	var hs []histSeries
	for folded, h := range hists {
		f, g := family(folded, "histogram")
		if f.edges == nil {
			f.edges = make([]bool, histBuckets)
		}
		for i := range h.buckets {
			f.edges[i] = f.edges[i] || h.buckets[i].Load() != 0
		}
		hs = append(hs, histSeries{f, g, h})
	}
	for _, s := range hs {
		var cum uint64
		for i := range s.h.buckets {
			if cum += s.h.buckets[i].Load(); s.f.edges[i] {
				s.f.series = append(s.f.series, promSeries{group: s.g, le: strconv.FormatUint(upperEdge(i), 10),
					suffix: "_bucket", value: strconv.FormatUint(cum, 10), order: i})
			}
		}
		count := strconv.FormatUint(cum, 10)
		s.f.series = append(s.f.series,
			promSeries{group: s.g, le: "+Inf", suffix: "_bucket", value: count, order: histBuckets},
			promSeries{group: s.g, suffix: "_sum", value: strconv.FormatUint(s.h.Sum(), 10), order: histBuckets + 1},
			promSeries{group: s.g, suffix: "_count", value: count, order: histBuckets + 2})
	}

	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := fams[n]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		sort.SliceStable(f.series, func(i, j int) bool {
			a, b := f.series[i], f.series[j]
			if a.group != b.group {
				return a.group < b.group
			}
			return a.order < b.order
		})
		for _, s := range f.series {
			labels := s.group
			if s.le != "" {
				labels = mergeLabels(s.group, `le="`+s.le+`"`)
			}
			if _, err := fmt.Fprintf(w, "%s%s%s %s\n", f.name, s.suffix, labels, s.value); err != nil {
				return err
			}
		}
	}
	return nil
}
