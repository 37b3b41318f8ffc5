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
//   - Histogram-> histogram (cumulative le buckets from the full dump,
//                 +Inf bucket, _sum / _count)

// promSeries is one rendered sample line (everything after the TYPE header).
type promSeries struct {
	group  string // the metric's own label block (before any le label)
	labels string // rendered {...} label block, "" for none
	suffix string // family-name suffix (_sum, _count, _bucket)
	value  string
	order  int // tie-break so _sum/_count/bucket lines keep their order
}

// promFamily groups the series sharing one sanitized family name.
type promFamily struct {
	name   string
	kind   string // counter | gauge | histogram
	series []promSeries
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
// block, so the output for a quiescent registry is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters := make(map[string]uint64, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v.Value()
	}
	gauges := make(map[string]int64, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v.Value()
	}
	hists := make(map[string]HistogramDump, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v.Dump()
	}
	r.mu.Unlock()

	fams := make(map[string]*promFamily)
	family := func(base, kind string) *promFamily {
		name := sanitizeMetricName(base)
		f, ok := fams[name]
		if !ok {
			f = &promFamily{name: name, kind: kind}
			fams[name] = f
		}
		return f
	}

	for folded, v := range counters {
		base, labels := splitFolded(folded)
		family(base, "counter").series = append(family(base, "counter").series,
			promSeries{group: labels, labels: labels, value: strconv.FormatUint(v, 10)})
	}
	for folded, v := range gauges {
		base, labels := splitFolded(folded)
		family(base, "gauge").series = append(family(base, "gauge").series,
			promSeries{group: labels, labels: labels, value: strconv.FormatInt(v, 10)})
	}
	for folded, d := range hists {
		base, labels := splitFolded(folded)
		f := family(base, "histogram")
		cum := uint64(0)
		for i, n := range d.Buckets {
			cum += n
			le := `le="` + strconv.FormatUint(uint64(i+1)*d.Width, 10) + `"`
			f.series = append(f.series, promSeries{
				group:  labels,
				labels: mergeLabels(labels, le),
				suffix: "_bucket",
				value:  strconv.FormatUint(cum, 10),
				order:  i,
			})
		}
		f.series = append(f.series,
			promSeries{group: labels, labels: mergeLabels(labels, `le="+Inf"`), suffix: "_bucket",
				value: strconv.FormatUint(d.N, 10), order: len(d.Buckets)},
			promSeries{group: labels, labels: labels, suffix: "_sum",
				value: strconv.FormatUint(d.Sum, 10), order: len(d.Buckets) + 1},
			promSeries{group: labels, labels: labels, suffix: "_count",
				value: strconv.FormatUint(d.N, 10), order: len(d.Buckets) + 2})
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
			if _, err := fmt.Fprintf(w, "%s%s%s %s\n", f.name, s.suffix, s.labels, s.value); err != nil {
				return err
			}
		}
	}
	return nil
}
