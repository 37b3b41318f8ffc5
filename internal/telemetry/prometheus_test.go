package telemetry

import (
	"net/http/httptest"
	"strings"
	"testing"
)

// TestWritePrometheusGolden pins the exposition byte-for-byte: families
// sorted by sanitized name, label folding undone into quoted Prometheus
// labels, histograms as cumulative le buckets at the shared bucket edges,
// empty buckets left out.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("cluster.accesses").Add(42)
	r.Counter("fault.retries", "sdimm", "3").Add(7)
	r.Counter("fault.retries", "sdimm", "0").Inc()
	r.Counter("witness.violations", "kind", "shape") // registered, zero
	r.Gauge("fault.health.state", "sdimm", "0").Set(2)
	h := r.Histogram("access.latency")
	h.Add(5)
	h.Add(15)
	h.Add(100)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	want := `# TYPE access_latency histogram
access_latency_bucket{le="5"} 1
access_latency_bucket{le="15"} 2
access_latency_bucket{le="101"} 3
access_latency_bucket{le="+Inf"} 3
access_latency_sum 120
access_latency_count 3
# TYPE cluster_accesses counter
cluster_accesses 42
# TYPE fault_health_state gauge
fault_health_state{sdimm="0"} 2
# TYPE fault_retries counter
fault_retries{sdimm="0"} 1
fault_retries{sdimm="3"} 7
# TYPE witness_violations counter
witness_violations{kind="shape"} 0
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWritePrometheusSharedEdges: the series of one histogram family list
// the same le set, the union of their non-empty buckets, so `sum by (le)`
// adds like with like. Here two series of disjoint support each repeat
// their cumulative count at the other's edge.
func TestWritePrometheusSharedEdges(t *testing.T) {
	r := NewRegistry()
	r.Histogram("dram.read_latency", "chan", "0").Add(5)
	h := r.Histogram("dram.read_latency", "chan", "1")
	h.Add(100)
	h.Add(100)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	want := `# TYPE dram_read_latency histogram
dram_read_latency_bucket{chan="0",le="5"} 1
dram_read_latency_bucket{chan="0",le="101"} 1
dram_read_latency_bucket{chan="0",le="+Inf"} 1
dram_read_latency_sum{chan="0"} 5
dram_read_latency_count{chan="0"} 1
dram_read_latency_bucket{chan="1",le="5"} 0
dram_read_latency_bucket{chan="1",le="101"} 2
dram_read_latency_bucket{chan="1",le="+Inf"} 2
dram_read_latency_sum{chan="1"} 200
dram_read_latency_count{chan="1"} 2
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWritePrometheusEscaping checks label-value escaping and name
// sanitization survive hostile inputs.
func TestWritePrometheusEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("weird-name.1", "path", `a\b"c`).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	want := "# TYPE weird_name_1 counter\n" +
		"weird_name_1{path=\"a\\\\b\\\"c\"} 1\n"
	if got := b.String(); got != want {
		t.Errorf("got %q, want %q", b.String(), want)
	}
}

// TestHandlerMetricsPath wires the exposition into the live endpoint.
func TestHandlerMetricsPath(t *testing.T) {
	r := NewRegistry()
	r.Counter("cluster.accesses").Add(3)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q, want text/plain", ct)
	}
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	if !strings.Contains(body, "cluster_accesses 3") {
		t.Errorf("missing counter in body:\n%s", body)
	}

	// The JSON snapshot endpoint must be unaffected.
	resp2, err := srv.Client().Get(srv.URL + "/")
	if err != nil {
		t.Fatalf("GET /: %v", err)
	}
	defer resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("root content type %q, want application/json", ct)
	}
}

// TestWritePrometheusNil checks the nil receiver stays a no-op.
func TestWritePrometheusNil(t *testing.T) {
	var r *Registry
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil || b.Len() != 0 {
		t.Errorf("nil registry: err=%v len=%d", err, b.Len())
	}
}
