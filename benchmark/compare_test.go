package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareFiles(t *testing.T) {
	bound := 0.10
	spec := &benchSpec{EndToEnd: []metricSpec{
		{Name: "throughput_ops_s", Unit: "ops/s", Better: "higher", Bound: &bound},
		{Name: "latency_p50_us", Unit: "us", Better: "lower", Bound: &bound},
	}}
	set := func(name string, thr, lat, thrSpread float64, failed int) string {
		path := filepath.Join(t.TempDir(), name)
		rs := resultSet{Runs: []*runRecord{{Workload: "seq-path", Attempted: 100, Failed: failed,
			Metrics: map[string]metric{"throughput_ops_s": {thr, "ops/s"}, "latency_p50_us": {lat, "us"}},
			Spread:  map[string]float64{"throughput_ops_s": thrSpread}}}}
		if err := publishJSON(path, rs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := set("a.json", 1000, 50, 0.01, 0)
	for _, c := range []struct {
		name    string
		b       string
		wantErr bool
		want    string
	}{
		{"same", set("b.json", 1000, 50, 0.01, 0), false, verdictOK},
		{"within the bound", set("b.json", 950, 54, 0.01, 0), false, verdictOK},
		{"slower", set("b.json", 800, 50, 0.01, 0), true, verdictRegression},
		{"slower but the run was unsteady", set("b.json", 800, 50, 0.30, 0), false, verdictUnresolved},
		{"failed operations", set("b.json", 1000, 50, 0.01, 3), true, "failed operations"},
	} {
		var out bytes.Buffer
		err := compareFiles(spec, base, c.b, &out)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: error %v, want error %v\n%s", c.name, err, c.wantErr, out.String())
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: report lacks %q\n%s", c.name, c.want, out.String())
		}
		if n := strings.Count(out.String(), "seq-path "); n < 2 {
			t.Errorf("%s: %d rows for 2 metrics\n%s", c.name, n, out.String())
		}
	}
}
