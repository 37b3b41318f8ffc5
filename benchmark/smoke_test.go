package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// TestSmokeTiny crosses every workload in both kinds of run at the tiny
// scale and checks the contract of BENCHMARK.json on what is printed.
func TestSmokeTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped under -short")
	}
	if runtime.NumCPU() < parallelism {
		t.Skipf("the benchmark is sized for %d CPUs", parallelism)
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %s", m.Name, nameRE)
		}
		if seen[m.Name] {
			t.Errorf("metric name %q is used twice", m.Name)
		}
		seen[m.Name] = true
	}
	// Every gated workload is one the runner has; the runner also keeps
	// pipe-durable, which is run by hand (see README.md, "Not gated").
	for _, sw := range spec.Workloads {
		if _, ok := findWorkload(sw.Name); !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the runner does not have", sw.Name)
		}
	}
	for _, w := range workloads {
		for trace, names := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
			rec, err := runOne(root, spec, w, scaleTiny, 1, 0.2, trace)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.name, trace, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s trace %d: correct %v, %d of %d failed; notes %v", w.name, trace, rec.Correct, rec.Failed, rec.Attempted, rec.Notes)
			}
			checkPrinted(t, rec, spec, names)
			if trace == 1 && w.durable {
				// One seed, one caller: a second traced run repeats every count.
				again, err := runOne(root, spec, w, scaleTiny, 1, 0.2, 1)
				if err != nil {
					t.Fatalf("%s second traced run: %v", w.name, err)
				}
				for _, name := range repeatingCounts {
					if a, b := rec.Metrics[name].Value, again.Metrics[name].Value; a != b {
						t.Errorf("%s: %s read %g, then %g at the same seed", w.name, name, a, b)
					}
				}
			}
		}
	}
}

// nameRE is what the contract allows as a workload or metric name.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// repeatingCounts are fixed by the seed alone: the exact counts -compare
// insists on, and the other counts one caller determines.
var repeatingCounts = []string{
	"link.frames_per_op", "link.bytes_per_op", "sim.simulated_cycles_total", "durable.checkpoints",
	"seccomm.seals_per_op", "fault.exchanges_per_op", "fault.retries", "oram.bucket_writes_per_op",
	"oram.stash_peak", "pipeline.waves", "pipeline.ops_per_wave", "durable.journal_bytes_per_op",
	"durable.replayed_records", "durable.buckets_scanned", "durable.checkpoint_mb",
}

// checkPrinted asserts that the report names every metric of the run exactly
// once with its unit, and that its last line is the driver's JSON object with
// exactly those metrics.
func checkPrinted(t *testing.T, rec *runRecord, spec *benchSpec, names []metricSpec) {
	t.Helper()
	var buf bytes.Buffer
	rec.print(&buf, spec)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	for _, m := range names {
		n := 0
		for _, line := range lines[:len(lines)-1] {
			if f := strings.Fields(line); len(f) == 3 && f[0] == m.Name {
				n++
				if f[2] != m.Unit {
					t.Errorf("%s: %s printed with unit %q, want %q", rec.Workload, m.Name, f[2], m.Unit)
				}
			}
		}
		if n != 1 {
			t.Errorf("%s trace %d: %s printed %d times", rec.Workload, rec.Trace, m.Name, n)
		}
	}
	var last struct {
		Correct   *bool             `json:"correct"`
		Attempted *int              `json:"attempted"`
		Failed    *int              `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&last); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", rec.Workload, err)
	}
	if last.Correct == nil || last.Attempted == nil || last.Failed == nil || len(last.Metrics) != len(names) {
		t.Errorf("%s trace %d: result object has %d metrics, want %d, or lacks a key", rec.Workload, rec.Trace, len(last.Metrics), len(names))
	}
	for _, m := range names {
		if got, ok := last.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("%s trace %d: result object has %s as %+v", rec.Workload, rec.Trace, m.Name, got)
		}
	}
}
