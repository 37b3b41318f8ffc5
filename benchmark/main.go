// Command benchmark is the repository's gating benchmark: six named
// workloads over one geometry, end-to-end metrics with fixed regression
// bounds, and a separate traced run that attributes time to each layer from
// outside the program. BENCHMARK.json at the repository root is its
// contract; README.md in this directory explains every name.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricSpec is one entry of end_to_end or per_layer in BENCHMARK.json.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// findRoot returns the directory holding BENCHMARK.json: the working
// directory when run as the contract says, its parent when run from inside
// benchmark/ (go test, go run .).
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("BENCHMARK.json not found in . or ..; run from the repository root")
}

func loadSpec(root string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// hostInfo is recorded in every result file, so a number can be traced to
// the code and the machine that produced it.
type hostInfo struct {
	Commit     string `json:"commit"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	When       string `json:"when"`
}

func host(root string) hostInfo {
	commit := "unknown" // a driver checkout is not a git repository
	if abs, err := filepath.Abs(root); err == nil {
		cmd := exec.Command("git", "-C", abs, "rev-parse", "HEAD")
		// Look for a repository at the root itself, never above it.
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(abs))
		if out, err := cmd.Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	return hostInfo{Commit: commit, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), When: time.Now().UTC().Format(time.RFC3339)}
}

// runRecord is one run as stored in a result file.
type runRecord struct {
	Workload  string               `json:"workload"`
	Seed      uint64               `json:"seed"`
	Seconds   float64              `json:"seconds"`
	Trace     int                  `json:"trace"`
	Scale     string               `json:"scale"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metric    `json:"metrics"`
	Spread    map[string]float64   `json:"quiet_slice_spread,omitempty"`
	Segments  map[string][]float64 `json:"slices,omitempty"`
	Samples   int                  `json:"latency_samples,omitempty"`
	Quiet     int                  `json:"latency_quiet_slices,omitempty"`
	Slices    int                  `json:"latency_slices,omitempty"`
	Counts    map[string]int       `json:"op_counts"`
	Notes     []string             `json:"notes,omitempty"`
	Host      hostInfo             `json:"host"`
}

// runOne measures one workload and assembles its record. The metrics are
// exactly the names BENCHMARK.json lists for this kind of run.
func runOne(root string, spec *benchSpec, w workload, sc scale, seed uint64, seconds float64, trace int) (*runRecord, error) {
	if n := runtime.NumCPU(); n < parallelism || n < connections {
		return nil, fmt.Errorf("this benchmark is sized for %d pipeline workers and %d connections; the host has %d CPUs", parallelism, connections, n)
	}
	var o *outcome
	var err error
	names := spec.EndToEnd
	if trace == 1 {
		names = spec.PerLayer
		o, err = runTraced(root, w, sc, seed)
	} else {
		o, err = runEndToEnd(root, w, sc, seed, seconds)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rec := &runRecord{Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace, Scale: sc.name,
		Correct: o.Correct, Attempted: max(o.Attempted, 1), Failed: o.Failed,
		Metrics: map[string]metric{}, Spread: o.Spread, Segments: o.Segments, Samples: o.Samples, Quiet: o.Quiet, Slices: o.Slices,
		Counts: map[string]int{"warmup": sc.warmup, "traced": sc.tracedOps, "sweep": sc.sweepOps, "probe": sc.probeOps},
		Notes:  o.Notes, Host: host(root)}
	for _, m := range names {
		v, ok := o.Values[m.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s is in BENCHMARK.json but was not measured", w.name, m.Name)
		}
		rec.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	return rec, nil
}

// print writes every metric by name with its unit, then the one-line JSON
// result the driver reads from the last line of standard output.
func (r *runRecord) print(w io.Writer, spec *benchSpec) {
	names := spec.EndToEnd
	if r.Trace == 1 {
		names = spec.PerLayer
	}
	fmt.Fprintf(w, "workload %s seed %d trace %d scale %s\n", r.Workload, r.Seed, r.Trace, r.Scale)
	for _, m := range names {
		fmt.Fprintf(w, "%-44s %16.6g %s\n", m.Name, r.Metrics[m.Name].Value, m.Unit)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Fprintln(w, string(line))
}

func outDir(root string) string { return filepath.Join(root, "benchmark", "out") }

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (see BENCHMARK.json); empty with -repeat runs all")
		seed         = flag.Uint64("seed", 1, "seed of the generated operations")
		seconds      = flag.Float64("seconds", 0, "measured time per run (default run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, nothing attached; 1: the traced run with the per-layer metrics")
		scaleName    = flag.String("scale", "full", "full, or tiny for the smoke test (tiny numbers are not comparable)")
		repeat       = flag.Int("repeat", 0, "run this many sets of every workload, alternating order, and compare consecutive sets")
		compare      = flag.Bool("compare", false, "compare two result sets: -compare A.json B.json")
	)
	flag.Parse()
	if err := realMain(*workloadName, *seed, *seconds, *trace, *scaleName, *repeat, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func realMain(workloadName string, seed uint64, seconds float64, trace int, scaleName string, repeat int, compare bool, args []string) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return errors.New("usage: -compare A.json B.json")
		}
		return compareFiles(spec, args[0], args[1], os.Stdout)
	}
	sc := scaleFull
	switch scaleName {
	case "full":
	case "tiny":
		sc = scaleTiny
	default:
		return fmt.Errorf("unknown -scale %q", scaleName)
	}
	if seconds <= 0 {
		seconds = float64(spec.RunSeconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace is 0 or 1, not %d", trace)
	}
	if repeat > 0 {
		return runSets(root, spec, sc, seed, seconds, trace, repeat)
	}
	w, ok := findWorkload(workloadName)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return fmt.Errorf("unknown -workload %q; one of %s", workloadName, strings.Join(names, ", "))
	}
	rec, err := runOne(root, spec, w, sc, seed, seconds, trace)
	if err != nil {
		return err
	}
	path := filepath.Join(outDir(root), fmt.Sprintf("run-%s-trace%d-seed%d.json", w.name, trace, seed))
	if err := publishJSON(path, rec); err != nil {
		return err
	}
	rec.print(os.Stdout, spec)
	if !rec.Correct {
		// The result line is printed so the failure can be read, but a red
		// witness, drifted golden cells or failed operations are not a pass.
		return fmt.Errorf("%s: incorrect (%d of %d failed)", w.name, rec.Failed, rec.Attempted)
	}
	return nil
}
