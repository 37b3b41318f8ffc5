package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// resultSet is one run of every workload: what -repeat writes and -compare
// reads.
type resultSet struct {
	Host hostInfo     `json:"host"`
	Runs []*runRecord `json:"runs"`
}

// runSets runs n sets of every gated workload, each in a fresh process so
// heap and RSS are isolated, even sets in reverse order so that drift over
// the session falls on both sides, and compares each set with the one before
// it. A set 0 runs first and is thrown away: the reference host slows under
// sustained load (rested, it ran seq-path at a median of 47 us; two minutes
// into a session, at 60), and a comparison belongs in the sustained state.
func runSets(root string, spec *benchSpec, sc scale, seed uint64, seconds float64, trace, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var paths []string
	for set := 0; set <= n; set++ {
		rs := resultSet{Host: host(root)}
		// The gated workloads, in the order BENCHMARK.json names them.
		var order []workload
		for _, sw := range spec.Workloads {
			w, ok := findWorkload(sw.Name)
			if !ok {
				return fmt.Errorf("BENCHMARK.json names workload %q, which the runner does not have", sw.Name)
			}
			order = append(order, w)
		}
		if set%2 == 0 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			fmt.Fprintf(os.Stderr, "set %d: %s\n", set, w.name)
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-scale", sc.name)
			cmd.Dir, cmd.Stderr = root, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("set %d, %s: %w", set, w.name, err)
			}
			raw, err := os.ReadFile(filepath.Join(outDir(root), fmt.Sprintf("run-%s-trace%d-seed%d.json", w.name, trace, seed)))
			if err != nil {
				return err
			}
			var rec runRecord
			if err := json.Unmarshal(raw, &rec); err != nil {
				return err
			}
			rs.Runs = append(rs.Runs, &rec)
		}
		if set == 0 {
			continue
		}
		path := filepath.Join(outDir(root), fmt.Sprintf("set-%d.json", set))
		if err := publishJSON(path, rs); err != nil {
			return err
		}
		paths = append(paths, path)
	}
	for i := 1; i < len(paths); i++ {
		if err := compareFiles(spec, paths[i-1], paths[i], os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

func readSet(path string) (*resultSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(raw, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

// verdict of one workload × metric row.
const (
	verdictOK         = "ok"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictExact      = "EXACT-MISMATCH"
)

// exactCounts are the per-layer counts that must not move at one seed: the
// attacker-visible link observables, and the counts fixed by the op stream.
var exactCounts = map[string]bool{
	"link.frames_per_op": true, "link.bytes_per_op": true,
	"sim.simulated_cycles_total": true, "durable.checkpoints": true,
}

// judge applies one metric's bound. worse is how far b is on the wrong side of
// a, as a share of a. A metric whose spread inside either run exceeds the
// bound cannot resolve a difference of the bound's size.
func judge(m metricSpec, a, b, spreadA, spreadB float64) (ratio float64, verdict string) {
	switch {
	case a == b:
		return 1, verdictOK
	case exactCounts[m.Name]:
		return b / a, verdictExact
	case a == 0:
		return 0, verdictUnresolved // no base to take a share of
	}
	ratio = b / a
	if m.Bound == nil {
		return ratio, verdictOK
	}
	worse := ratio - 1
	if m.Better == "higher" {
		worse = 1 - ratio
	}
	switch {
	case worse <= *m.Bound:
		return ratio, verdictOK
	case spreadA > *m.Bound || spreadB > *m.Bound:
		return ratio, verdictUnresolved
	default:
		return ratio, verdictRegression
	}
}

// compareFiles prints one row per workload × metric of the two sets — both
// values, the ratio B/A with A as its base, the bound and the verdict — and
// returns an error when any row regressed or an exact count moved.
func compareFiles(spec *benchSpec, pathA, pathB string, w io.Writer) error {
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	byName := map[string]*runRecord{}
	for _, r := range b.Runs {
		byName[r.Workload] = r
	}
	fmt.Fprintf(w, "A = %s (%s)\nB = %s (%s)\n", pathA, a.Host.Commit, pathB, b.Host.Commit)
	fmt.Fprintf(w, "%-16s %-40s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "B/A", "bound", "verdict")
	bad := 0
	for _, ra := range a.Runs {
		rb, ok := byName[ra.Workload]
		if !ok || rb.Trace != ra.Trace {
			return fmt.Errorf("%s: no matching run of %s in %s", pathB, ra.Workload, pathB)
		}
		specs := spec.EndToEnd
		if ra.Trace == 1 {
			specs = spec.PerLayer
		}
		if ra.Failed != 0 || rb.Failed != 0 {
			fmt.Fprintf(w, "%-16s failed operations: A %d of %d, B %d of %d\n", ra.Workload, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			bad++
		}
		for _, m := range specs {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			ratio, verdict := judge(m, va, vb, ra.Spread[m.Name], rb.Spread[m.Name])
			bound := "-"
			if m.Bound != nil {
				bound = strconv.FormatFloat(*m.Bound, 'g', -1, 64)
			}
			fmt.Fprintf(w, "%-16s %-40s %14.6g %14.6g %9.4f %7s  %s\n", ra.Workload, m.Name, va, vb, ratio, bound, verdict)
			if verdict == verdictRegression || verdict == verdictExact {
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows regressed, moved an exact count, or failed operations (base: A)", bad)
	}
	return nil
}
