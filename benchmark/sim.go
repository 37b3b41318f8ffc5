package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"sdimm/internal/config"
	"sdimm/internal/experiments"
	"sdimm/internal/stats"
)

// goldenTables are the paper tables pinned byte-for-byte under
// internal/experiments/testdata/golden, with the functions that make them.
var goldenTables = []struct {
	name string
	gen  func(experiments.Options) (*stats.Table, error)
}{
	{"fig6", experiments.Fig6},
	{"fig8", experiments.Fig8},
	{"fig9", experiments.Fig9},
	{"fig10", experiments.Fig10},
	{"offdimm", experiments.OffDIMM},
	{"latency", experiments.Latency},
	{"ring", experiments.Ring},
}

var simProtocols = []config.Protocol{config.NonSecure, config.Freecursive,
	config.Independent, config.Split, config.IndepSplit, config.Ring}

func simOptions(sc scale) experiments.Options {
	return experiments.Options{Warmup: sc.simWarmup, Measure: sc.simMeasure, Levels: sc.simLevels,
		Seed: 1, Workloads: []string{"milc", "gromacs", "mcf"}, Parallel: parallelism}
}

// simDrift regenerates every golden table and returns how many cells were
// compared and how many differ from the checked-in file. It is the
// simulator's correctness check: a functional-stack change must leave it at
// zero, and so must a simulator speed-up. Only the golden scale has
// reference files; other scales compare nothing.
func simDrift(root string, sc scale) (cells, differ int, err error) {
	if sc.name != scaleFull.name {
		for _, g := range goldenTables {
			if _, err := g.gen(simOptions(sc)); err != nil {
				return 0, 0, fmt.Errorf("%s: %w", g.name, err)
			}
		}
		return 0, 0, nil
	}
	for _, g := range goldenTables {
		raw, err := os.ReadFile(filepath.Join(root, "internal", "experiments", "testdata", "golden", g.name+".json"))
		if err != nil {
			return 0, 0, err
		}
		var want stats.Table
		if err := json.Unmarshal(raw, &want); err != nil {
			return 0, 0, fmt.Errorf("golden %s: %w", g.name, err)
		}
		got, err := g.gen(simOptions(sc))
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", g.name, err)
		}
		rows := want.Rows()
		if len(got.Rows()) != len(rows) || len(got.Cols) != len(want.Cols) {
			differ++
		}
		for _, r := range rows {
			for _, c := range want.Cols {
				w, wok := want.Get(r, c)
				v, vok := got.Get(r, c)
				if !wok && !vok {
					continue
				}
				cells++
				if wok != vok || w != v {
					differ++
				}
			}
		}
	}
	return cells, differ, nil
}

// simTimedTrace is the one row of the grid the timed rounds simulate. The
// whole grid takes two seconds a round, a dozen rounds in a run, and two
// seconds on both cores are never quiet on the shared host: ten runs of the
// same code spread 0.13 on every timing metric whichever rounds were kept.
// One row takes 0.75 s, so a run holds two dozen rounds and its quietest
// quarter repeats. mcf is the memory-bound trace the paper's results hinge
// on; set-up still regenerates every golden table over all three traces.
const simTimedTrace = "mcf"

// simRound is the timed unit of sim-paper: every protocol on one trace at two
// channels through the experiments package's own worker pool. It reports
// simulated trace records as its operation count.
type simRound struct {
	o   experiments.Options
	sum uint64 // checksum of the last round's per-cell cycle counts
}

func (s *simRound) unit() (int, int) {
	res, err := experiments.Campaign(s.o, simProtocols, 2)
	if err != nil {
		return 1, 1
	}
	keys := make([]string, 0, len(res))
	for k := range res {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	records := 0
	var sum uint64
	for _, k := range keys {
		r := res[k]
		records += int(r.Records)
		sum = sum*0x100000001b3 ^ r.TotalCycles
	}
	failed := 0
	if s.sum != 0 && sum != s.sum {
		// The grid is deterministic: two rounds of one process that disagree
		// mean a simulation read state it does not own.
		failed = records
	}
	s.sum = sum
	return records, failed
}
