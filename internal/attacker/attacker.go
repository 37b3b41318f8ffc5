// Package attacker evaluates the system from the adversary's vantage point
// of the threat model (Section II-B): a logic analyzer on the untrusted
// buses sees every DDR command and its plaintext bank/row address. The
// package captures those address traces and quantifies how much the trace
// reveals about the running program:
//
//   - the row-address distribution and its entropy (ORAM touches rows
//     near-uniformly at every level; plaintext programs concentrate on
//     their working set);
//
//   - the total-variation distance between the traces of two different
//     programs (indistinguishability: for an oblivious memory the distance
//     is small no matter how different the programs are);
//
//   - the short-window repeat rate (temporal locality: a plaintext bus
//     shows a block being touched again and again; ORAM's remapping
//     destroys this signal).
//
// The tests assert the paper's obliviousness claim in these terms: under
// any ORAM protocol the metrics cannot tell two very different workloads
// apart, while the non-secure bus trivially gives them away.
package attacker

import (
	"fmt"
	"math"
	"sort"

	"sdimm/internal/config"
	"sdimm/internal/dram"
	"sdimm/internal/event"
	"sdimm/internal/sim"
	"sdimm/internal/trace"
)

// Access is one observed command on an untrusted bus.
type Access struct {
	Cycle event.Time
	Kind  dram.CommandKind
	Rank  int
	Bank  int
	Row   uint32
}

// Trace is the attacker's captured view of one bus.
type Trace struct {
	Channel  string
	Local    bool
	Accesses []Access
}

// Capture runs one simulation and records every activate on every
// modelled bus, keyed by channel name. Only ACT commands are kept: the row
// address is the information-bearing signal (column accesses within an
// open row are positionally determined by it).
func Capture(cfg config.Config, workload string) (map[string]*Trace, sim.Result, error) {
	return CaptureSeeded(cfg, workload, cfg.Seed)
}

// CaptureSeeded decouples the program input (traceSeed) from the system's
// randomness (cfg.Seed): holding the input fixed while varying cfg.Seed
// measures the trace variation due to the ORAM's own coins — the
// sampling-noise floor an attacker's distinguisher has to beat.
func CaptureSeeded(cfg config.Config, workload string, traceSeed uint64) (map[string]*Trace, sim.Result, error) {
	prof, err := trace.ProfileByName(workload)
	if err != nil {
		return nil, sim.Result{}, err
	}
	recs, err := prof.Generate(cfg.WarmupAccesses+cfg.MeasureAccesses, traceSeed)
	if err != nil {
		return nil, sim.Result{}, err
	}
	traces := make(map[string]*Trace)
	res, err := sim.RunTrace(cfg, workload, recs,
		func(channel string, local bool, now event.Time, kind dram.CommandKind, coord dram.Coord) {
			if kind != dram.CmdActivate {
				return
			}
			t, ok := traces[channel]
			if !ok {
				t = &Trace{Channel: channel, Local: local}
				traces[channel] = t
			}
			t.Accesses = append(t.Accesses, Access{
				Cycle: now, Kind: kind, Rank: coord.Rank, Bank: coord.Bank, Row: coord.Row,
			})
		}, nil)
	if err != nil {
		return nil, sim.Result{}, err
	}
	return traces, res, nil
}

// Merge concatenates all bus traces into one attacker view (a physical
// attacker probes every bus).
func Merge(traces map[string]*Trace) *Trace {
	names := make([]string, 0, len(traces))
	for n := range traces {
		names = append(names, n)
	}
	sort.Strings(names)
	out := &Trace{Channel: "all"}
	for _, n := range names {
		out.Accesses = append(out.Accesses, traces[n].Accesses...)
	}
	sort.Slice(out.Accesses, func(i, j int) bool { return out.Accesses[i].Cycle < out.Accesses[j].Cycle })
	return out
}

// location folds an access to its (rank, bank, row) identity.
func (a Access) location() uint64 {
	return uint64(a.Rank)<<48 | uint64(a.Bank)<<40 | uint64(a.Row)
}

// RowHistogram returns the frequency of each touched (rank, bank, row).
func (t *Trace) RowHistogram() map[uint64]int {
	h := make(map[uint64]int)
	for _, a := range t.Accesses {
		h[a.location()]++
	}
	return h
}

// Entropy returns the Shannon entropy (bits) of the row-touch distribution.
func (t *Trace) Entropy() float64 {
	h := t.RowHistogram()
	n := float64(len(t.Accesses))
	if n == 0 {
		return 0
	}
	e := 0.0
	for _, c := range h {
		p := float64(c) / n
		e -= p * math.Log2(p)
	}
	return e
}

// NormalizedEntropy returns Entropy / log2(distinct rows touched): 1 means
// the touched rows are hit uniformly.
func (t *Trace) NormalizedEntropy() float64 {
	h := t.RowHistogram()
	if len(h) < 2 {
		return 0
	}
	return t.Entropy() / math.Log2(float64(len(h)))
}

// RepeatRate returns the fraction of accesses whose row was already
// touched within the previous window accesses — the temporal-locality
// signal a plaintext bus leaks.
func (t *Trace) RepeatRate(window int) float64 {
	if len(t.Accesses) == 0 || window <= 0 {
		return 0
	}
	recent := make([]uint64, 0, window)
	hits := 0
	for _, a := range t.Accesses {
		loc := a.location()
		for _, r := range recent {
			if r == loc {
				hits++
				break
			}
		}
		recent = append(recent, loc)
		if len(recent) > window {
			recent = recent[1:]
		}
	}
	return float64(hits) / float64(len(t.Accesses))
}

// TotalVariation returns the total-variation distance between the
// row-touch distributions of two traces (0 = identical, 1 = disjoint).
func TotalVariation(a, b *Trace) (float64, error) {
	ha, hb := a.RowHistogram(), b.RowHistogram()
	na, nb := float64(len(a.Accesses)), float64(len(b.Accesses))
	if na == 0 || nb == 0 {
		return 0, fmt.Errorf("attacker: empty trace")
	}
	keys := make(map[uint64]bool, len(ha)+len(hb))
	for k := range ha {
		keys[k] = true
	}
	for k := range hb {
		keys[k] = true
	}
	d := 0.0
	for k := range keys {
		d += math.Abs(float64(ha[k])/na - float64(hb[k])/nb)
	}
	return d / 2, nil
}

// Report summarizes the attacker's metrics for one trace.
type Report struct {
	Accesses          int
	DistinctRows      int
	Entropy           float64
	NormalizedEntropy float64
	RepeatRate        float64 // window 32
}

// Analyze produces a Report.
func Analyze(t *Trace) Report {
	return Report{
		Accesses:          len(t.Accesses),
		DistinctRows:      len(t.RowHistogram()),
		Entropy:           t.Entropy(),
		NormalizedEntropy: t.NormalizedEntropy(),
		RepeatRate:        t.RepeatRate(32),
	}
}
