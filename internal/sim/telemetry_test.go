package sim

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"sdimm/internal/config"
	"sdimm/internal/telemetry"
	"sdimm/internal/trace"
)

var phaseNames = map[string]bool{
	"link.send":      true,
	"sdimm.queue":    true,
	"dram.path":      true,
	"buffer.seal":    true,
	"fetch.wait":     true,
	"result.decrypt": true,
}

// within reports whether span e lies inside window [ts, ts+dur). A span
// starting exactly at the window's end belongs to the next occupant of the
// reused lane.
func within(e telemetry.Event, ts, dur uint64) bool {
	return e.TS >= ts && e.TS < ts+dur && e.TS+e.Dur <= ts+dur
}

// tileCheck verifies that spans exactly tile [ts, ts+dur]: contiguous,
// gap-free, and summing to dur.
func tileCheck(t *testing.T, kind string, spans []telemetry.Event, ts, dur uint64) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatalf("%s window [%d,%d): no inner spans", kind, ts, ts+dur)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].TS < spans[j].TS })
	cursor := ts
	var sum uint64
	for _, e := range spans {
		if e.TS != cursor {
			t.Fatalf("%s window [%d,%d): span %q starts at %d, want %d",
				kind, ts, ts+dur, e.Name, e.TS, cursor)
		}
		cursor = e.TS + e.Dur
		sum += e.Dur
	}
	if cursor != ts+dur || sum != dur {
		t.Fatalf("%s window [%d,%d): spans cover %d cycles ending at %d",
			kind, ts, ts+dur, sum, cursor)
	}
}

// TestIndependentTraceReconstruction runs the Independent protocol with
// tracing enabled and checks the acceptance property end to end: every
// miss span is tiled exactly by its accessORAM spans, every accessORAM is
// tiled exactly by its six phase spans, and the miss spans reproduce the
// MissLatency histogram sample for sample.
func TestIndependentTraceReconstruction(t *testing.T) {
	cfg := quickCfg(config.Independent, 2)
	prof, err := trace.ProfileByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := prof.Generate(cfg.WarmupAccesses+cfg.MeasureAccesses, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	tel := &Telemetry{Registry: telemetry.NewRegistry(), Trace: true}
	res, err := RunTrace(cfg, "mcf", recs, nil, tel)
	if err != nil {
		t.Fatal(err)
	}
	if tel.Tracer == nil {
		t.Fatal("Trace requested but no tracer built")
	}
	evs := tel.Tracer.Events()
	if len(evs) == 0 {
		t.Fatal("no trace events recorded")
	}

	byTid := map[int][]telemetry.Event{}
	var misses []telemetry.Event
	for _, e := range evs {
		if e.Ph != "X" {
			continue
		}
		byTid[e.TID] = append(byTid[e.TID], e)
		if e.Name == "miss" || e.Name == "writeback.miss" {
			misses = append(misses, e)
		}
	}
	if len(misses) == 0 {
		t.Fatal("no miss spans recorded")
	}

	var readSpans, readSum uint64
	for _, m := range misses {
		var inner, phases []telemetry.Event
		for _, e := range byTid[m.TID] {
			if !within(e, m.TS, m.Dur) {
				continue
			}
			switch {
			case e.Name == "accessORAM":
				inner = append(inner, e)
			case phaseNames[e.Name]:
				phases = append(phases, e)
			}
		}
		tileCheck(t, m.Name, inner, m.TS, m.Dur)
		tileCheck(t, m.Name+" phases", phases, m.TS, m.Dur)
		for _, a := range inner {
			var ap []telemetry.Event
			for _, e := range phases {
				if within(e, a.TS, a.Dur) || (e.TS == a.TS && e.Dur == 0) {
					ap = append(ap, e)
				}
			}
			tileCheck(t, "accessORAM", ap, a.TS, a.Dur)
		}
		if m.Name == "miss" {
			readSpans++
			readSum += m.Dur
		}
	}

	// The read-miss spans are the same samples the stats tables report.
	h := res.Backend.MissLatency
	if h.N() != readSpans || h.Sum() != readSum {
		t.Fatalf("miss spans (%d samples, %d cycles) != MissLatency histogram (%d, %d)",
			readSpans, readSum, h.N(), h.Sum())
	}

	// The exported JSON must pass the exporter's own validator.
	var buf bytes.Buffer
	if err := tel.Tracer.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := telemetry.ValidateTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n != len(evs) {
		t.Fatalf("validator saw %d events, tracer recorded %d", n, len(evs))
	}

	// Metrics side: DRAM channels and the shared miss histogram landed in
	// the registry.
	snap := tel.Registry.Snapshot()
	var dramReads uint64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "dram.reads{") {
			dramReads += v
		}
	}
	if dramReads == 0 {
		t.Fatal("no dram.reads counters in registry snapshot")
	}
	hs, ok := snap.Histograms["protocol.miss_latency"]
	if !ok {
		t.Fatal("protocol.miss_latency not registered")
	}
	if hs.N != h.N() {
		t.Fatalf("registry histogram N = %d, backend N = %d", hs.N, h.N())
	}
	if snap.Counters["sim.cycles"] == 0 {
		t.Fatal("sim.cycles counter not set")
	}
}

// TestMissSpansEveryProtocol pins the tracing contract of the shared front
// end: a traced run of any SDIMM protocol records exactly one miss span per
// read and one writeback.miss span per writeback, and the read spans are the
// MissLatency samples. The baseline and non-secure backends have no tracer
// hook, so they record nothing and it is Run's AddHistogram fallback that
// registers protocol.miss_latency for them. The LLC is shrunk to 8 KB so
// that a run this short evicts dirty lines and the writeback leg is not
// vacuous.
func TestMissSpansEveryProtocol(t *testing.T) {
	cases := []struct {
		proto  config.Protocol
		traced bool
	}{
		{config.NonSecure, false},
		{config.Freecursive, false},
		{config.Independent, true},
		{config.Split, true},
		{config.IndepSplit, true},
		{config.Ring, true},
	}
	for _, c := range cases {
		t.Run(c.proto.String(), func(t *testing.T) {
			tel := &Telemetry{Registry: telemetry.NewRegistry(), Trace: true}
			cfg := quickCfg(c.proto, 2)
			cfg.LLCBytes = 8 << 10
			res, err := Run(cfg, "mcf", tel)
			if err != nil {
				t.Fatal(err)
			}
			if res.Backend.Writes == 0 {
				t.Fatal("run produced no writebacks")
			}
			var reads, writes, readSum uint64
			for _, e := range tel.Tracer.Events() {
				switch e.Name {
				case "miss":
					reads++
					readSum += e.Dur
				case "writeback.miss":
					writes++
				}
			}
			h := res.Backend.MissLatency
			if !c.traced {
				if n := tel.Tracer.Len(); n != 0 {
					t.Fatalf("untraced backend recorded %d events", n)
				}
			} else if reads != res.Backend.Reads || writes != res.Backend.Writes || readSum != h.Sum() {
				t.Fatalf("spans: %d miss (%d cycles), %d writeback.miss; backend: %d reads (%d cycles), %d writes",
					reads, readSum, writes, res.Backend.Reads, h.Sum(), res.Backend.Writes)
			}
			hs, ok := tel.Registry.Snapshot().Histograms["protocol.miss_latency"]
			if !ok || hs.N != h.N() || h.N() != res.Backend.Reads {
				t.Fatalf("protocol.miss_latency registered=%v N=%d, backend N=%d, reads=%d",
					ok, hs.N, h.N(), res.Backend.Reads)
			}
		})
	}
}
