package sim

import (
	"testing"

	"sdimm/internal/config"
)

func quickCfg(p config.Protocol, channels int) config.Config {
	c := config.Default(p, channels)
	c.ORAM.Levels = 24
	c.WarmupAccesses = 150
	c.MeasureAccesses = 400
	return c
}

func TestRunValidation(t *testing.T) {
	cfg := quickCfg(config.NonSecure, 1)
	if _, err := Run(cfg, "not-a-benchmark", nil); err == nil {
		t.Fatal("unknown workload accepted")
	}
	bad := cfg
	bad.WarmupAccesses, bad.MeasureAccesses = 0, 0
	if _, err := Run(bad, "mcf", nil); err == nil {
		t.Fatal("zero-length run accepted")
	}
	bad = cfg
	bad.Org.Channels = 0
	if _, err := Run(bad, "mcf", nil); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestNonSecureRunCompletes(t *testing.T) {
	res, err := Run(quickCfg(config.NonSecure, 1), "mcf", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 550 {
		t.Fatalf("records = %d", res.Records)
	}
	if res.MeasuredCycles == 0 || res.MeasuredCycles >= res.TotalCycles {
		t.Fatalf("measured %d of %d cycles", res.MeasuredCycles, res.TotalCycles)
	}
	if res.LLCMisses == 0 {
		t.Fatal("no misses in measurement window")
	}
	if res.Energy.Total() <= 0 {
		t.Fatal("no energy accounted")
	}
	if res.HostBytes == 0 || res.LocalBytes != 0 {
		t.Fatalf("byte split: host %d local %d", res.HostBytes, res.LocalBytes)
	}
}

func TestFreecursiveSlowdownShape(t *testing.T) {
	ns, err := Run(quickCfg(config.NonSecure, 1), "milc", nil)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := Run(quickCfg(config.Freecursive, 1), "milc", nil)
	if err != nil {
		t.Fatal(err)
	}
	slowdown := float64(fc.MeasuredCycles) / float64(ns.MeasuredCycles)
	if slowdown < 2 {
		t.Fatalf("freecursive slowdown %.2f, want >> 1 (paper: ~8.8x single channel)", slowdown)
	}
	if fc.AccessesPerMiss < 1 || fc.AccessesPerMiss > 3 {
		t.Fatalf("accessORAMs per miss %.2f, paper reports ~1.4", fc.AccessesPerMiss)
	}
}

func TestSDIMMProtocolsBeatBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-protocol comparison")
	}
	fc, err := Run(quickCfg(config.Freecursive, 1), "milc", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []config.Protocol{config.Independent, config.Split} {
		r, err := Run(quickCfg(p, 1), "milc", nil)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		norm := float64(r.MeasuredCycles) / float64(fc.MeasuredCycles)
		if norm >= 1.0 {
			t.Errorf("%v normalized time %.3f, want < 1 vs freecursive", p, norm)
		}
		if r.LocalBytes == 0 {
			t.Errorf("%v recorded no on-DIMM traffic", p)
		}
		if r.HostBytes >= fc.HostBytes {
			t.Errorf("%v host bytes %d not below baseline %d", p, r.HostBytes, fc.HostBytes)
		}
	}
}

func TestSDIMMEnergyBelowBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-protocol comparison")
	}
	fc, err := Run(quickCfg(config.Freecursive, 1), "lbm", nil)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := Run(quickCfg(config.Split, 1), "lbm", nil)
	if err != nil {
		t.Fatal(err)
	}
	if sp.EnergyPerMiss >= fc.EnergyPerMiss {
		t.Fatalf("split energy/miss %.3g not below freecursive %.3g",
			sp.EnergyPerMiss, fc.EnergyPerMiss)
	}
}

func TestDeterministicResults(t *testing.T) {
	a, err := Run(quickCfg(config.Independent, 1), "soplex", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickCfg(config.Independent, 1), "soplex", nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeasuredCycles != b.MeasuredCycles || a.Energy.Total() != b.Energy.Total() {
		t.Fatalf("replay diverged: %d/%d vs %g/%g",
			a.MeasuredCycles, b.MeasuredCycles, a.Energy.Total(), b.Energy.Total())
	}
}
