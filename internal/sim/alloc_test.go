package sim

import (
	"runtime"
	"testing"

	"sdimm/internal/config"
	"sdimm/internal/raceflag"
)

// TestSimRunAllocBudget gates the simulator's allocations per simulated
// trace record at the golden scale, construction included. The event engine
// and the DRAM channels allocate nothing once warm, so what is left is the
// protocols' per-access closures and path copies and the core's per-record
// maps. The budget is the largest protocol's measured count plus a quarter;
// before events and requests were pooled every protocol but non-secure spent
// 2 100 – 4 100 a record.
func TestSimRunAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates")
	}
	const budget = 168
	for _, p := range []config.Protocol{config.NonSecure, config.Freecursive,
		config.Independent, config.Split, config.IndepSplit, config.Ring} {
		cfg := config.Default(p, 2)
		cfg.ORAM.Levels = 22
		cfg.WarmupAccesses, cfg.MeasureAccesses = 120, 300
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(cfg, "mcf", nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		perRecord := float64(after.Mallocs-before.Mallocs) / float64(res.Records)
		t.Logf("%v: %.1f allocations per record", p, perRecord)
		if perRecord > budget {
			t.Errorf("%v: %.1f allocations per simulated record, budget %d", p, perRecord, budget)
		}
	}
}
