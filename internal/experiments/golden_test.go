package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"sdimm/internal/stats"
)

var update = flag.Bool("update", false, "rewrite the golden experiment tables")

// goldenOptions is the fixed-seed scale the golden tables are pinned at:
// small enough to run in seconds, large enough that every backend does real
// evictions and queueing. Changing it invalidates every golden file.
func goldenOptions() Options {
	return Options{Warmup: 120, Measure: 300, Levels: 22, Seed: 1,
		Workloads: []string{"milc", "gromacs", "mcf"}}
}

// TestGoldenTables regression-pins the paper's headline tables: a seeded
// experiments run must reproduce the checked-in JSON byte-for-byte. Any
// change to the simulator, protocols, DRAM model, or RNG that shifts a
// single cell fails here first. Refresh intentionally with:
//
//	go test ./internal/experiments -run TestGoldenTables -update
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	cases := []struct {
		name string
		gen  func(Options) (*stats.Table, error)
	}{
		{"fig6", Fig6},
		{"fig8", Fig8},
		{"fig9", Fig9},
		{"fig10", Fig10},
		{"offdimm", OffDIMM},
		{"latency", Latency},
		{"ring", Ring},
		// The four below pin what the seven above do not: the LowPower=false
		// striping leg, TenantMem on channels and on links, the
		// transfer-queue/stash counters, and CachedLevels=0.
		{"lowpower", LowPower},
		{"cotenant", CoTenant},
		{"overflow", Overflow},
		{"fig11", func(o Options) (*stats.Table, error) { return Fig11(o, []int{20, 22}) }},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			tab, err := c.gen(goldenOptions())
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(tab, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "golden", c.name+".json")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create the golden file)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s drifted from golden; diff the table below against %s and "+
					"rerun with -update if the change is intentional:\n%s", c.name, path, tab)
			}
			// The golden bytes must also round-trip through the Table JSON
			// codec, or the stored file could not be audited or reused.
			var back stats.Table
			if err := json.Unmarshal(want, &back); err != nil {
				t.Fatalf("golden file does not parse as a Table: %v", err)
			}
		})
	}
}
