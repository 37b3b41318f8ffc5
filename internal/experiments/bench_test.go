package experiments

import (
	"testing"

	"sdimm/internal/config"
)

// BenchmarkSimRound is the timed unit of the gating benchmark's sim-paper
// workload: mcf against the six protocols on two channels at the golden
// scale, two workers. `make profile-sim` profiles it.
func BenchmarkSimRound(b *testing.B) {
	o := Options{Warmup: 120, Measure: 300, Levels: 22, Seed: 1, Workloads: []string{"mcf"}, Parallel: 2}
	protos := []config.Protocol{config.NonSecure, config.Freecursive,
		config.Independent, config.Split, config.IndepSplit, config.Ring}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Campaign(o, protos, 2); err != nil {
			b.Fatal(err)
		}
	}
}
