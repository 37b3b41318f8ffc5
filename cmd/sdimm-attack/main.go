// Command sdimm-attack plays the adversary of the threat model: it captures
// the plaintext command/address traces on every untrusted bus for two
// programs and reports whether they can be told apart, with the
// distinguishability metrics of internal/attacker.
//
// Usage:
//
//	sdimm-attack -protocol freecursive -a libquantum -b mcf
//	sdimm-attack -protocol non-secure  -a libquantum -b mcf
package main

import (
	"flag"
	"fmt"
	"os"

	"sdimm/internal/attacker"
	"sdimm/internal/config"
)

func main() {
	var (
		protoName = flag.String("protocol", "freecursive", "memory system under attack")
		wa        = flag.String("a", "libquantum", "first program")
		wb        = flag.String("b", "mcf", "second program")
		channels  = flag.Int("channels", 1, "host memory channels")
		levels    = flag.Int("levels", 20, "ORAM tree levels")
		records   = flag.Int("records", 400, "measured records per capture")
		seed      = flag.Uint64("seed", 1, "system randomness seed")
	)
	flag.Parse()

	proto, err := config.ParseProtocol(*protoName)
	if err != nil {
		fatal(err)
	}
	grab := func(w string, sysSeed uint64) *attacker.Trace {
		cfg := config.Default(proto, *channels)
		cfg.ORAM.Levels = *levels
		cfg.WarmupAccesses = 100
		cfg.MeasureAccesses = *records
		cfg.Seed = sysSeed
		traces, _, err := attacker.CaptureSeeded(cfg, w, 1)
		if err != nil {
			fatal(err)
		}
		return attacker.Merge(traces)
	}

	ta := grab(*wa, *seed)
	tb := grab(*wb, *seed)
	cross, err := attacker.TotalVariation(ta, tb)
	if err != nil {
		fatal(err)
	}
	floor, err := attacker.TotalVariation(ta, grab(*wa, *seed+1))
	if err != nil {
		fatal(err)
	}

	fmt.Printf("memory system: %s\n", proto)
	for _, pair := range []struct {
		name string
		tr   *attacker.Trace
	}{{*wa, ta}, {*wb, tb}} {
		r := attacker.Analyze(pair.tr)
		fmt.Printf("  %-12s %6d ACTs  %5d rows  entropy %.2f bits (norm %.3f)  repeat %.3f\n",
			pair.name, r.Accesses, r.DistinctRows, r.Entropy, r.NormalizedEntropy, r.RepeatRate)
	}
	fmt.Printf("TV(%s, %s) = %.3f   noise floor = %.3f\n", *wa, *wb, cross, floor)
	if cross >= 1.5*floor {
		fmt.Println("verdict: DISTINGUISHABLE — the bus leaks the access pattern")
		os.Exit(2)
	}
	fmt.Println("verdict: indistinguishable within sampling noise")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sdimm-attack:", err)
	os.Exit(1)
}
