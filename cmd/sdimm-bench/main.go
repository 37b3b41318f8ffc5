// Command sdimm-bench regenerates the paper's evaluation: every figure and
// the textual results, printed as tables/series in the layout of Section IV.
//
// Usage:
//
//	sdimm-bench                 # all experiments at default scale
//	sdimm-bench -exp fig9       # one experiment
//	sdimm-bench -measure 2000   # bigger measurement windows
//	sdimm-bench -exp blame      # pipeline critical-path diagnostic (make blame)
//
// Performance numbers are not measured here: the gating benchmark is
// benchmark/ (BENCHMARK.json) and the allocation gates are go tests
// (make alloc-gates).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sdimm/internal/experiments"
	"sdimm/internal/stats"
	"sdimm/internal/telemetry"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: fig6|fig8|fig9|fig10|fig11|fig13a|fig13b|offdimm|latency|lowpower|cotenant|overflow|ring|area|all, or blame (pipeline diagnostic, not part of all)")
		warmup   = flag.Int("warmup", 400, "warmup records per run")
		measure  = flag.Int("measure", 800, "measured records per run")
		levels   = flag.Int("levels", 28, "ORAM tree levels")
		seed     = flag.Uint64("seed", 1, "base seed")
		loads    = flag.String("workloads", "", "comma-separated subset of workloads (default: all 10)")
		parallel = flag.Int("parallel", 0, "concurrent simulations (default: NumCPU)")
		csv      = flag.Bool("csv", false, "emit tables as CSV instead of aligned text")
		snapshot = flag.Bool("snapshot", false, "print the aggregate telemetry snapshot after all experiments")
		telAddr  = flag.String("telemetry", "", "serve live telemetry JSON on this address (e.g. localhost:8080) while experiments run")
		telLog   = flag.Duration("telemetry-log", 0, "log the telemetry snapshot to stderr at this interval (0 disables)")
	)
	flag.Parse()

	// blame is a diagnostic, not a paper table: it prints the batched
	// pipeline's per-phase breakdown and serialization ledger (README,
	// "Diagnosing a slow pipeline").
	if *exp == "blame" {
		if err := runBlame(); err != nil {
			fatal(err)
		}
		return
	}

	opt := experiments.Options{
		Warmup:   *warmup,
		Measure:  *measure,
		Levels:   *levels,
		Seed:     *seed,
		Parallel: *parallel,
	}
	if *loads != "" {
		opt.Workloads = strings.Split(*loads, ",")
	}
	if *snapshot || *telAddr != "" || *telLog != 0 {
		opt.Telemetry = telemetry.NewRegistry()
	}
	if *telAddr != "" {
		addr, stop, err := telemetry.Serve(*telAddr, opt.Telemetry)
		if err != nil {
			fatal(err)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "sdimm-bench: telemetry at http://%s (?text=1 for plain text)\n", addr)
	}
	if *telLog != 0 {
		stop := telemetry.StartLogger(opt.Telemetry, os.Stderr, *telLog)
		defer stop()
	}

	type tableExp struct {
		name string
		run  func(experiments.Options) (*stats.Table, error)
	}
	tables := []tableExp{
		{"fig6", experiments.Fig6},
		{"fig8", experiments.Fig8},
		{"fig9", experiments.Fig9},
		{"fig10", experiments.Fig10},
		{"fig11", func(o experiments.Options) (*stats.Table, error) { return experiments.Fig11(o, nil) }},
		{"offdimm", experiments.OffDIMM},
		{"latency", experiments.Latency},
		{"ring", experiments.Ring},
		{"lowpower", experiments.LowPower},
		{"cotenant", experiments.CoTenant},
		{"overflow", experiments.Overflow},
	}

	ran := false
	for _, te := range tables {
		if *exp != "all" && *exp != te.name {
			continue
		}
		ran = true
		start := time.Now()
		t, err := te.run(opt)
		if err != nil {
			fatal(err)
		}
		if *csv {
			fmt.Printf("# %s\n%s\n", te.name, t.CSV())
		} else {
			fmt.Print(t)
			fmt.Printf("(%s in %.1fs)\n\n", te.name, time.Since(start).Seconds())
		}
	}

	if *exp == "all" || *exp == "fig13a" {
		ran = true
		series, err := experiments.Fig13a(nil, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Println("== Figure 13a: transfer-queue overflow probability (random walk) ==")
		for _, s := range series {
			fmt.Println(s.String())
		}
		fmt.Println()
	}
	if *exp == "all" || *exp == "fig13b" {
		ran = true
		series, err := experiments.Fig13b(nil, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Println("== Figure 13b: M/M/1/K overflow probability ==")
		for _, s := range series {
			fmt.Println(s.String())
		}
		fmt.Println()
	}
	if *exp == "all" || *exp == "area" {
		ran = true
		a := experiments.Area()
		fmt.Println("== Secure buffer area (Section IV-B) ==")
		fmt.Printf("ORAM controller %.2f mm² + 8KB buffer %.2f mm² = %.2f mm² (< 1 mm²)\n\n",
			a.ControllerMM2, a.BufferMM2, a.Total())
	}
	if !ran {
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
	if *snapshot {
		fmt.Println("== Aggregate telemetry ==")
		opt.Telemetry.Snapshot().WriteText(os.Stdout)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sdimm-bench:", err)
	os.Exit(1)
}
