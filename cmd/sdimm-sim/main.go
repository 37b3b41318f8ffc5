// Command sdimm-sim runs one simulation: a protocol, a channel count, and a
// workload, printing performance and energy results.
//
// Usage:
//
//	sdimm-sim -protocol indep-split -channels 2 -workload mcf
//	sdimm-sim -protocol freecursive -levels 24 -warmup 500 -measure 2000
//	sdimm-sim -protocol independent -trace out.json -snapshot
//	sdimm-sim -workload milc,gromacs,mcf -parallel 4
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"

	"sdimm/internal/config"
	"sdimm/internal/sim"
	"sdimm/internal/telemetry"
	"sdimm/internal/trace"
)

func main() {
	var (
		protoName = flag.String("protocol", "freecursive", "non-secure | freecursive | independent | split | indep-split | ring")
		channels  = flag.Int("channels", 2, "host memory channels (1 or 2)")
		workload  = flag.String("workload", "mcf", "benchmark profile, or a comma-separated list to shard (see -list)")
		parallel  = flag.Int("parallel", 1, "concurrent simulations when -workload lists several profiles (output order and merged telemetry are identical at any value)")
		levels    = flag.Int("levels", 28, "ORAM tree levels")
		cached    = flag.Int("cached", 7, "on-chip ORAM cache levels (0 disables)")
		warmup    = flag.Int("warmup", 500, "warmup LLC-miss records")
		measure   = flag.Int("measure", 2000, "measured LLC-miss records")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		lowPower  = flag.Bool("lowpower", true, "rank-per-subtree low-power layout")
		replay    = flag.String("replay", "", "drive the run from a trace file (see sdimm-trace) instead of a generated workload")
		traceOut  = flag.String("trace", "", "write a Chrome trace-event JSON file of the run (open in Perfetto or chrome://tracing)")
		snapshot  = flag.Bool("snapshot", false, "print the telemetry snapshot after the run")
		telAddr   = flag.String("telemetry", "", "serve live telemetry JSON on this address (e.g. localhost:8080) during the run")
		telLog    = flag.Duration("telemetry-log", 0, "log the telemetry snapshot to stderr at this interval (0 disables)")
		list      = flag.Bool("list", false, "list workload profiles and exit")
	)
	flag.Parse()

	if *list {
		for _, p := range trace.Profiles() {
			fmt.Printf("%-12s mean-gap=%-4g burst=%-3d stream=%.2f footprint=%d lines\n",
				p.Name, p.MeanGap, p.Burst, p.StreamProb, p.Footprint)
		}
		return
	}

	proto, err := config.ParseProtocol(*protoName)
	if err != nil {
		fatal(err)
	}
	cfg := config.Default(proto, *channels)
	cfg.ORAM.Levels = *levels
	cfg.ORAM.CachedLevels = *cached
	cfg.WarmupAccesses = *warmup
	cfg.MeasureAccesses = *measure
	cfg.Seed = *seed
	cfg.LowPower = *lowPower

	var tel *sim.Telemetry
	if *traceOut != "" || *snapshot || *telAddr != "" || *telLog != 0 {
		tel = &sim.Telemetry{Registry: telemetry.NewRegistry(), Trace: *traceOut != ""}
	}

	names := strings.Split(*workload, ",")
	if len(names) > 1 && (*replay != "" || *traceOut != "") {
		fatal(fmt.Errorf("-replay and -trace need a single workload"))
	}
	if *telAddr != "" {
		addr, stop, err := telemetry.Serve(*telAddr, tel.Registry)
		if err != nil {
			fatal(err)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "sdimm-sim: telemetry at http://%s (?text=1 for plain text)\n", addr)
	}
	if *telLog != 0 {
		stop := telemetry.StartLogger(tel.Registry, os.Stderr, *telLog)
		defer stop()
	}

	// A comma-separated -workload list shards the runs across -parallel
	// workers. Each run gets a private registry; the shards are merged in
	// list order, so output and telemetry match a sequential run exactly.
	if len(names) > 1 {
		runSharded(cfg, names, *parallel, tel)
	} else {
		res, err := runOne(cfg, *workload, *replay, tel)
		if err != nil {
			fatal(err)
		}
		printResult(res)
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, tel.Tracer); err != nil {
			fatal(err)
		}
	}
	if *snapshot {
		fmt.Println()
		tel.Registry.Snapshot().WriteText(os.Stdout)
	}
}

// runOne runs cfg on a generated workload, or on the records of the trace
// file replay when it is set.
func runOne(cfg config.Config, workload, replay string, tel *sim.Telemetry) (sim.Result, error) {
	if replay == "" {
		return sim.Run(cfg, workload, tel)
	}
	f, err := os.Open(replay)
	if err != nil {
		return sim.Result{}, err
	}
	recs, err := trace.Read(f)
	f.Close()
	if err != nil {
		return sim.Result{}, err
	}
	n := cfg.WarmupAccesses + cfg.MeasureAccesses
	if n > len(recs) {
		return sim.Result{}, fmt.Errorf("trace has %d records, need %d", len(recs), n)
	}
	return sim.RunTrace(cfg, replay, recs[:n], nil, tel)
}

func printResult(res sim.Result) {
	fmt.Printf("protocol           %s\n", res.Protocol)
	fmt.Printf("workload           %s\n", res.Workload)
	fmt.Printf("measured cycles    %d\n", res.MeasuredCycles)
	fmt.Printf("total cycles       %d\n", res.TotalCycles)
	fmt.Printf("LLC misses (meas)  %d\n", res.LLCMisses)
	fmt.Printf("cycles / miss      %.1f\n", res.CyclesPerMiss())
	fmt.Printf("avg miss latency   %.1f cycles\n", res.AvgMissLatency)
	fmt.Printf("accessORAM / miss  %.3f\n", res.AccessesPerMiss)
	fmt.Printf("host bytes         %d\n", res.HostBytes)
	fmt.Printf("on-DIMM bytes      %d\n", res.LocalBytes)
	fmt.Printf("energy             %.4g J (bg %.3g, act %.3g, rw %.3g, ref %.3g, io %.3g)\n",
		res.Energy.Total(), res.Energy.Background, res.Energy.ActPre,
		res.Energy.ReadWrite, res.Energy.Refresh, res.Energy.IO)
	fmt.Printf("energy / miss      %.4g J\n", res.EnergyPerMiss)
	fmt.Printf("host bus util      %.3f\n", res.HostBusUtil)
	fmt.Printf("on-DIMM bus util   %.3f\n", res.LocalBusUtil)
}

// runSharded executes one configuration against several workloads across a
// bounded worker pool. Per-shard results and registries land in
// list-indexed slots and are printed/merged in list order after the pool
// drains, so -parallel changes only the wall clock.
func runSharded(cfg config.Config, names []string, parallel int, tel *sim.Telemetry) {
	if parallel < 1 {
		parallel = 1
	}
	results := make([]sim.Result, len(names))
	errs := make([]error, len(names))
	regs := make([]*telemetry.Registry, len(names))
	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	for i := range names {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var shard *sim.Telemetry
			if tel != nil {
				regs[i] = telemetry.NewRegistry()
				shard = &sim.Telemetry{Registry: regs[i]}
			}
			results[i], errs[i] = sim.Run(cfg, strings.TrimSpace(names[i]), shard)
		}(i)
	}
	wg.Wait()
	for i, name := range names {
		if errs[i] != nil {
			fatal(fmt.Errorf("%s: %w", name, errs[i]))
		}
		if i > 0 {
			fmt.Println()
		}
		printResult(results[i])
		if tel != nil {
			tel.Registry.Merge(regs[i])
		}
	}
}

// writeTrace exports the collected spans as Chrome trace-event JSON and
// re-validates the written file so a bad export fails loudly.
func writeTrace(path string, tr *telemetry.Tracer) error {
	if tr == nil {
		return fmt.Errorf("no trace collected (protocol does not emit spans)")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	n, err := telemetry.ValidateTrace(data)
	if err != nil {
		return fmt.Errorf("%s: invalid trace: %w", path, err)
	}
	fmt.Printf("trace              %s (%d events, validated)\n", path, n)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sdimm-sim:", err)
	os.Exit(1)
}
