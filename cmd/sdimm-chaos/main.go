// Command sdimm-chaos runs one chaos scenario against a distributed SDIMM
// cluster and reports whether the recovery layers held. The flags compose:
// each adds a plan to the same run rather than selecting a mode.
//
//	sdimm-chaos                       # 5000 accesses, ~1.7% link-fault rate
//	sdimm-chaos -n 20000 -rate 0.05   # longer and nastier
//	sdimm-chaos -ringflush 4          # ring-eviction engines
//	sdimm-chaos -split -failshard 1   # Split protocol, kill shard 1 mid-run
//
// -crash adds seeded restart points that tear the journal mid-record (or,
// with -corrupt, flip a sealed-bucket bit and checkpoint the damage); the
// cluster restarts from its state directory, and the recovered run must be
// bitwise-equivalent to an uncrashed twin (a -split run at -parallel > 1
// and -batch > 1 in its results and payloads: its position map follows how
// the ops were grouped into waves, which a restart changes):
//
//	sdimm-chaos -crash -n 1200 -crashes 4
//	sdimm-chaos -crash -corrupt           # exercise the scrub pass
//	sdimm-chaos -crash -split -corrupt    # parity must repair every flip
//
// -resize adds an online membership change — drain a member, detach it and
// rejoin the slot (Independent), or fail-stop a shard and rebuild it from
// parity (Split) — with the restart points landing anywhere in the record
// stream, including inside migration batches; the drain must put no new
// frame shape on the links:
//
//	sdimm-chaos -resize -n 1200 -crashes 4
//	sdimm-chaos -resize -parallel 4 -ringflush 4
//	sdimm-chaos -resize -split -corrupt
//
// Exit status: 0 PASS, 1 corruption / leak / divergence (or a rejected flag
// combination), 2 only the retry budget was exhausted (on Split, also when
// that cost more members than parity covers and the run stopped).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"sdimm/internal/chaos"
	"sdimm/internal/fault"
	"sdimm/internal/flight"
	"sdimm/internal/telemetry"
	"sdimm/internal/witness"
)

func main() {
	var (
		n         = flag.Int("n", 5000, "number of accesses")
		sdimms    = flag.Int("sdimms", 4, "SDIMMs (power of two)")
		levels    = flag.Int("levels", 10, "ORAM tree levels")
		addrs     = flag.Uint64("addrs", 96, "address working-set size")
		seed      = flag.Uint64("seed", 42, "workload + fault seed")
		rate      = flag.Float64("rate", 0.017, "total per-delivery fault probability")
		attempts  = flag.Int("attempts", 8, "retry budget per exchange")
		split     = flag.Bool("split", false, "run the Split protocol (with XOR parity) instead of Independent")
		failShard = flag.Int("failshard", -1, "Split: member index to fail-stop a third of the way in (-1 = none)")
		snapshot  = flag.Bool("snapshot", true, "print the final telemetry snapshot (cluster.*, fault.*, seccomm.*)")
		traceOut  = flag.String("trace", "", "at exit, write the flight recorder (wave phases, events) as Chrome trace-event JSON to this file")
		parallel  = flag.Int("parallel", 1, "concurrent SDIMM workers (>1 drives the batched pipeline; results are bit-identical at any value)")
		batch     = flag.Int("batch", 8, "pipeline window for -parallel > 1 runs")
		crash     = flag.Bool("crash", false, "add seeded restart points; the recovered run must equal an uncrashed twin")
		crashes   = flag.Int("crashes", 4, "crash: number of seeded restart points")
		stateDir  = flag.String("statedir", "", "crash: state directory (default: a fresh temp dir, removed afterwards)")
		interval  = flag.Int("interval", 64, "crash: checkpoint cadence in committed accesses")
		corrupt   = flag.Bool("corrupt", false, "crash: flip a sealed-bucket bit at each point (scrub pass) instead of tearing the journal")
		resize    = flag.Bool("resize", false, "add the elastic-membership (drain/remove/join) schedule, with -crashes restart points")
		member    = flag.Int("member", 1, "resize: member slot to drain and rejoin (Split: to fail and rebuild)")
		flightOut = flag.String("flight", "", "attach the flight recorder; dump its rings as a Chrome trace to this file if the run goes red")
		ringFlush = flag.Int("ringflush", 0, "run ring-eviction ORAM engines with this deferred-flush interval A (0 = Path ORAM)")
	)
	flag.Parse()
	// A flag with a non-zero default applies where its plan does; set
	// explicitly it is always passed on, so the scenario's validation can
	// reject a combination instead of the flag being dropped.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	reg := telemetry.NewRegistry()
	sc := chaos.Scenario{
		SDIMMs:            *sdimms,
		Levels:            *levels,
		Accesses:          *n,
		Addresses:         *addrs,
		Seed:              *seed,
		Split:             *split,
		Parity:            *split,
		RingFlushInterval: *ringFlush,
		Corrupt:           *corrupt,
		Dir:               *stateDir,
		Resize:            *resize,
		Parallelism:       *parallel,
		Telemetry:         reg,
		FlightPath:        *flightOut,
	}
	// Spread the requested rate across every fault class the injector
	// models, weighted toward the common ones.
	r := *rate
	sc.Faults = fault.Config{Seed: *seed ^ 0xfa417, BitFlip: r * 0.30, Drop: r * 0.25,
		Duplicate: r * 0.15, Replay: r * 0.10, Stall: r * 0.12, MACCorrupt: r * 0.08}
	sc.Retry = fault.RetryPolicy{MaxAttempts: *attempts}
	if *failShard >= 0 {
		sc.FailShard, sc.FailShardAt = *failShard, *n/3
	}
	if *crash || *resize || explicit["crashes"] {
		sc.Crashes = *crashes
	}
	if sc.Crashes > 0 || explicit["interval"] {
		sc.Interval = *interval
	}
	if *resize || explicit["member"] {
		sc.Member = *member
	}
	if *parallel > 1 || explicit["batch"] {
		sc.Window = *batch
	}
	// The witness watches every member's link, the parity member's
	// included; its violation count feeds the verdict. The flight
	// recorder's rings are only written out when a run fails.
	members := *sdimms
	if *split {
		members++ // the parity member has a link and a ring too
	}
	sc.Witness = witness.New(witness.Options{Members: members, Registry: reg})
	if *flightOut != "" || *traceOut != "" {
		sc.Flight = flight.New(members, 1024)
	}

	res, err := chaos.Run(sc)
	if *traceOut != "" {
		writeTrace(sc.Flight, *traceOut)
	}
	if err != nil && res.Snapshot == nil {
		fmt.Fprintf(os.Stderr, "sdimm-chaos: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(res)
	if *snapshot {
		fmt.Println("telemetry:")
		res.Snapshot.WriteText(os.Stdout, "cluster.", "fault.", "seccomm.", "witness.")
	}
	if res.FlightDump != "" {
		fmt.Fprintf(os.Stderr, "sdimm-chaos: flight recorder dumped to %s\n", res.FlightDump)
	}
	// Only the retry budget ran out iff the run is green once its errors
	// are set aside. A Split run that ran out of members (each one lost to
	// an abandoned exchange) stops with ErrUnavailable, and is judged so too.
	degraded := res
	degraded.Errors = 0
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdimm-chaos: %v\n", err)
	}
	switch {
	case err != nil && !errors.Is(err, fault.ErrUnavailable):
		os.Exit(1)
	case res.Green() && sc.Crashes > 0:
		fmt.Println("RESULT: PASS — all faults absorbed, traffic invariant held, every restart recovered bitwise-equivalent")
	case res.Green():
		fmt.Println("RESULT: PASS — all faults absorbed, traffic invariant held")
	case degraded.Green() && err != nil:
		fmt.Printf("RESULT: DEGRADED — access %d cost more Split members than parity covers; the run stopped there\n", res.Accesses)
		os.Exit(2)
	case degraded.Green():
		fmt.Printf("RESULT: DEGRADED — %d accesses exhausted the retry budget\n", res.Errors)
		os.Exit(2)
	case res.WitnessViolations != 0:
		fmt.Printf("RESULT: FAIL — obliviousness witness flagged %d link-invariant violations\n", res.WitnessViolations)
		os.Exit(1)
	default:
		fmt.Println("RESULT: FAIL — the run leaked, corrupted, or diverged from its uncrashed twin")
		os.Exit(1)
	}
}

// writeTrace dumps the flight recorder to path and validates what it wrote.
func writeTrace(fr *flight.Recorder, path string) {
	n, err := 0, fr.DumpFile(path)
	var data []byte
	if err == nil {
		data, err = os.ReadFile(path)
	}
	if err == nil {
		n, err = telemetry.ValidateTrace(data)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdimm-chaos: trace %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("trace %s (%d events, validated)\n", path, n)
}
