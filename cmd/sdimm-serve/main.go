// sdimm-serve is the overload-robust multi-tenant serving front end: a TCP
// block server over a cluster's streaming pipeline, with tenant-oblivious
// admission control, per-request deadlines, slow-start backpressure, and
// graceful drain through the durable journal commit point.
//
// Modes:
//
//	sdimm-serve                          serve until SIGTERM (graceful) —
//	                                     a second signal hard-exits
//	sdimm-serve -state DIR               durable serving; restarts recover
//	                                     the journal automatically
//	sdimm-serve -smoke                   in-process serving smoke test (CI)
//
// The -http endpoint exposes the SLO dashboard: GET /slo (JSON snapshot),
// GET /witness (obliviousness verdict), GET /metrics (Prometheus), GET /
// (raw counters). See README, "Serving runbook".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sdimm"
	"sdimm/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7911", "TCP listen address")
		httpAddr  = flag.String("http", "", "telemetry/SLO HTTP address (empty = disabled)")
		sdimms    = flag.Int("sdimms", 4, "SDIMM count (power of two)")
		levels    = flag.Int("levels", 12, "global tree levels")
		blockSize = flag.Int("block", 128, "block payload bytes")
		window    = flag.Int("window", 8, "pipeline window")
		seed      = flag.Uint64("seed", 1, "cluster seed")
		state     = flag.String("state", "", "durable state directory (empty = in-memory)")
		interval  = flag.Int("interval", 256, "checkpoint interval (accesses)")
		deadline  = flag.Duration("deadline", 250*time.Millisecond, "default per-request deadline")
		flightDir = flag.String("flight-dir", "", "flight-recorder auto-dump directory")
		key       = flag.String("key", "sdimm-serve-key", "cluster master key")
		smoke     = flag.Bool("smoke", false, "run the in-process serving smoke test and exit")
	)
	flag.Parse()

	cfg := serve.Config{
		Cluster: sdimm.ClusterOptions{
			SDIMMs: *sdimms, Levels: *levels, BlockSize: *blockSize,
			Key: []byte(*key), Seed: *seed,
		},
		Pipeline:        sdimm.PipelineOptions{Window: *window},
		DefaultDeadline: *deadline,
		FlightDir:       *flightDir,
	}
	if *state != "" {
		cfg.Cluster.Durability = &sdimm.DurabilityOptions{Dir: *state, Interval: *interval}
	}

	if *smoke {
		if err := runSmoke(cfg); err != nil {
			log.Fatalf("serve smoke: %v", err)
		}
		return
	}
	if err := runServe(cfg, *addr, *httpAddr); err != nil {
		log.Fatal(err)
	}
}

// newOrRecover builds the server, recovering the state directory when it
// already holds checkpoints from a previous run.
func newOrRecover(cfg serve.Config) (*serve.Server, error) {
	s, err := serve.New(cfg)
	if err == nil {
		return s, nil
	}
	if !errors.Is(err, sdimm.ErrStateExists) {
		return nil, err
	}
	s, report, err := serve.Recover(cfg)
	if err != nil {
		return nil, fmt.Errorf("recover %s: %w", cfg.Cluster.Durability.Dir, err)
	}
	log.Printf("recovered state from %s: %+v", cfg.Cluster.Durability.Dir, *report)
	return s, nil
}

func runServe(cfg serve.Config, addr, httpAddr string) error {
	s, err := newOrRecover(cfg)
	if err != nil {
		return err
	}
	bound, err := s.Start(addr)
	if err != nil {
		return err
	}
	log.Printf("serving on %s (window %d, deadline %s, queue limit %d)",
		bound, cfg.Pipeline.Window, cfg.DefaultDeadline, s.Admission().Limit())
	if httpAddr != "" {
		go func() {
			log.Printf("SLO dashboard on http://%s/slo", httpAddr)
			if err := http.ListenAndServe(httpAddr, s.HTTPHandler()); err != nil {
				log.Printf("http: %v", err)
			}
		}()
	}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	log.Printf("%s: draining (second signal hard-exits)", got)
	go func() {
		<-sig
		log.Print("second signal: hard exit")
		os.Exit(2)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	log.Print("drained cleanly")
	return nil
}

// runSmoke is the CI smoke leg: two tenants against an in-process server,
// then a graceful drain. Fails on any SLO breach.
func runSmoke(cfg serve.Config) error {
	s, err := newOrRecover(cfg)
	if err != nil {
		return err
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	for _, tenant := range []string{"alpha", "beta"} {
		rep, err := serve.RunLoad(serve.LoadOptions{
			Addr: addr, Tenant: tenant, Workers: 4, Ops: 200,
			Space: 64, DeadlineMS: 2000, Seed: 7,
		})
		if err != nil {
			return fmt.Errorf("%s load: %w", tenant, err)
		}
		if rep.OK == 0 || rep.Errors != 0 {
			return fmt.Errorf("%s: %+v", tenant, rep)
		}
	}
	slo := s.SLO()
	if err := s.Shutdown(context.Background()); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if slo.AcceptedDeadlineMissed != 0 {
		return fmt.Errorf("%d accepted deadline misses", slo.AcceptedDeadlineMissed)
	}
	if !slo.Witness.OK {
		return fmt.Errorf("witness red: %+v", slo.Witness)
	}
	fmt.Printf("serve smoke ok: %d ops, p99 %dus, witness green (%d frames)\n",
		slo.OK, slo.LatencyP99US, slo.Witness.Frames)
	return nil
}
