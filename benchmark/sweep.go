package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"sdimm"
	"sdimm/internal/blame"
	"sdimm/internal/telemetry"
)

// step is one driver's fixed-count run inside a traced sweep: the same
// operations once with nothing attached and once observed.
type step struct {
	bare   phase
	traced phase
}

func rate(p phase) float64 { return float64(p.Ops) / p.Seconds }

// sweep is one traced run: every layer measured from outside, under the
// workload's configuration and operation stream. The workload's own driver
// runs longest and supplies trace.overhead_share and the budget's service
// time; the other drivers run briefly so that every layer has a number in
// every traced run.
type sweep struct {
	root string
	w    workload
	sc   scale
	seed uint64
	log  *spanLog
	o    *outcome
}

func (sw *sweep) set(name string, v float64) { sw.o.Values[name] = v }

func (sw *sweep) account(ps ...phase) {
	for _, p := range ps {
		sw.o.Attempted += p.Ops
		sw.o.Failed += p.Failed
	}
}

// opsFor sizes a step: the workload's own driver runs longer than the others.
func (sw *sweep) opsFor(own bool) int {
	if own {
		return sw.sc.tracedOps
	}
	return sw.sc.sweepOps
}

// functionalStep runs one sequential or pipelined driver twice over the same
// operations: bare, then with obs attached. atStart runs on the observed
// cluster after prefill and warm-up, so taps can take their baseline. The
// observed cluster is returned open, with its state directory when durable.
func (sw *sweep) functionalStep(ring, pipelined, durable, own bool, obs observers, atStart func(*functional)) (st step, f *functional, dir string, err error) {
	units, warm := sw.opsFor(own), sw.sc.sweepOps/4
	if durable {
		// Checkpoints make a durable access several times dearer; a quarter
		// of the operations still crosses some twenty of them when the
		// workload is the durable one, and five when it is not.
		units /= 4
		warm /= 4
	}
	if pipelined {
		units /= batchLen
	}
	for pass := 0; pass < 2; pass++ {
		dir = ""
		if durable {
			if dir, err = workDir(sw.root, "sweep"); err != nil {
				return st, nil, "", err
			}
		}
		var attach observers
		if pass == 1 {
			attach = obs
		}
		if f, err = newFunctional(sw.sc, sw.seed, ring, pipelined, dir, attach); err != nil {
			return st, nil, "", err
		}
		if err = f.warm(warm); err != nil {
			f.close()
			return st, nil, "", err
		}
		if pass == 0 {
			st.bare = measure(f.unit(), 0, units, 0, 1)
			f.close()
			os.RemoveAll(dir)
			continue
		}
		if atStart != nil {
			atStart(f)
		}
		f.log = sw.log
		st.traced = measure(f.unit(), 0, units, 0, 1)
		f.log = nil
	}
	sw.account(st.bare, st.traced)
	return st, f, dir, nil
}

// seqStep covers the cluster and its links: one caller, Read/Write, with the
// link tap and the telemetry registry attached.
func (sw *sweep) seqStep() (step, error) {
	tap := newLinkTap(sw.log)
	reg := telemetry.NewRegistry()
	obs := func(o *sdimm.ClusterOptions) { o.LinkTap, o.Telemetry = tap.tap, reg }
	counters := []string{"seccomm.seals", "fault.exchanges", "fault.retries"}
	base := map[string]float64{}
	read := func(f *functional, into map[string]float64) {
		for _, n := range counters {
			into[n] = float64(reg.Counter(n).Value())
		}
		frames, bytes, device := tap.totals()
		into["frames"], into["bytes"], into["device"] = float64(frames), float64(bytes), float64(device)
		into["writes"] = float64(f.c.BucketWrites())
	}
	st, f, _, err := sw.functionalStep(sw.w.ring, false, false, sw.w.kind == kindSeq, obs,
		func(f *functional) { read(f, base) })
	if err != nil {
		return st, err
	}
	defer f.close()
	end := map[string]float64{}
	read(f, end)
	ops := float64(st.traced.Ops)
	per := func(name string) float64 { return (end[name] - base[name]) / ops }
	deviceUS := per("device") / 1e3
	sw.set("cluster.access_us", 1e6/rate(st.bare))
	sw.set("seccomm.seals_per_op", per("seccomm.seals"))
	sw.set("fault.exchanges_per_op", per("fault.exchanges"))
	sw.set("fault.retries", end["fault.retries"]-base["fault.retries"])
	sw.set("link.frames_per_op", per("frames"))
	sw.set("link.bytes_per_op", per("bytes"))
	sw.set("link.device_us_per_op", deviceUS)
	sw.set("link.host_us_per_op", 1e6/rate(st.traced)-deviceUS)
	sw.set("oram.bucket_writes_per_op", per("writes"))
	return st, nil
}

// pipeStep covers the wave engine through the blame collector. The durable
// variant adds the journal and the checkpoints, then crashes and recovers.
func (sw *sweep) pipeStep(durable bool) (step, error) {
	col := blame.NewCollector(members, 0)
	reg := telemetry.NewRegistry()
	obs := func(o *sdimm.ClusterOptions) { o.Blame, o.Telemetry = col, reg }
	var baseRep blame.Report
	var baseCkpt uint64
	own := sw.w.kind == kindPipe && sw.w.durable == durable
	st, f, dir, err := sw.functionalStep(false, true, durable, own, obs, func(*functional) {
		baseRep = col.Report()
		baseCkpt = reg.Counter("cluster.checkpoints").Value()
	})
	if err != nil {
		return st, err
	}
	rep := col.Report()
	waves := float64(rep.Waves - baseRep.Waves)
	wall := float64(rep.WallNS - baseRep.WallNS)
	phaseUS := map[string]float64{}
	for i, ph := range rep.Phases {
		phaseUS[ph.Phase] = float64(ph.TotalNS-baseRep.Phases[i].TotalNS) / 1e3
	}
	if durable {
		defer os.RemoveAll(dir)
		sw.set("pipeline.phase.checkpoint_us_per_wave", phaseUS["checkpoint"]/waves)
		sw.set("durable.checkpoint_share", phaseUS["checkpoint"]*1e3/wall)
		sw.set("durable.checkpoints", float64(reg.Counter("cluster.checkpoints").Value()-baseCkpt))
		sw.set("durable.ops_per_s", rate(st.bare))

		// One explicit checkpoint of the populated tree, and its size on disk.
		sw.log.timed("ForceCheckpoint", func() {
			sw.set("durable.checkpoint_ms", timeMillis(func() { err = f.c.ForceCheckpoint() }))
		})
		if err != nil {
			f.close()
			return st, err
		}
		sw.set("durable.checkpoint_mb", newestSizeMB(dir, "checkpoint-*.ckpt"))

		recoveries := 1
		if own {
			recoveries = sw.sc.recoveries
		}
		bad, rrep, recoverS, err := f.crashAndRecover(sw.sc, dir, recoveries) // closes f
		if err != nil {
			return st, err
		}
		sw.o.Attempted += int(sw.sc.space)
		sw.o.Failed += bad
		sw.set("durable.recover_s", recoverS)
		sw.set("durable.replayed_records", float64(rrep.RecordsReplayed))
		sw.set("durable.buckets_scanned", float64(rrep.BucketsScanned))
		sw.set("durable.replay_records_s", float64(rrep.RecordsReplayed)/recoverS)
	} else {
		f.close()
	}
	if durable && !own {
		return st, nil // the plain step, or the workload's own, names the pipeline
	}
	ops := float64(rep.Ops - baseRep.Ops)
	sw.set("pipeline.waves", waves)
	sw.set("pipeline.ops_per_wave", ops/waves)
	sw.set("pipeline.serialized_share", float64(rep.SerializedNS-baseRep.SerializedNS)/wall)
	busy := float64(rep.AccessBusyNS + rep.AppendBusyNS - baseRep.AccessBusyNS - baseRep.AppendBusyNS)
	sw.set("pipeline.worker_busy_share", busy/(wall*parallelism))
	sw.set("pipeline.serialized_us_per_op", float64(rep.SerializedNS-baseRep.SerializedNS)/1e3/ops)
	for name, us := range phaseUS {
		if name != "checkpoint" {
			sw.set("pipeline.phase."+strings.ReplaceAll(name, ".", "_")+"_us_per_wave", us/waves)
		}
	}
	return st, nil
}

func newestSizeMB(dir, pattern string) float64 {
	matches, _ := filepath.Glob(filepath.Join(dir, pattern))
	sort.Strings(matches)
	if len(matches) == 0 {
		return 0
	}
	fi, err := os.Stat(matches[len(matches)-1])
	if err != nil {
		return 0
	}
	return float64(fi.Size()) / (1 << 20)
}

// servedStep covers the front end: a closed loop for goodput (bare, then with
// client spans), an open loop at the gated rate for latencies, and — when the
// workload is the served one — the rate ladder.
func (sw *sweep) servedStep() (step, error) {
	var st step
	own := sw.w.kind == kindServed
	perWorker := max(sw.opsFor(own)/closedInFlight, 1)
	openSec := float64(sw.opsFor(own)) / 2 / openLoopRate

	bare, err := newServed(sw.sc, nil)
	if err != nil {
		return st, err
	}
	bare.closedLoop(sw.seed, "warm", 0, max(sw.sc.sweepOps/4/closedInFlight, 1))
	st.bare = bare.closedLoop(sw.seed, "sweep", 0, perWorker)
	bare.close()
	if len(bare.why) > 0 {
		sw.o.note("failed requests of the untraced pass by cause: %v", bare.why)
	}

	s, err := newServed(sw.sc, nil)
	if err != nil {
		return st, err
	}
	defer s.close()
	s.closedLoop(sw.seed, "warm", 0, max(sw.sc.sweepOps/4/closedInFlight, 1))
	s.log = sw.log
	st.traced = s.closedLoop(sw.seed, "sweep", 0, perWorker)
	open := s.openLoop(sw.seed, "sweep", openLoopRate, openSec)
	s.log = nil
	sw.account(st.bare, st.traced)
	sw.o.Attempted += open.Attempted
	sw.o.Failed += open.Failed

	if len(s.why) > 0 {
		sw.o.note("failed requests by cause: %v", s.why)
	}

	reg := s.srv.Registry().Snapshot()
	sum := func(prefix string) float64 {
		var n uint64
		for name, v := range reg.Counters {
			if strings.HasPrefix(name, prefix) {
				n += v
			}
		}
		return float64(n)
	}
	slo := s.srv.SLO()
	sw.set("serve.closed_loop_ops_s", rate(st.bare))
	sw.set("serve.server_p50_us", float64(slo.LatencyP50US))
	sw.set("serve.server_p99_us", float64(slo.LatencyP99US))
	sw.set("serve.accepted", sum("serve.requests")-sum("serve.shed"))
	sw.set("serve.shed", sum("serve.shed"))
	sw.set("serve.deadline_missed", float64(slo.AcceptedDeadlineMissed))
	sw.set("serve.peak_depth", float64(slo.QueuePeak))
	sw.set("serve.tenant_uniform.p99_us", summarize(open.Latency[0], 99).P99)
	sw.set("serve.tenant_hot.p99_us", summarize(open.Latency[1], 99).P99)
	sw.set("loadgen.late_p99_us", summarize(open.Late, 99).P99)
	witnessOK := 0.0
	if slo.Witness.OK {
		witnessOK = 1
	} else {
		sw.o.Correct = false
		sw.o.note("witness verdict red: %+v", slo.Witness)
	}
	sw.set("serve.witness_ok", witnessOK)

	best := 0.0
	if own {
		// The ladder looks for the knee: the highest offered rate whose p99,
		// timed from due times, still meets the limit with nothing refused.
		for _, r := range []float64{2000, 4000, 6000, 8000} {
			res := s.openLoop(sw.seed, fmt.Sprintf("ladder/%.0f", r), r, sw.sc.ladderSec)
			sw.o.Attempted += res.Attempted
			if p99 := summarize(res.pooled(), 99).P99; res.Failed == 0 && p99 <= sloP99us {
				best = r
			}
		}
	}
	sw.set("serve.max_rate_in_slo", best)
	return st, nil
}

// simStep runs the simulator's grid one job at a time, so each job's host
// time is visible. The simulator's own workload runs the whole grid; the
// others run one trace's row of it.
func (sw *sweep) simStep() (step, error) {
	var st step
	o := simOptions(sw.sc)
	traces := o.Workloads
	if sw.w.kind != kindSim {
		traces = traces[:1]
	}
	var hostS []float64
	var cycles uint64
	records := 0
	t0 := time.Now()
	for _, tr := range traces {
		for _, p := range simProtocols {
			cfg := sdimm.DefaultConfig(p, 2)
			cfg.ORAM.Levels, cfg.WarmupAccesses, cfg.MeasureAccesses, cfg.Seed = o.Levels, o.Warmup, o.Measure, o.Seed
			id := sw.log.open("simulate "+p.String()+"/"+tr, laneProbe, 0)
			t := time.Now()
			res, err := sdimm.Simulate(cfg, tr)
			hostS = append(hostS, time.Since(t).Seconds())
			sw.log.close(id)
			if err != nil {
				return st, err
			}
			cycles += res.TotalCycles
			records += int(res.Records)
		}
	}
	st.bare = phase{Ops: records, Seconds: time.Since(t0).Seconds()}
	st.traced = st.bare // nothing is attached to the simulator
	sw.o.Attempted += records
	sw.set("sim.simulated_cycles_total", float64(cycles))
	sw.set("sim.host_ns_per_sim_cycle", st.bare.Seconds*1e9/float64(cycles))
	sw.set("sim.job_host_s_p50", median(hostS))
	return st, nil
}

// probes replays the workload's stream through each layer built standalone.
func (sw *sweep) probes() error {
	sc := sw.sc
	memberLevels := sc.levels - 2 // log2(members)
	var ops []op
	if sw.w.kind == kindServed {
		half := sc.space / connections
		u := newOpGen(sw.seed, "probe/uniform", 0, half, 0)
		h := newOpGen(sw.seed, "probe/hot", half, half, zipfHot)
		for len(ops) < sc.probeOps {
			ops = append(ops, u.next(), h.next())
		}
	} else {
		g := newOpGen(sw.seed, "ops", 0, sc.space, 0)
		for len(ops) < sc.probeOps {
			ops = append(ops, g.next())
		}
	}
	var err error
	fail := func(e error) {
		if err == nil && e != nil {
			err = e
		}
	}
	var openUS, sealUS, xorNS, tagNS, pathUS, ringUS, bufUS, linkUS float64
	var stash int
	sw.log.timed("probe store", func() { var e error; openUS, sealUS, e = storeProbe(memberLevels, ops); fail(e) })
	sw.log.timed("probe crypto", func() { var e error; xorNS, tagNS, e = cryptoProbe(len(ops) * memberLevels); fail(e) })
	sw.log.timed("probe engine path", func() { var e error; pathUS, stash, e = engineProbe(memberLevels, 0, sc.space, ops); fail(e) })
	sw.log.timed("probe engine ring", func() { var e error; ringUS, _, e = engineProbe(memberLevels, ringEvery, sc.space, ops); fail(e) })
	sw.log.timed("probe buffer", func() { var e error; bufUS, e = bufferProbe(memberLevels, sc.space, ops); fail(e) })
	sw.log.timed("probe seal/open", func() { var e error; linkUS, e = sealProbe(len(ops) * 10); fail(e) })
	dir, e := workDir(sw.root, "journal")
	fail(e)
	if e == nil {
		defer os.RemoveAll(dir)
		sw.log.timed("probe journal", func() {
			one, group, bytes, e := journalProbe(dir, ops)
			fail(e)
			sw.set("durable.append_us_per_record", one)
			sw.set("durable.append_group8_us", group)
			sw.set("durable.journal_bytes_per_op", bytes)
		})
	}
	sw.log.timed("probe wire", func() {
		wire, rtt, e := wireProbe(len(ops))
		fail(e)
		sw.set("serve.wire_roundtrip_us", wire)
		sw.set("serve.loopback_rtt_us", rtt)
	})
	sw.log.timed("probe admission", func() {
		ns, e := admissionProbe(len(ops) * 10)
		fail(e)
		sw.set("serve.admission_ns", ns)
	})
	if err != nil {
		return err
	}
	perBucket := (openUS + sealUS) / 2
	sw.set("store.open_us_per_bucket", openUS)
	sw.set("store.seal_us_per_bucket", sealUS)
	sw.set("ctrmode.xor_ns_per_bucket", xorNS)
	sw.set("integrity.tag_ns_per_bucket", tagNS)
	sw.set("store.self_us_per_bucket", perBucket-(xorNS+tagNS)/1e3)
	sw.set("oram.access_us", pathUS)
	sw.set("oram.ring_access_us", ringUS)
	sw.set("oram.self_us", pathUS-float64(memberLevels)*(openUS+sealUS))
	sw.set("oram.stash_peak", float64(stash))
	sw.set("sdimm.handle_access_us", bufUS)
	sw.set("sdimm.self_us", bufUS-pathUS)
	sw.set("seccomm.seal_open_us", linkUS)
	return nil
}

// runTraced is the separate run that yields the per-layer numbers.
func runTraced(root string, w workload, sc scale, seed uint64) (*outcome, error) {
	sw := &sweep{root: root, w: w, sc: sc, seed: seed, log: &spanLog{}, o: newOutcome()}
	calibBefore := hostCalib()

	seq, err := sw.seqStep()
	if err != nil {
		return nil, fmt.Errorf("seq step: %w", err)
	}
	pipe, err := sw.pipeStep(false)
	if err != nil {
		return nil, fmt.Errorf("pipe step: %w", err)
	}
	dur, err := sw.pipeStep(true)
	if err != nil {
		return nil, fmt.Errorf("durable step: %w", err)
	}
	srv, err := sw.servedStep()
	if err != nil {
		return nil, fmt.Errorf("served step: %w", err)
	}
	sim, err := sw.simStep()
	if err != nil {
		return nil, fmt.Errorf("sim step: %w", err)
	}
	if err := sw.probes(); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}

	v := sw.o.Values
	own := map[kind]step{kindSeq: seq, kindPipe: pipe, kindServed: srv, kindSim: sim}[w.kind]
	if w.durable {
		own = dur
	}
	sw.set("pipeline.speedup_vs_seq", rate(pipe.bare)/rate(seq.bare))
	sw.set("serve.goodput_ratio_vs_pipeline", rate(srv.bare)/rate(pipe.bare))
	sw.set("serve.overhead_us_per_op", 1e6/rate(srv.bare)-1e6/rate(pipe.bare))
	// The host's side of an access is what the tap sees outside the device
	// intervals; its own share is that minus the host's half of the sealing.
	sw.set("cluster.self_us", v["link.host_us_per_op"]-v["seccomm.seals_per_op"]/2*v["seccomm.seal_open_us"])
	sw.set("trace.overhead_share", 1-rate(own.traced)/rate(own.bare))

	// The budget sets the layers' own times beside what one operation of
	// this workload takes end to end. Layers above the cluster count only
	// where the workload has them.
	memberLevels := float64(sc.levels - 2)
	sumSelf := v["cluster.self_us"] + v["seccomm.seals_per_op"]*v["seccomm.seal_open_us"] +
		v["sdimm.self_us"] + v["oram.self_us"] + memberLevels*(v["store.open_us_per_bucket"]+v["store.seal_us_per_bucket"])
	if w.kind == kindPipe || w.kind == kindServed {
		sumSelf += v["pipeline.serialized_us_per_op"]
	}
	if w.kind == kindServed {
		sumSelf += v["serve.overhead_us_per_op"]
	}
	service := 1e6 / rate(own.bare)
	sw.set("budget.sum_self_us", sumSelf)
	sw.set("budget.service_us", service)
	sw.set("budget.unattributed_share", 1-sumSelf/service)

	calibAfter := hostCalib()
	sw.set("host.calib_ms", (calibBefore+calibAfter)/2)
	sw.set("host.calib_drift_share", calibAfter/calibBefore-1)

	tracePath := filepath.Join(root, "benchmark", "out", "trace-"+w.name+".json")
	if err := sw.log.writeChrome(tracePath); err != nil {
		return nil, err
	}
	sw.o.note("%d spans written to %s (%d dropped)", len(sw.log.spans), tracePath, sw.log.dropped)
	if sw.o.Failed > 0 {
		sw.o.Correct = false
	}
	return sw.o, nil
}
