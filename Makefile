# Developer entry points. `make ci` is the gate a change must pass.

GO ?= go

.PHONY: all fmt build vet test race short chaos fuzz telemetry-smoke serve-smoke bench-smoke blame alloc-gates profile profile-sim soak soak-short ci

all: ci

# Formatting is a gate: any file gofmt would rewrite fails the build.
fmt:
	@test -z "$$(gofmt -l .)" || { echo "gofmt would rewrite:"; gofmt -l .; exit 1; }

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Quick loop: skips the long chaos campaigns (they run reduced iterations).
short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# The chaos gate, one harness and one target. The scenario table (the link-
# fault acceptance legs pinned to goldens, crash-recovery and elastic-
# membership equivalence with seeded restart points — journal tears, sealed-
# bucket corruption whose AES-GCM tag the recovery scrub has to fail — on
# both flavours and both engine homes, and the payload-loss rows: a 2-attempt budget at a 10% fault
# mix, seeds 1-8, that may surface errors but never a wrong payload) and a
# seeded sample of the cross-product the table cannot enumerate run under the
# race detector. Then one CLI smoke per plan kind pins the exit-code contract
# on a binary built once (`go run` reports every nonzero exit as 1): 0 on a
# green run (the crash + corrupt plan on both flavours, so the Split scrub
# and XOR rebuild get the same smoke the Independent quarantine has; the
# Split fail-stop row runs the default 1.7% fault mix on every member's
# link, the parity member's included, with the witness attached; the Split
# eviction row overfills a 4-level tree at -parallel 4, so the members evict
# inside most accesses while the witness and the per-batch exchange count
# watch every link), 1 on a combination the scenario rejects, and 2
# (DEGRADED: only the retry budget ran out) for the payload-loss mix at both
# parallelisms, on both flavours: a Split member whose exchange is abandoned
# leaves lockstep, and once a second one goes the run stops at that access,
# with errors, never a wrong payload. The attacker test checks a drain is
# indistinguishable on the wire.
CHAOS_BIN = .chaos_build/sdimm-chaos

chaos:
	$(GO) test -race -count=1 ./internal/chaos
	$(GO) build -o $(CHAOS_BIN) ./cmd/sdimm-chaos
	$(CHAOS_BIN) -n 2000 -snapshot=false
	$(CHAOS_BIN) -split -failshard 1 -n 2000 -snapshot=false
	$(CHAOS_BIN) -crash -corrupt -n 800 -crashes 3 -snapshot=false
	$(CHAOS_BIN) -split -crash -corrupt -n 800 -crashes 3 -snapshot=false
	$(CHAOS_BIN) -split -levels 4 -addrs 230 -n 700 -parallel 4 -rate 0 -snapshot=false
	$(CHAOS_BIN) -resize -ringflush 4 -parallel 4 -n 600 -crashes 3 -snapshot=false
	! $(CHAOS_BIN) -split -ringflush 4
	! $(CHAOS_BIN) -resize -n 200 -crashes 5000
	$(CHAOS_BIN) -n 1200 -attempts 2 -rate 0.1 -parallel 1 -snapshot=false; test $$? -eq 2
	$(CHAOS_BIN) -n 1200 -attempts 2 -rate 0.1 -parallel 4 -snapshot=false; test $$? -eq 2
	$(CHAOS_BIN) -split -n 1200 -attempts 2 -rate 0.1 -parallel 1 -snapshot=false; test $$? -eq 2
	$(CHAOS_BIN) -split -n 1200 -attempts 2 -rate 0.1 -parallel 4 -snapshot=false; test $$? -eq 2
	$(GO) test -race -count=1 -run 'TestDrainTrafficIndistinguishable' ./internal/attacker

# End-to-end telemetry smoke. The timing simulator: a short Independent run
# and a short Split run with span tracing on simulated cycles. The functional
# stack: a short sdimm-chaos run, sequential and with the pipeline, dumping
# its flight recorder (wave phases on one clock, link and health events).
# Both CLIs re-validate the written file against the trace schema and exit
# nonzero if it is malformed; the grep asserts the validation line appeared
# and counted at least one event (an empty file is a valid trace), and for
# sdimm-chaos that the dump holds a cluster.wave span.
telemetry-smoke:
	@out=$$(mktemp -t sdimm-trace-XXXXXX.json) && \
	for p in independent split; do \
		$(GO) run ./cmd/sdimm-sim -protocol $$p -levels 20 -warmup 100 -measure 300 -trace $$out | grep -E '^trace .*\([1-9][0-9]* events, validated\)' || exit 1; \
	done && \
	for par in 1 4; do \
		$(GO) run ./cmd/sdimm-chaos -n 300 -parallel $$par -trace $$out -snapshot=false | grep -E '^trace .*\([1-9][0-9]* events, validated\)' || exit 1; \
		grep -q '"name":"cluster.wave"' $$out || { echo "no cluster.wave span in the sdimm-chaos trace"; exit 1; }; \
	done && \
	rm -f $$out

# The gating benchmark (benchmark/, see BENCHMARK.json) is a Go module of
# its own, so `go build ./...` and `go test ./...` at the root cannot see a
# root API change break it. This vets it and runs its unit tests plus its
# short smoke run against the working tree. It is the only measuring
# apparatus: sdimm-bench must refuse the names of the harnesses that once
# stood beside it (exit 1, "unknown experiment"), as serve-smoke pins
# sdimm-serve -bench, so a half-removed experiment or flag cannot linger.
# One tiny run of every paper table with telemetry on fails on a broken
# table or a telemetry merge of mismatched runs. One round of
# BenchmarkSimRound (the timed unit of sim-paper, which profile-sim
# profiles) keeps that benchmark building and running.
bench-smoke:
	cd benchmark && $(GO) vet . && $(GO) test .
	$(GO) run ./cmd/sdimm-bench -workloads milc -warmup 20 -measure 40 -levels 16 -csv -snapshot >/dev/null
	$(GO) test -run NONE -bench BenchmarkSimRound -benchtime 1x ./internal/experiments >/dev/null
	! $(GO) run ./cmd/sdimm-bench -exp parbench
	! $(GO) run ./cmd/sdimm-bench -exp recbench
	! $(GO) run ./cmd/sdimm-bench -exp hotpath
	! $(GO) run ./cmd/sdimm-bench -exp rebalance
	! $(GO) run ./cmd/sdimm-bench -exp ringbench

# Critical-path blame profile of the batched pipeline, printed to stdout:
# per-wave phase breakdown plus the serialization ledger (coordinator phases
# ranked by all-workers-idle wall-clock) at 1 and 4 workers. A hand-run
# diagnostic, not part of ci — the profiler's gates are in observe_test.go.
# See README, "Diagnosing a slow pipeline".
blame:
	$(GO) run ./cmd/sdimm-bench -exp blame

# Allocation-regression gates for the steady-state access loop: the
# ctrmode keystream (the benchmark's crypto probe), the link's seal/open
# (one AES-GCM call each) and a whole fault.Transactor exchange over the
# fault-free link, a MemStore bucket open and reseal (one AES-GCM call
# each), Engine.Access, and the journal commit must stay at 0 allocs/op; a sequential cluster access within 0.6 objects,
# counted exactly, and a warm 64-op Pipeline.Do within 40, inline and with
# workers (TestPipelineDoAllocBudget: a hand-off allocates nothing); and the
# flight recorder plus blame collector, stamping every wave's record, must add
# none to a pipelined or a sequential access. One served round trip, client
# and server in one process as the benchmark runs them, stays at 0 objects
# for a write and 2 for a read (TestServeRoundTripAllocBudget).
# The timing simulator has its own three: a warm event engine schedules,
# re-arms a Timer and fires at 0 allocs/op (the heap holds values, timers
# live outside it), a warm DRAM channel serves requests at 0, and a whole
# sim.Run stays within its per-record budget for every protocol.
# These run without -race on purpose — race instrumentation allocates, so the
# gate tests skip themselves under it (see internal/raceflag).
alloc-gates:
	$(GO) test -run 'ZeroAlloc|AllocBudget|AddNoAllocs|HotPathAllocs' -count=1 . ./internal/ctrmode ./internal/seccomm ./internal/fault ./internal/oram ./internal/durable ./internal/event ./internal/dram ./internal/sim ./internal/serve ./internal/telemetry

# CPU and heap profiles of the access hot path, for digging into a
# regression the alloc gates or the benchmark surfaced: the sequential
# cluster access at the gating benchmark's shape (4 SDIMMs, Levels 16, 4096
# addresses), whose trees do not fit in a cache. Inspect with
# `go tool pprof hotpath.cpu.pprof` (then `top`, `list <func>`, `web`).
profile:
	$(GO) test -run NONE -bench 'BenchmarkAccessHotPath/cluster-access-l16$$' -benchmem \
		-cpuprofile hotpath.cpu.pprof -memprofile hotpath.heap.pprof .
	@echo "profiles: hotpath.cpu.pprof hotpath.heap.pprof (go tool pprof <file>)"

# The same for the timing simulator: one sim-paper round (mcf, six protocols,
# two channels, golden scale, two workers) under pprof.
profile-sim:
	$(GO) test -run NONE -bench BenchmarkSimRound -benchmem \
		-cpuprofile sim.cpu.pprof -memprofile sim.heap.pprof ./internal/experiments
	@echo "profiles: sim.cpu.pprof sim.heap.pprof (go tool pprof <file>)"

# Wire-format decoders must never panic on hostile input. FuzzOpen feeds
# arbitrary bytes to the link's Open, ahead of those decoders: a rejected
# frame moves no counter and the next genuine frame still opens. The durable-state
# decoders must additionally fail closed: FuzzJournalDecode accepts only a
# contiguous record prefix of whole groups, each opened under its chained
# AES-GCM tag, and FuzzCheckpointDecode only a file that opens to a body
# that re-walks to itself. Below the seals, where those mutations stop,
# FuzzCheckpointBody runs the one checkpoint field walk on arbitrary bodies,
# ring-eviction sections included (their decoder is the same walk, so there
# is no separate ring-state fuzzer), and FuzzJournalGroup the record-group
# walk on arbitrary opened groups (count guard, kind and sequence checks,
# payload views): an accepted body or group re-encodes to itself. The stash's fuzz
# leg checks the sorted slice against a plain map. FuzzWritePath compares the
# engine's greedy writeback, bucket for bucket, with the sorted-copy selection
# it replaced. FuzzEngineModes runs one tape of reads, writes, keep and
# migrate accesses and stash re-inserts through a path engine and a ring
# engine against a plain map: read-your-writes, one live copy per address,
# stash within capacity. MemStore.RestoreRaw takes sealed buckets off disk
# verbatim: a wrong length (the pre-GCM one included) is an error, and
# nothing a seal under the store's key did not produce may open. FuzzServeConn drives a tenant connection with
# arbitrary client bytes: no panic, the handler returns when the client
# closes, admission depth returns to 0 and Shutdown completes. Each of its
# inputs builds a cluster, so minimizing an input is capped by count, not
# the default minute. FuzzClientConn is its mirror: arbitrary server bytes
# after a valid HelloAck at any credit, with concurrent callers: no panic,
# every Do returns once the server closes, and no goroutine is left behind.
# FuzzHistogram adds arbitrary uint64 samples to the one histogram layout:
# every value lands in the array, quantiles sit within 1/32 above the exact
# order statistic, and two merged halves equal the whole.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzUnmarshalAccess -fuzztime=20s ./internal/sdimm
	$(GO) test -run=NONE -fuzz=FuzzUnmarshalResponse -fuzztime=20s ./internal/sdimm
	$(GO) test -run=NONE -fuzz=FuzzOpen -fuzztime=20s ./internal/seccomm
	$(GO) test -run=NONE -fuzz=FuzzJournalDecode -fuzztime=20s ./internal/durable
	$(GO) test -run=NONE -fuzz=FuzzCheckpointDecode -fuzztime=20s ./internal/durable
	$(GO) test -run=NONE -fuzz=FuzzCheckpointBody -fuzztime=20s ./internal/durable
	$(GO) test -run=NONE -fuzz=FuzzJournalGroup -fuzztime=20s ./internal/durable
	$(GO) test -run=NONE -fuzz=FuzzStash -fuzztime=20s ./internal/oram
	$(GO) test -run=NONE -fuzz=FuzzWritePath -fuzztime=20s ./internal/oram
	$(GO) test -run=NONE -fuzz=FuzzEngineModes -fuzztime=20s ./internal/oram
	$(GO) test -run=NONE -fuzz=FuzzMemStoreRestoreRaw -fuzztime=20s ./internal/oram
	$(GO) test -run=NONE -fuzz=FuzzWireDecode -fuzztime=20s ./internal/serve
	$(GO) test -run=NONE -fuzz=FuzzServeConn -fuzztime=20s -fuzzminimizetime=200x ./internal/serve
	$(GO) test -run=NONE -fuzz=FuzzClientConn -fuzztime=20s ./internal/serve
	$(GO) test -run=NONE -fuzz=FuzzHistogram -fuzztime=20s ./internal/telemetry

# Serving front-end smoke: the in-process sdimm-serve run (two tenants,
# closed-loop load, graceful drain, witness + zero-accepted-deadline-miss
# gates) followed by the secure-kv example, which exercises the same wire
# protocol as a thin KV client. The removed -bench mode must be rejected by
# flag parsing (usage text discarded).
serve-smoke:
	$(GO) run ./cmd/sdimm-serve -smoke
	$(GO) run ./examples/secure-kv >/dev/null
	! $(GO) run ./cmd/sdimm-serve -smoke -bench 2>/dev/null

# Pipeline soak, full tier: the randomized stress wall around the overlapped
# engine (16 scenarios × 1000 mixed read/write/migrate ops, windows 1..12,
# transient faults and fail-stops, parallelism 1 vs 2/4/8 bitwise) under the
# race detector. `make race` already runs the default tier; this is the
# pre-merge deep soak.
soak:
	$(GO) test -race -count=1 -run 'TestPipelineSoak' -soak.long -timeout 30m .

# Fast pipeline gates, run explicitly in ci on top of the full race suite:
# the short-tier soak, the blame regression (top serialization phase must
# hold <25% of wall-clock at 4 workers on a multicore host) and, uncached,
# the driver-identity suites (*MatchesSequential: a Window-1 Do, Serve, the
# soak and a migration against the same ops issued one at a time). The witness
# package runs twenty times over: its tests race goroutines against the
# monitor, and an assertion that depends on the schedule must not be able to
# hide behind one lucky run or the test cache.
soak-short:
	$(GO) test -race -count=1 -short -run 'TestPipelineSoak|TestPipelineBlameRegression|MatchesSequential' .
	$(GO) test -race -count=20 ./internal/witness

ci: fmt build vet race soak-short alloc-gates telemetry-smoke serve-smoke bench-smoke chaos
