# hetsim build / CI entry points. Everything is plain `go` underneath;
# the targets only bundle the invocations CI runs.

GO ?= go

.PHONY: ci vet build test race race-sweep differential block-differential fuzz-tiers fault-drill chaos-drill serve-drill crash-drill bench bench-smoke bench-unit

ci: vet build race race-sweep differential block-differential fuzz-tiers fault-drill chaos-drill serve-drill crash-drill bench-smoke bench-unit

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Race-detect the parallel sweep path specifically, including the
# non-short equivalence tests (1-vs-8 workers, warm cache) that the
# module-wide `race` leg also runs but that must never rot out of CI.
race-sweep:
	$(GO) test -race ./internal/sweep ./internal/paper

# Seeded fault-injection drills: every run injects deterministic faults
# (the seeds below), recovers through CRC retransmission, watchdog
# retries or host fallback, and must still verify against the bit-exact
# golden model (cmd/hetsim exits non-zero otherwise). These complement
# the fixed-seed unit tests in internal/fault, internal/spilink,
# internal/core and internal/omp, which `race` already runs.
fault-drill:
	$(GO) run ./cmd/hetsim -kernel matmul -faults seed=7,rate=0.5,max=4 -crc -watchdog 2000000 -retries 3 >/dev/null
	$(GO) run ./cmd/hetsim -kernel matmul -faults seed=7,hang=1,max=2 -watchdog 2000000 -retries 3 >/dev/null
	$(GO) run ./cmd/hetsim -kernel matmul -faults seed=7,hang=1 -watchdog 2000000 -retries 1 -fallback >/dev/null
	$(GO) run ./cmd/hetsim -kernel "svm (RBF)" -faults seed=13,rate=0.2,max=6 -crc -watchdog 2000000 -retries 2 -fallback >/dev/null
	@echo "fault drills passed"

# Seeded memory-fault chaos campaign (DESIGN.md §9): SEU bit-flips in
# TCDM and L2, I-cache parity errors and DMA transfer corruption on the
# reduced matmul. -chaos-drill 1 makes hetexp exit non-zero unless every
# fault class shows at least one detected-and-recovered trial and every
# trial carries a known verdict — so each detector provably fires and
# recovers in CI, and no outcome escapes classification. Two legs: seed 1
# at 6 trials per class, whose report is internal/chaos/testdata/drill.golden,
# and a fresh fault schedule per run at 64 trials per class, the same rate:
# CHAOS_SEED defaults to a random seed, printed with the command that
# replays it (make chaos-drill CHAOS_SEED=N). Six trials leave a class with
# no detected recovery on about half of all seeds (per-trial odds 0.22-0.28
# for tcdm-flip, l2-flip and dma-corrupt); at 64 a correct runtime fails
# the leg about once in 10^6 runs (DESIGN.md §9).
ifeq ($(origin CHAOS_SEED),undefined)
CHAOS_SEED := $(shell od -An -N4 -tu4 /dev/urandom | tr -d ' ')
endif
chaos-drill:
	$(GO) run ./cmd/hetexp -chaos -small -no-cache -chaos-trials 6 \
		-chaos-rates 2e-3 -chaos-seed 1 -chaos-drill 1 >/dev/null
	@echo "chaos drill: fresh seed $(CHAOS_SEED)"
	$(GO) run ./cmd/hetexp -chaos -small -no-cache -chaos-trials 64 \
		-chaos-rates 2e-3 -chaos-seed $(CHAOS_SEED) -chaos-drill 1 >/dev/null || \
		{ echo "chaos drill failed at seed $(CHAOS_SEED); replay with: make chaos-drill CHAOS_SEED=$(CHAOS_SEED)"; exit 1; }
	@echo "chaos drill passed (seed 1 and fresh seed $(CHAOS_SEED))"

# Seeded soak of the simulation service (DESIGN.md §11, §15): campaigns
# and single points (one-spec batches) race over overlapping keys under
# injected slow jobs, cache-write failures (sweep.WriteFaults on the run
# cache) and mid-request cancellations
# — the cancellations cut streams, forcing the client's
# reconnect-and-resume path — while a stats reader polls concurrently,
# then the server drains. Asserts exactly-once execution per key across
# campaigns, points, cuts and resumes, persisted cache writes, no stuck
# waiters and a clean drain; plus the deterministic drain-cursor-resume,
# client-reconnect and dedup legs, byte-identical remote-vs-local tables
# and the late-result-after-timeout discard; the one-count-per-job
# accounting of concurrent warm batches under an injected cancel; plus the
# sweep tests the batch stream and the injected write faults rest on
# (RunNotify, one engine shared by concurrent calls, and the cache's
# write-fault injector), and concurrent runs of one spec on the
# shared kernel registry — all under the race detector, bounded
# in wall clock. Also fuzzes briefly the request decoder, the stream's
# record encoder (byte-equal to json.Encoder) and the client's record
# decoder (equal to json.Unmarshal). Every run soaks a fresh fault schedule: SOAK_SEED defaults to
# a random seed, which the soaks log with the command that replays it
# (make serve-drill SOAK_SEED=N). Plain `go test` soaks seeds 11 and 7.
ifeq ($(origin SOAK_SEED),undefined)
SOAK_SEED := $(shell od -An -N4 -tu4 /dev/urandom | tr -d ' ')
endif
serve-drill:
	@echo "serve drill: soak seed $(SOAK_SEED)"
	HETSIM_SOAK_SEED=$(SOAK_SEED) $(GO) test -race -count=1 -timeout 120s \
		-run 'TestServeSoak|TestBatchSoak|TestBatchDrainCursor|TestBatchClientReconnect|TestBatchDedupOneSpecOntoBatch|TestBatchCountsEachJobOnce|TestWarmBatchReadsNoDisk|TestPrettyCacheEntryStreamsOneLine|TestRemoteEquivalence|TestBatchSharesLocalPlan|TestLateResultAfterTimeoutIsDiscarded|TestRunNotify|TestOneEngine|TestCacheWriteFail|TestSharedRegistryConcurrentRuns' \
		./internal/serve ./internal/sweep ./internal/paper
	$(GO) test -run FuzzParseBatchRequest -fuzz FuzzParseBatchRequest -fuzztime 5s ./internal/paper
	$(GO) test -run FuzzBatchRecordEncode -fuzz FuzzBatchRecordEncode -fuzztime 5s ./internal/paper
	$(GO) test -run FuzzDecodeRecord -fuzz FuzzDecodeRecord -fuzztime 5s ./internal/serve
	@echo "serve drill passed (soak seed $(SOAK_SEED))"

# Kill-9 crash drill (DESIGN.md §14): builds the real hetexp binary,
# SIGKILLs it at CRASH_POINTS seeded points mid-sweep, reruns each
# campaign on its cache (the one store a campaign resumes from), and
# asserts a scrub that quarantines every leftover without finding
# corruption, byte-identical output, exact resume accounting (cache hits
# equal the healthy entries, the rest re-simulated), and a clean second
# scrub — under the race detector. Every run drills fresh kill points:
# CRASH_SEED defaults to a random seed, which a failing TestCrashDrill
# logs with the command that replays it (make crash-drill CRASH_SEED=N).
# Plain `go test` drills seed 1. Also fuzzes the journal's torn-tail
# recovery parser briefly, while internal/sweep/journal.go still ships
# for the benchmark's append probe.
CRASH_POINTS ?= 24
ifeq ($(origin CRASH_SEED),undefined)
CRASH_SEED := $(shell od -An -N4 -tu4 /dev/urandom | tr -d ' ')
endif
crash-drill:
	HETSIM_CRASH_POINTS=$(CRASH_POINTS) HETSIM_CRASH_SEED=$(CRASH_SEED) \
		$(GO) test -race -count=1 -timeout 600s -run TestCrashDrill ./internal/chaos
	$(GO) test -run FuzzJournalParse -fuzz FuzzJournalParse -fuzztime 5s ./internal/sweep
	@echo "crash drill passed ($(CRASH_POINTS) kill points, seed $(CRASH_SEED))"

# Differential cycle-accuracy: the event-driven run loop must agree with
# the naive reference loop on cycles, outputs and stats for every kernel
# (also covered by `race`, but kept addressable for quick local runs).
# Compose differential: an offload composed from a measured compute must
# report exactly what a direct System.Offload does at every Fig. 5b,
# link-ablation and sensor-ablation point, and the campaign's pulp-4t
# measurements must be exactly a direct offload's compute step.
differential:
	$(GO) test -run TestDifferentialCycleAccuracy ./internal/cluster
	$(GO) test -run 'TestComposeMatchesOffload|TestComposeRejectsDeviceOptions|TestPULP4ArtifactMatchesOffload' ./internal/core ./internal/paper

# Block-mode differential under the race detector: the kernel matrix in
# all three execution modes (fused / stepped / reference), randomized
# programs over the fusable instruction space, the randomized
# branch/loop-dominated family, the seeded-SEU stepped-fallback leg, and
# the checked-in corpus of the tier fuzzer (1–8 cores, 1–16 banks,
# producer/consumer sharing). Every observable must stay bit-identical.
block-differential:
	$(GO) test -race -count=1 \
		-run 'TestDifferentialCycleAccuracy|TestRandomizedBlockDifferential|TestRandomizedBranchyDifferential|TestBlockFaultDifferential|FuzzTierDifferential' \
		./internal/cluster

# Native fuzzing of the execution tiers (FuzzTierDifferential): fresh
# programs, core counts, bank counts and sharing modes beyond the corpus.
# The budget comes from a 2-core runner's rate, about 700–1100 execs/s
# with two workers, so 60 s is 40k–65k programs: 2.5x the most a
# store→load mutant of the window commit took to surface (3–24 s over
# seven runs from an empty fuzz cache). A failing input lands in
# internal/cluster/testdata/fuzz and becomes a permanent case.
fuzz-tiers:
	$(GO) test -run FuzzTierDifferential -fuzz FuzzTierDifferential -fuzztime 60s -parallel 2 ./internal/cluster

# End-to-end campaign benchmark (bench/README.md): every workload that
# BENCHMARK.json declares, built from this tree, timed and checked against
# the golden output digests.
bench:
	for w in campaign-cold campaign-warm service-warm service-cold; do \
		bash bench/run.sh --workload $$w --seed 1 --seconds 30 --trace 0 || exit 1; \
	done

# One untimed iteration of every simulator-throughput benchmark: it checks
# that the benchmark bodies still build and run; it cannot catch a speed
# regression (bench_test.go names the counter tests that hold speed).
bench-smoke:
	$(GO) test -run xxx -bench=SimulatorThroughput -benchtime=1x .

# The campaign benchmark is a module of its own (bench/go.mod), so the
# module-wide legs never build it; it imports paper, cluster, kernels and
# serve, so vet and unit-test it here against this tree.
bench-unit:
	cd bench && $(GO) vet ./... && $(GO) test ./...

