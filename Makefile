# hetsim build / CI entry points. Everything is plain `go` underneath;
# the targets only bundle the invocations CI runs.

GO ?= go

.PHONY: ci vet build test race race-sweep differential block-differential fault-drill chaos-drill serve-drill crash-drill bench bench-smoke bench-unit gates

ci: vet build race race-sweep differential block-differential fault-drill chaos-drill serve-drill crash-drill bench-smoke bench-unit gates

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
# recovers in CI, and no outcome escapes classification.
chaos-drill:
	$(GO) run ./cmd/hetexp -chaos -small -no-cache -chaos-trials 6 \
		-chaos-rates 2e-3 -chaos-seed 1 -chaos-drill 1 >/dev/null
	@echo "chaos drill passed"

# Seeded soak of the simulation service (DESIGN.md §11, §15): campaigns
# and single points (one-spec batches) race over overlapping keys under
# injected slow jobs, cache-write failures and mid-request cancellations
# — the cancellations cut streams, forcing the client's
# reconnect-and-resume path — while a stats reader polls concurrently,
# then the server drains. Asserts exactly-once execution per key across
# campaigns, points, cuts and resumes, persisted cache writes, no stuck
# waiters and a clean drain; plus the deterministic drain-cursor-resume,
# client-reconnect and dedup legs, byte-identical remote-vs-local tables
# and the late-result-after-timeout discard — all under the race
# detector, bounded in wall clock. Also fuzzes the request decoder
# briefly.
serve-drill:
	$(GO) test -race -count=1 -timeout 120s \
		-run 'TestServeSoak|TestBatchSoak|TestBatchDrainCursor|TestBatchClientReconnect|TestBatchDedupOneSpecOntoBatch|TestRemoteEquivalence|TestLateResultAfterTimeoutIsDiscarded' \
		./internal/serve ./internal/sweep
	$(GO) test -run FuzzParseBatchRequest -fuzz FuzzParseBatchRequest -fuzztime 5s ./internal/paper
	@echo "serve drill passed"

# Kill-9 crash drill (DESIGN.md §14): builds the real hetexp binary,
# SIGKILLs it at CRASH_POINTS seeded points mid-sweep, resumes each
# campaign from its journal, and asserts byte-identical output, exact
# only-the-missing-jobs resume accounting, and a scrub that quarantines
# every leftover without finding corruption — under the race detector.
# Also fuzzes the journal's torn-tail recovery parser briefly.
CRASH_POINTS ?= 24
CRASH_SEED ?= 1
crash-drill:
	HETSIM_CRASH_POINTS=$(CRASH_POINTS) HETSIM_CRASH_SEED=$(CRASH_SEED) \
		$(GO) test -race -count=1 -timeout 600s -run TestCrashDrill ./internal/chaos
	$(GO) test -run FuzzJournalParse -fuzz FuzzJournalParse -fuzztime 5s ./internal/sweep
	@echo "crash drill passed ($(CRASH_POINTS) kill points)"

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
# branch/loop-dominated family that stresses superblock chaining, the
# hot-edge lifecycle, and the seeded-SEU stepped-fallback leg. Every
# observable must stay bit-identical.
block-differential:
	$(GO) test -race -count=1 \
		-run 'TestDifferentialCycleAccuracy|TestRandomizedBlockDifferential|TestRandomizedBranchyDifferential|TestHotEdgeLifecycle|TestBlockFaultDifferential' \
		./internal/cluster

# End-to-end campaign benchmark (bench/README.md): every workload that
# BENCHMARK.json declares, built from this tree, timed and checked against
# the golden output digests.
bench:
	for w in campaign-cold campaign-warm service-warm service-cold; do \
		bash bench/run.sh --workload $$w --seed 1 --seconds 30 --trace 0 || exit 1; \
	done

# One-iteration throughput smoke: catches gross simulator-speed regressions
# in CI without the cost (or the noise sensitivity) of a full bench run.
bench-smoke:
	$(GO) test -run xxx -bench=SimulatorThroughput -benchtime=1x .

# The campaign benchmark is a module of its own (bench/go.mod), so the
# module-wide legs never build it; it imports paper, cluster, kernels and
# serve, so vet and unit-test it here against this tree.
bench-unit:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The perf-gate table (gates_test.go): every throughput, ratio,
# allocation and warm-cache bound with its rationale, best of 3 in one
# process. Logs one line per row and fails on any breach.
gates:
	$(GO) test -tags gates -count=1 -v -run TestGates .
