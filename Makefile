# hetsim build / CI entry points. Everything is plain `go` underneath;
# the targets only bundle the invocations CI runs.

GO ?= go

# Pre-PR 2 simulator throughput (Msimcycles/s) on the 4-core matmul;
# recorded as the baseline in BENCH_PR2.json so every bench run reports
# its speedup against the same reference point.
BENCH_BASELINE ?= 6.922

# Pre-PR 7 simulator throughput (best of 3) on the same workload,
# re-measured at the pre-PR commit because the runner drifted from the
# 13.70 recorded at PR 5 (the same HEAD now measures 11.86, with ±20%
# swings between runs minutes apart). OBS_FLOOR is the absolute
# backstop under it; obs-bench still applies the strict 1% zero-cost
# gate, block-bench uses a noise-tolerant 15% bound instead.
OBS_BASELINE ?= 11.86
OBS_FLOOR ?= 9.5

# Fused execution floor (Msimcycles/s) on the pulp-4t/pulp-1t/m4-host
# kernel mix (SimulatorThroughputBlocks/super): the block-compilation
# acceptance bar. 40 is also >= 2.5x the stepped-era baseline
# (OBS_BASELINE 13.70 -> 34.25).
BLOCK_FLOOR ?= 40

# Fused-over-stepped gates on the branch/loop-dominated family, measured
# best-of-3 in one process so both sides of every ratio see the same
# machine state. Each floor is the former super-over-block floor (1.5
# pulp-1c, 1.15 pulp-4c, 0.85 m4) times the block-over-stepped ratio
# measured at the last commit that still had the block-only tier (median
# of three best-of-3 runs: 1.758, 0.975, 3.003), rounded up — so no
# floor is looser than the bound it replaced. pulp-1c is the
# branch-heavy acceptance subset (full-program trace chasing; measured
# 2.64–3.16x). pulp-4c is bounded by design: mem-led runs cannot chain
# because TCDM bank arbitration needs exact-cycle interleaving, so
# chaining only widens the ALU spans between memory ops (measured
# 1.00–1.22x across runs on a 2-core runner that swings ±20%). m4 has
# no I$ and one core, so every run is a solo trace chase (measured
# 2.74–3.83x).
SUPER_1C_MIN ?= 2.64
SUPER_4C_MIN ?= 1.13
SUPER_M4_MIN ?= 2.56

.PHONY: ci vet build test race race-sweep differential block-differential fault-drill chaos-drill serve-drill crash-drill bench bench-smoke sweep-bench obs-bench block-bench superblock-bench

ci: vet build race race-sweep differential block-differential fault-drill chaos-drill serve-drill crash-drill bench-smoke block-bench superblock-bench

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

# Full benchmark pass: regenerates every paper artifact as a benchmark and
# records the custom metrics (simulator throughput, headline numbers) in
# BENCH_PR2.json via cmd/benchreport. Format documented in EXPERIMENTS.md.
bench:
	$(GO) test -bench=. -benchmem | $(GO) run ./cmd/benchreport -o BENCH_PR2.json -before $(BENCH_BASELINE)

# One-iteration throughput smoke: catches gross simulator-speed regressions
# in CI without the cost (or the noise sensitivity) of a full bench run.
bench-smoke:
	$(GO) test -run xxx -bench=SimulatorThroughput -benchtime=1x .

# Observability cost gate: runs the plain and observed throughput
# benchmarks best-of-3 and writes BENCH_PR5.json. Fails if the obs-OFF
# simulator lost more than 1% vs the pre-PR baseline (zero-cost claim) or
# fell under the absolute floor; the report also records the obs-ON
# overhead under "obs_overhead". Bit-identical cycle counts either way
# are enforced separately by the differential tests in internal/cluster,
# internal/core and internal/paper.
obs-bench:
	$(GO) test -run xxx -bench 'SimulatorThroughput$$|SimulatorThroughputObs$$' -benchtime=2s -count=3 . \
		| $(GO) run ./cmd/benchreport -o BENCH_PR5.json -before $(OBS_BASELINE) -max-loss 0.01 -min $(OBS_FLOOR)

# Fused execution gate: runs the plain, observed and fused-vs-stepped
# mix benchmarks best-of-3 and writes BENCH_PR7.json. The plain
# throughput must stay within 15% of the pre-PR baseline (noise-tolerant
# variant of the obs-bench gate — the runner swings ±20% between runs)
# and above the absolute floor, and the fused mix throughput must not
# drop under BLOCK_FLOOR Msimcycles/s — the block-compilation headline
# number. The report records stepped/super/ratio under
# "fused_throughput".
# Bit-identical execution is enforced separately by block-differential.
block-bench:
	$(GO) test -run xxx -bench 'SimulatorThroughput$$|SimulatorThroughputObs$$|SimulatorThroughputBlocks' -benchtime=2s -count=3 . \
		| $(GO) run ./cmd/benchreport -o BENCH_PR7.json -before $(OBS_BASELINE) -max-loss 0.15 -min $(OBS_FLOOR) -min-block $(BLOCK_FLOOR)

# Superblock chaining gate: runs the per-shape branch/loop-dominated
# benches (stepped/super x pulp-4c/pulp-1c/m4) plus the straight-line
# mix in one process, best-of-3 with -benchmem, and writes
# BENCH_PR8.json. The -min-ratio gates enforce the fused-over-stepped
# bars (rationale at the SUPER_* definitions above; the mix is gated by
# BLOCK_FLOOR in block-bench); -max-allocs 0 enforces the
# allocation-free steady state on every branchy variant (clusters
# built and programs compiled outside the timed loop — the mix bench
# builds a cluster per RunJob, so it is not part of the audit).
# Bit-identical execution incl. the 9-class attribution is enforced
# separately by block-differential.
superblock-bench:
	$(GO) test -run xxx -bench 'SimulatorThroughputBlocks|SimulatorThroughputBranchy' -benchtime=1s -count=3 -benchmem . \
		| $(GO) run ./cmd/benchreport -o BENCH_PR8.json \
		-min-ratio 'SimulatorThroughputBranchy/super/pulp-1c:SimulatorThroughputBranchy/stepped/pulp-1c=$(SUPER_1C_MIN)' \
		-min-ratio 'SimulatorThroughputBranchy/super/pulp-4c:SimulatorThroughputBranchy/stepped/pulp-4c=$(SUPER_4C_MIN)' \
		-min-ratio 'SimulatorThroughputBranchy/super/m4:SimulatorThroughputBranchy/stepped/m4=$(SUPER_M4_MIN)' \
		-max-allocs 'SimulatorThroughputBranchy/*=0'

# Sweep wall-clock record: times the reduced evaluation cold at -j1, cold
# at -j4 and on a warm run cache, and writes BENCH_PR3.json. The -warm-max
# gate enforces the PR3 acceptance bar: a warm rerun must cost under 5% of
# the cold serial one.
sweep-bench:
	$(GO) test -run xxx -bench=SweepWallclock -benchtime=1x . | $(GO) run ./cmd/benchreport -o BENCH_PR3.json -warm-max 0.05
