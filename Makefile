# Convenience aliases; `make verify` is ROADMAP.md's tier-1 command.

CARGO ?= cargo

.PHONY: verify build test doc serve fuzz fuzz-faults fuzz-service bench bench-test bench-counts bench-check bench-report bench-parallel bench-cache bench-service fmt lint lint-sync model-check loc clean

verify:
	$(CARGO) build --release && $(CARGO) test -q

build:
	$(CARGO) build --workspace --all-targets

test:
	$(CARGO) test -q

# Docs are a build gate: broken intra-doc links and missing docs fail.
doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --no-deps

# The analysis daemon on stdin/stdout (line-delimited JSON frames; see
# the README's "Running the daemon" for the grammar). SERVE_ARGS adds
# workloads/transport flags, e.g.
#   make serve SERVE_ARGS="--profile jack --socket /tmp/dynsum.sock"
SERVE_ARGS ?=
serve:
	$(CARGO) run --release --bin dynsum_serve -- $(SERVE_ARGS)

# Differential fuzzing of the four engines (fixed seed, so CI is
# reproducible; override with FUZZ_SEED/FUZZ_CASES). Exits non-zero on
# any divergence, after writing reduced reproducers to target/fuzz/ —
# promote those into tests/divergence_corpus/ when fixing the bug.
FUZZ_SEED ?= 0xD1FF
FUZZ_CASES ?= 500
fuzz:
	$(CARGO) run --release --bin fuzz_engines -- \
		--cases $(FUZZ_CASES) --seed $(FUZZ_SEED) --max-seconds 600 \
		--artifact-dir target/fuzz --quiet

# The fault-injection regime alone: every case runs the Session batch
# path under a seeded FaultPlan (injected panics, cancel/deadline fuses,
# spawn failures, snapshot IO errors) and checks the integrity invariant
# — after any fault, the session answers byte-identically to a clean
# cold session. Fixed seed; same artifact protocol as `make fuzz`.
FUZZ_FAULT_CASES ?= 200
fuzz-faults:
	$(CARGO) run --release --bin fuzz_engines -- \
		--cases $(FUZZ_FAULT_CASES) --seed $(FUZZ_SEED) --regime fault_injection \
		--max-seconds 600 --artifact-dir target/fuzz --quiet

# The service regime alone: every case derives a random multi-client
# script (interleaved queries, batches, cancels, invalidations) and
# judges the daemon against a clean single-client session — every frame
# answered, every answer byte-identical, replays deterministic. Fixed
# seed; same artifact protocol as `make fuzz`.
FUZZ_SERVICE_CASES ?= 200
fuzz-service:
	$(CARGO) run --release --bin fuzz_engines -- \
		--cases $(FUZZ_SERVICE_CASES) --seed $(FUZZ_SEED) --regime service \
		--max-seconds 600 --artifact-dir target/fuzz --quiet

# The repository benchmark: BENCHMARK.json's command over its three
# workloads (paper-batch, daemon, edit-restart) at the recorded seed,
# untraced. Prints each metric with its unit and sample count and ends
# with one JSON result line; see dynbench/README.md.
bench:
	$(CARGO) run --quiet --release --offline --manifest-path dynbench/Cargo.toml -- \
		--workload all --seed 3397 --seconds 20 --trace 0

# The benchmark's own self-tests (its own workspace, so `make test`
# does not reach them).
bench-test:
	$(CARGO) test --release --manifest-path dynbench/Cargo.toml

# The benchmark's exact work counts as a gate: each workload runs for one
# second at seed 3397 and its `exact counts (per pass)` line must equal
# the one recorded in tools/bench_counts.txt (see the script's header).
bench-counts:
	CARGO=$(CARGO) ./tools/check_bench_counts.sh

bench-check:
	$(CARGO) bench --no-run

# Records the perf trajectory point: medium profile -> BENCH_report.json
# (includes the Session::run_batch scaling series at 1/2/4 threads).
bench-report:
	$(CARGO) run --release -p dynsum-bench --bin perf_report -- --profile medium

# The thread-scaling series alone, pushed to 8 workers ->
# BENCH_report_parallel.json (BENCH_report.json stays the recorded point).
bench-parallel:
	$(CARGO) run --release -p dynsum-bench --bin perf_report -- --profile medium --threads 8 --out BENCH_report_parallel.json

# The cache_pressure sweep on the small profile -> BENCH_report_cache.json.
# Exits non-zero if any swept cap point diverges from the sequential path
# (the same results_identical_vs_sequential gate CI enforces).
bench-cache:
	$(CARGO) run --release -p dynsum-bench --bin perf_report -- --profile small --threads 1 --out BENCH_report_cache.json

# The daemon under real concurrent clients: N OS threads over socketpair
# connections through one serve_pair event loop, closed-loop single
# queries -> BENCH_report_service.json (sustained q/s, p50/p99 round-trip
# latency). Exits non-zero if any wire answer diverges from a clean
# single-client session.
bench-service:
	$(CARGO) run --release -p dynsum-bench --bin bench_service -- --clients 4 --requests 100

fmt:
	$(CARGO) fmt --all

lint:
	$(CARGO) fmt --check
	$(CARGO) clippy --workspace --all-targets -- -D warnings

# Forbid raw std::sync::atomic / std::thread outside the
# dynsum_cfl::sync facade (keeps every kernel model-checkable). The
# script self-tests by planting and detecting a raw-atomic probe.
lint-sync:
	./tools/lint_sync.sh

# Bounded schedule exploration of the five concurrency kernels plus the
# mutation seeds proving detection power (crates/modelcheck — a
# deliberately workspace-EXCLUDED crate: it turns on the cfl
# `model-check` feature, which must never unify into tier-1 builds).
# Each kernel harness explores >=1k schedules; failing schedules write
# replayable traces to target/modelcheck/ (a CI artifact). Stale traces
# from previous runs are cleared first so the artifact reflects this run.
model-check:
	rm -rf target/modelcheck
	cd crates/modelcheck && CARGO_TARGET_DIR=$(CURDIR)/target $(CARGO) test --release

# The net Rust line count ROADMAP.md tracks: tracked .rs lines outside
# dynbench/ and crates/modelcheck/, then dynbench/ on its own.
loc:
	./tools/loc.sh

clean:
	$(CARGO) clean
