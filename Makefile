# Convenience aliases; `make verify` is ROADMAP.md's tier-1 command.

CARGO ?= cargo

.PHONY: verify build test doc serve fuzz fuzz-faults fuzz-service bench bench-test bench-counts fmt lint lint-sync model-check loc clean

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
