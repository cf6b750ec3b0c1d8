# GOOFI-rs task runner. `just` with no arguments runs the tier-1 gate.

# Build everything and run the full test suite (the CI gate).
default: build test

# Release build of every workspace target (libs, bins, tests, benches).
build:
    cargo build --release --workspace --all-targets

# Full test suite, quiet output.
test:
    cargo test -q --workspace

# Lint gate: clippy must be warning-free across all targets.
lint:
    cargo clippy --workspace --all-targets -- -D warnings

# Everything CI runs, in CI's order.
ci: build test lint

# E8 runner scaling; refreshes BENCH_e8.json at the repo root.
bench-e8:
    cargo bench -p goofi-bench --bench e8_runner_scaling

# E9 checkpoint-vs-cold-start; refreshes BENCH_e9.json at the repo root.
bench-e9:
    cargo bench -p goofi-bench --bench e9_checkpoint

# E10 telemetry overhead (asserts the <2% disabled budget); refreshes
# BENCH_e10.json at the repo root.
bench-e10:
    cargo bench -p goofi-bench --bench e10_telemetry_overhead

# Static workload analysis (CFG, pruning windows, lints) for a bundled
# workload, with no reference run. Add `--json` by hand for machine output.
analyze workload="sort16":
    cargo run --release -p goofi-cli -- analyze --workload {{workload}}

# E11 static-vs-trace pruning comparison (asserts the ≥20% gate);
# refreshes BENCH_e11.json at the repo root.
bench-e11:
    cargo bench -p goofi-bench --bench e11_static_pruning

# E12 class execution + predecoded interpreter (asserts the ≥1.5x gate
# and byte-identical verdicts); refreshes BENCH_e12.json at the repo root.
bench-e12:
    cargo bench -p goofi-bench --bench e12_class_execution

# The walk row: one runaway sort16 experiment (R9 bit 20 flipped at
# instret 100) timed per instruction, best of 300; asserts its
# 110 504 instructions and final memory violation.
bench-walk:
    cargo bench -p goofi-bench --bench thor_walk

# E13 paged storage engine vs seed JSON backend (asserts the ≥10x
# sustained-append gate and index-beats-scan); refreshes BENCH_e13.json
# at the repo root. Scale with GOOFI_E13_ROWS / GOOFI_E13_GATE. The seed
# backend's writer lives in the bench (crates/bench/src/e13.rs):
# goofi-db only reads that format now.
bench-e13:
    cargo bench -p goofi-bench --bench e13_storage

# E14 multi-process campaign service vs in-process runner (asserts every
# configuration lands a byte-identical database; speedup is
# informational — it depends on host cores); refreshes BENCH_e14.json at
# the repo root. Scale with GOOFI_E14_EXPERIMENTS.
bench-e14:
    cargo bench -p goofi-bench --bench e14_server

# E15 fault-propagation prediction (asserts the ≥15% prune+predict
# gate, predicted ≥ 1, and byte-identical synthesised verdicts);
# refreshes BENCH_e15.json at the repo root.
bench-e15:
    cargo bench -p goofi-bench --bench e15_propagation

# The multi-process determinism + crash-recovery suite on its own
# (kill -9 mid-campaign, cancel/resume, byte-identity per worker count).
test-server:
    cargo test --release --test server_recovery
