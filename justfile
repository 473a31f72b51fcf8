# Task runner recipes. Install `just`, or copy the commands by hand.

# Full build + test sweep (tier-1).
default: test

build:
    cargo build --workspace --release

test:
    cargo test --workspace --release

# Fault-injection suite under a fixed seed: deterministic, CI-friendly.
test-faults:
    cargo test --release --test fault_injection
    cargo test --release --test property_based -- retry_backoff chaos_fault

# Sweep the full container workload through 10 different fault seeds.
test-faults-soak:
    #!/usr/bin/env bash
    set -euo pipefail
    for seed in 1 2 3 5 8 13 21 34 55 89; do
        echo "== fault soak: seed $seed =="
        HCL_FAULT_SEED=$seed cargo test --release --test fault_injection \
            -- --ignored soak_lossy_workload_env_seed
    done

# Membership + live-rebalance suite: epoch-versioned placement, drain/admit
# key preservation, epoch-straddling ops, migration chaos twins, and the
# cross-container key→owner agreement regression.
test-membership:
    cargo test --release --test membership
    cargo test --release --test fault_injection -- drain_with_unreachable_victim

# Seeded membership soak: the randomized join/leave/drain schedule and the
# partitioned-victim drain, each across several env-pinned seeds.
test-membership-soak:
    #!/usr/bin/env bash
    set -euo pipefail
    for seed in 2 7 19 41 97; do
        echo "== membership soak: seed $seed =="
        HCL_MEMBERSHIP_SEED=$seed cargo test --release --test membership \
            -- --ignored soak_membership_schedule_env_seed
        HCL_MEMBERSHIP_SEED=$seed cargo test --release --test fault_injection \
            -- --ignored soak_partitioned_victim_drain_env_seed
    done

# Concurrency-hygiene static pass: unsafe blocks need `// SAFETY:`, relaxed
# atomics in containers/mem/rpc need `// ORDERING:`, raw epoch derefs need a
# guard in scope, no modulo owner math outside the partition map.
lint:
    cargo run -p xtask -- lint

# Deterministic schedule exploration: rebuild the lock-free containers with
# the `conc_check` atomics facade and race them through >= 1000 distinct
# seeded schedules per test (fixed seeds; failures print a replay seed).
check-conc:
    #!/usr/bin/env bash
    set -euo pipefail
    export RUSTFLAGS="--cfg conc_check"
    export CARGO_TARGET_DIR=target/conc
    cargo test -p conc-check
    cargo test -p hcl-containers --test conc_sched

# Long sweep: five seed offsets x 5000 schedules per container test.
check-conc-soak:
    #!/usr/bin/env bash
    set -euo pipefail
    export RUSTFLAGS="--cfg conc_check"
    export CARGO_TARGET_DIR=target/conc
    for off in 0 1000000 2000000 3000000 4000000; do
        echo "== conc soak: seed offset $off =="
        HCL_CONC_SEED_OFFSET=$off HCL_CONC_SCHEDULES=5000 \
            cargo test -p hcl-containers --test conc_sched
    done

# Happens-before race checking: the vector-clock checker audits every
# facade atomic/mutex event plus the containers' RaceCell slots. Runs the
# hb unit fixtures, the public-API race fixtures (bounded budget), the
# build-parity smoke and the per-event allocation guard.
check-races:
    #!/usr/bin/env bash
    set -euo pipefail
    export RUSTFLAGS="--cfg conc_check"
    export CARGO_TARGET_DIR=target/conc
    cargo test -p conc-check --lib hb::
    cargo test -p conc-check --test races --test facade_parity --test hb_alloc

# Long race sweep: `schedules` seeded interleavings per fixture (default
# 2000); the racy fixture must still be caught, the clean twins must stay
# race-free.
check-races-soak schedules="2000":
    #!/usr/bin/env bash
    set -euo pipefail
    export RUSTFLAGS="--cfg conc_check"
    export CARGO_TARGET_DIR=target/conc
    HCL_RACE_SCHEDULES={{schedules}} \
        cargo test -p conc-check --test races -- --ignored --nocapture

# Record real multi-rank container histories and replay them through the
# Wing-Gong linearizability checker.
check-lin:
    cargo test --release --features history --test linearizability

# Seeded linearizability soak over the scenario driver's zipfian mixed-op
# histories. `HCL_LIN_SEED` pins the base seed, `HCL_LIN_SOAK_ITERS` the
# round count, so any failing seed replays exactly.
check-lin-soak:
    cargo test --release --features history --test linearizability -- --ignored zipfian_soak_many_seeds

# Lease-staleness soak: read-heavy zipfian driver rounds over a lease-cached
# map, each history replayed through the lease-relaxed checker (cached reads
# admitted iff their value was current somewhere inside the lease window).
# `HCL_LIN_SEED` / `HCL_LIN_SOAK_ITERS` pin the sweep as in check-lin-soak.
check-lin-lease-soak:
    cargo test --release --features history --test linearizability -- --ignored lease_soak_many_seeds

# ~10 s subset of the PR 3 RPC hot-path bench (8-rank memory-fabric
# put/get, baseline vs batched), then validate the committed
# BENCH_pr3.json: schema keys, non-zero throughputs, >= 2x headline
# speedup. The full regeneration is `cargo run --release -p hcl-bench
# --bin pr3`.
bench-smoke:
    cargo run --release -p hcl-bench --bin pr3 -- --smoke

# Read-path cache gate: a reduced 8-rank zipfian get sweep (uncached vs
# lease-cached), gating a fresh >= 1.5x cached speedup with live cache
# hits, then validating the committed BENCH_pr8.json (>= 2x cached speedup, lower cached p99). The full
# regeneration is `cargo run --release -p hcl-bench --bin pr8`.
bench-cache-smoke:
    cargo run --release -p hcl-bench --bin pr8 -- --smoke

# Telemetry export gate: 4-rank memory workload with HCL_TELEMETRY_DIR set,
# validating the per-rank JSON snapshot schema, the Prometheus exposition,
# and the committed BENCH_pr5.json overhead artifact. The full overhead
# bench is `cargo run --release -p hcl-bench --bin pr5`.
telemetry-smoke:
    cargo run --release -p hcl-bench --bin telemetry_smoke

# Scenario-matrix gate: re-run the smoke subset of the YCSB-style scenario
# suite (2 containers x 2 mixes, each with a ChaosFabric-faulted twin) and
# compare medians against the committed FIG_scenarios.json, then re-derive
# every committed sim series from its recorded calibration. The full matrix
# regeneration is `cargo run --release -p hcl-bench --bin scenarios`.
scenario-smoke:
    cargo run --release -p hcl-bench --bin scenarios -- --smoke

# Live-rebalance bench gate: a reduced 8-rank zipfian get sweep measuring
# steady-state vs mid-migration throughput/p99, gating typed-only errors and
# zero lost keys, then validating the committed BENCH_pr9.json. The full
# regeneration is `cargo run --release -p hcl-bench --bin pr9`.
bench-rebalance-smoke:
    cargo run --release -p hcl-bench --bin pr9 -- --smoke

# Durability suite: the WAL crate's unit tests (CRC, torn-tail truncation,
# snapshot compaction, replay dedup), the per-container live-vs-recovered
# byte-identity proptests, and the subprocess crash harness (kill -9
# mid-write, then recover; strict = zero acknowledged-write loss for sync
# puts and for put_async windows, relaxed = bounded suffix-only tail loss,
# plus the drain/admit rejoin).
test-persist:
    cargo test --release -p hcl-persist
    cargo test --release --test persist_property
    cargo test --release --test crash_recovery

# Seeded multi-generation crash soak: repeated kill -9/recover cycles over
# ONE log directory, each child replaying, compacting and appending over
# everything its predecessors survived; generations alternate sync puts and
# windows of 16 put_async. `iters`/`seed` pin the sweep.
crash-soak iters="3" seed="12648430":
    HCL_SOAK_ITERS={{iters}} HCL_SOAK_SEED={{seed}} \
        cargo test --release --test crash_recovery -- --ignored --exact crash_soak --nocapture

# Sync-epoch bench gate: a reduced 8-rank zipfian durable-put sweep (no
# persistence vs strict vs relaxed), gating the flush-gap signature —
# every durable put logged, every strict log fully durable at the last ack
# with at most one fsync per put, relaxed fsyncs >= 10x rarer, relaxed
# throughput not collapsed — then validating the committed
# BENCH_pr10.json. The full regeneration is `cargo run --release -p
# hcl-bench --bin pr10`.
bench-persist-smoke:
    cargo run --release -p hcl-bench --bin pr10 -- --smoke

# FIG artifact provenance: every committed FIG_*.json must record its seed,
# measured rank counts, and per-cell workload mix.
check-artifacts:
    cargo run -p xtask -- artifacts

# Everything CI runs: build, tier-1 tests, hygiene lint, fault suite,
# membership/rebalance suite, durability suite + crash soak, schedule
# exploration, linearizability histories, bench smoke-checks,
# scenario-matrix gate, artifact provenance.
ci: build test lint test-faults test-membership test-persist crash-soak check-conc check-races check-lin bench-smoke bench-cache-smoke telemetry-smoke scenario-smoke bench-rebalance-smoke bench-persist-smoke check-artifacts
