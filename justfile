# Task runner recipes. Install `just`, or copy the commands by hand.

# The full gate: every member crate's unit and conformance tests plus the
# root package's integration suites. (Tier-1, `cargo build --release && cargo
# test -q`, runs the root package's integration suites only.)
default: test

# Every target of every member — libraries, binaries, examples, tests — so a
# target nothing runs still has to compile; then the same targets with the
# `history` recording hooks compiled in, which no plain build reaches.
build:
    cargo build --workspace --release --all-targets
    cargo check --workspace --all-targets --features hcl/history

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

# Concurrency hygiene: unsafe blocks need `// SAFETY:`, relaxed atomics in
# containers/mem/rpc need `// ORDERING:`, raw epoch derefs need a guard in
# scope, no modulo owner math outside the partition map, the shard pipeline
# stays in shard.rs.
lint:
    cargo run -p xtask -- lint

# Deterministic schedule exploration: rebuild the lock-free containers with
# the `conc_check` atomics facade and race them through >= 1000 distinct
# seeded schedules per test (fixed seeds; failures print a replay seed). The
# `reclaim_*` cases explore the epoch reclamation itself (pin vs advance vs
# free, with freed addresses quarantined), with a planted use after free as
# their negative control.
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

# AddressSanitizer, LeakSanitizer on, over the epoch shim and the
# containers: a use after free, a double free, or a retired node that is
# never freed fails it. `--target` keeps build scripts uninstrumented. The
# RSS test (`flat_memory`) is left out: ASan holds freed memory in its own
# quarantine, so RSS there measures ASan, not the containers.
check-asan:
    RUSTFLAGS="-Zsanitizer=address" CARGO_TARGET_DIR=target/asan \
        cargo +nightly test --offline -p crossbeam -p hcl-containers --lib --test reclamation \
        --target x86_64-unknown-linux-gnu

# Record real multi-rank container histories and replay them through the
# Wing-Gong linearizability checker, then 1 000 rounds of the lease soak
# (cached reads over many overlapping histories must stay inside the
# checker's budget).
check-lin:
    cargo test --release --features history --test linearizability
    HCL_LIN_SOAK_ITERS=1000 cargo test --release --features history --test linearizability -- --ignored lease_soak_many_seeds

# Seeded linearizability soak over the workload driver's zipfian mixed-op
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

# The one benchmark's own test suite (`benchmark/` is its own workspace, so
# nothing else in `ci` compiles it): every hclbench workload at 2 %, traced
# and untraced, every verification on. Guards the harness against library
# API changes; numbers come from `cargo run --release --manifest-path
# benchmark/Cargo.toml -- run` (benchmark/README.md).
# Cargo rewrites `benchmark/Cargo.lock` against the current workspace graph;
# the committed lock is put back afterwards so the gate leaves the tree clean.
bench-smoke:
    #!/usr/bin/env bash
    set -euo pipefail
    lock=$(mktemp)
    cp benchmark/Cargo.lock "$lock"
    trap 'cp "$lock" benchmark/Cargo.lock; rm -f "$lock"' EXIT
    cargo test --release --offline --manifest-path benchmark/Cargo.toml

# Durability suite: the WAL crate's unit tests (CRC, torn-tail truncation,
# snapshot compaction, replay dedup), the shard log's unit tests in `hcl`
# (the relaxed flush gap as a deadline: gap bound and final pass), the
# per-container live-vs-recovered byte-identity proptests, the subprocess
# crash harness (kill -9 mid-write, then recover; strict = zero
# acknowledged-write loss for sync puts and for put_async windows, relaxed =
# bounded suffix-only tail loss, plus the drain/admit rejoin), and the idle
# world whose one deadline thread carries the gap (< 5 ms CPU/s, exact
# thread count).
test-persist:
    cargo test --release -p hcl-persist
    cargo test --release -p hcl --lib persist::
    cargo test --release --test persist_property
    cargo test --release --test crash_recovery
    cargo test --release --test idle_world

# Seeded multi-generation crash soak: repeated kill -9/recover cycles over
# ONE log directory, each child replaying, compacting and appending over
# everything its predecessors survived; generations alternate sync puts and
# windows of 16 put_async. `iters`/`seed` pin the sweep.
crash-soak iters="3" seed="12648430":
    HCL_SOAK_ITERS={{iters}} HCL_SOAK_SEED={{seed}} \
        cargo test --release --test crash_recovery -- --ignored --exact crash_soak --nocapture

# Every example, end to end: each asserts its own invariants and panics on a
# violation, so a clean exit is the check.
examples:
    #!/usr/bin/env bash
    set -euo pipefail
    for ex in examples/*.rs; do
        echo "== example: $(basename "$ex" .rs) =="
        cargo run --release --example "$(basename "$ex" .rs)"
    done

# Everything CI runs: build (every target), the full test gate (every member
# crate plus the root integration suites, the telemetry export, chaos twins
# and the idle-world CPU and thread-count guard included — `test-faults`,
# `test-membership` and `test-persist` are shortcuts into subsets of it),
# the xtask lint, every example, crash soak, schedule exploration, race
# checking, linearizability histories, AddressSanitizer, and the hclbench
# harness.
ci: build test lint examples crash-soak check-conc check-races check-lin check-asan bench-smoke
