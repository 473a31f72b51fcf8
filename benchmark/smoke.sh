#!/bin/sh
# All six workloads at 2 % of their op counts, every verification on: < 15 s.
cd "$(dirname "$0")/.." || exit 1
exec cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- run --workload all --scale 0.02
