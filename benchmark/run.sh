#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh [--seed N] [--seconds S] [--traced] [--repeat K]
#   benchmark/run.sh compare A.json B.json
#
# See benchmark/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Where cargo puts the binary: CARGO_TARGET_DIR when set (relative to the
# root, where cargo is invoked), else the package's own target directory.
target="${CARGO_TARGET_DIR:-benchmark/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml >&2
exec "$target/release/strange-benchmark" "$@"
