#!/usr/bin/env bash
# Builds the scheduling daemon and the benchmark from this checkout, then
# runs one benchmark workload:
#
#   bash oefbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the repository.  Build output goes to stderr; the
# last line of stdout is the result as one JSON object.
set -euo pipefail

# Both packages build into one target directory (the daemon's workspace and
# the benchmark's own), so the binaries sit side by side.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
target="$CARGO_TARGET_DIR"
cargo build --release --offline --quiet -p oef-shard --bin oef-serviced >&2
cargo build --release --offline --quiet --manifest-path oefbench/Cargo.toml --bin oefbench >&2
exec "$target/release/oefbench" --serviced "$target/release/oef-serviced" "$@"
