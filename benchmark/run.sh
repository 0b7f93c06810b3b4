#!/bin/sh
# One command for the whole benchmark: every workload, untraced then traced,
# one process at a time. Prints every metric as `name value unit` and writes
# benchmark/out/solvebench.json (the file `solvebench --compare` reads).
#
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke] [--out DIR]
set -eu
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --all "$@"
