#!/usr/bin/env bash
# Non-vacuity gate for the source lints (DESIGN.md §14): mounts
# ci/clippy-plant.rs as a module of pscg-sparse, runs clippy as CI does, and
# passes only if clippy fails with every lint code below reported against
# the plant. The tree is restored on every exit path.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
lib=$root/crates/sparse/src/lib.rs
plant=$root/crates/sparse/src/clippy_plant.rs

# Only one line is appended to lib.rs, so truncating restores it exactly.
size=$(wc -c <"$lib")
trap 'truncate -s "$size" "$lib"; rm -f "$plant"' EXIT
cp "$root/ci/clippy-plant.rs" "$plant"
echo 'mod clippy_plant;' >>"$lib"

if out=$(cd "$root" && cargo clippy -p pscg-sparse --message-format=json -- -D warnings 2>/dev/null); then
    echo "clippy-plant: clippy passed on the plant" >&2
    exit 1
fi
fired=$(grep 'clippy_plant\.rs' <<<"$out" | grep -o '"code":{"code":"[^"]*"' || true)
missed=0
for code in clippy::unwrap_used clippy::expect_used clippy::panic \
    clippy::undocumented_unsafe_blocks clippy::float_cmp clippy::disallowed_types \
    clippy::allow_attributes_without_reason unfulfilled_lint_expectations; do
    if grep -qF "\"code\":\"$code\"" <<<"$fired"; then
        echo "clippy-plant: caught $code"
    else
        echo "clippy-plant: MISSED $code" >&2
        missed=1
    fi
done
exit "$missed"
