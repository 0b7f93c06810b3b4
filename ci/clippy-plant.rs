//! Non-vacuity plant for the source lints, compiled only by
//! `ci/clippy-plant.sh`, which mounts it as a module of `pscg-sparse`
//! (a hot-path crate). Every item breaks one rule; each rule must fire.

#![allow(dead_code)] // allow_attributes_without_reason

use std::collections::HashMap; // disallowed_types

fn planted_solver(vals: &[f64], map: &HashMap<u64, f64>) -> f64 {
    let first = vals.first().unwrap(); // unwrap_used
    let last = vals.last().expect("nonempty"); // expect_used
    if first == last {
        // float_cmp
        panic!("planted"); // panic
    }
    let scale = map.get(&0).copied().unwrap_or(1.0);
    unsafe { core::ptr::read_volatile(&scale) } // undocumented_unsafe_blocks
}

#[expect(clippy::needless_range_loop, reason = "nothing here matches")] // unfulfilled_lint_expectations
fn stale_expectation() {}
