//! Input generators shared by the differential suites.

use proptest::prelude::*;

/// Hostile values: ±1e155, whose squared difference with anything not
/// within ~1e154 of it overflows to `+∞`; subnormals (±4.9e-324,
/// ±1e-310); and ±0.0 — two thirds of the samples, mixed with ordinary
/// values in −10..10.
pub fn adversarial(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    const HOSTILE: [f64; 8] = [
        1e155, -1e155, 4.9e-324, -4.9e-324, 1e-310, -1e-310, 0.0, -0.0,
    ];
    let sample =
        (0usize..12, -10.0f64..10.0).prop_map(|(k, v)| HOSTILE.get(k).copied().unwrap_or(v));
    prop::collection::vec(sample, len)
}
