//! Z-normalization, batch and just-in-time.
//!
//! Comparing time series under DTW without z-normalizing each (sub)sequence
//! is "a sin" in the UCR-suite school: offset and amplitude differences
//! dominate shape otherwise. The batch form is used on whole series; the
//! [`RollingStats`] form supports *just-in-time normalization* in
//! subsequence search, where each sliding window is normalized on the fly
//! from running sums — one of the cDTW-only optimizations the paper credits
//! for the trillion-point search result it cites.

use crate::error::{check_finite, check_nonempty, Error, Result};

/// Mean and population standard deviation of a slice.
pub fn mean_std(s: &[f64]) -> Result<(f64, f64)> {
    check_nonempty("s", s)?;
    check_finite("s", s)?;
    let n = s.len() as f64;
    let mean = s.iter().sum::<f64>() / n;
    let var = s.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    Ok((mean, var.max(0.0).sqrt()))
}

/// Z-normalizes into a fresh vector: zero mean, unit (population) variance.
///
/// A constant series has zero variance; it is mapped to all-zeros (the
/// UCR-suite convention) rather than dividing by zero.
pub fn znorm(s: &[f64]) -> Result<Vec<f64>> {
    let mut out = s.to_vec();
    znorm_in_place(&mut out)?;
    Ok(out)
}

/// Z-normalizes a slice in place. See [`znorm`].
pub fn znorm_in_place(s: &mut [f64]) -> Result<()> {
    let (mean, std) = mean_std(s)?;
    if std <= f64::EPSILON {
        s.iter_mut().for_each(|v| *v = 0.0);
        return Ok(());
    }
    let inv = 1.0 / std;
    s.iter_mut().for_each(|v| *v = (*v - mean) * inv);
    Ok(())
}

/// Re-sum threshold of rolling window sums: once the sum of squares
/// falls below this fraction (2⁻²⁰) of its peak since the last re-sum,
/// both sums are recomputed over the current window.
///
/// A large value leaves cancellation error behind in the running sums
/// when it exits the window, up to its own square times the rounding
/// unit; re-summing after such a drop keeps that error out of every
/// later window. On data without such a drop nothing is re-summed.
pub const RESUM_BELOW: f64 = 1.0 / (1u64 << 20) as f64;

/// Running sums over a sliding window, supporting O(1) mean/std per step —
/// the "just-in-time normalization" of the UCR suite.
///
/// Feed samples with [`RollingStats::push`]; once `len() == capacity`, each
/// further push evicts the oldest sample. [`RollingStats::mean_std`] then
/// describes the current window without rescanning it. The sums re-sum
/// by the [`RESUM_BELOW`] rule.
#[derive(Debug, Clone)]
pub struct RollingStats {
    capacity: usize,
    buf: Vec<f64>,
    head: usize,
    filled: bool,
    sum: f64,
    sum_sq: f64,
    /// Peak of `sum_sq` since the last re-sum.
    peak: f64,
}

impl RollingStats {
    /// Creates a window of the given capacity (must be ≥ 1).
    pub fn new(capacity: usize) -> Result<Self> {
        if capacity == 0 {
            return Err(Error::InvalidParameter {
                name: "capacity",
                reason: "rolling window must hold at least one sample".into(),
            });
        }
        Ok(RollingStats {
            capacity,
            buf: Vec::with_capacity(capacity),
            head: 0,
            filled: false,
            sum: 0.0,
            sum_sq: 0.0,
            peak: 0.0,
        })
    }

    /// Number of samples currently in the window.
    pub fn len(&self) -> usize {
        if self.filled {
            self.capacity
        } else {
            self.buf.len()
        }
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the window has reached capacity.
    pub fn is_full(&self) -> bool {
        self.filled
    }

    /// Pushes a sample, evicting the oldest if the window is full.
    pub fn push(&mut self, v: f64) {
        if self.filled {
            let old = self.buf[self.head];
            self.sum -= old;
            self.sum_sq -= old * old;
            self.buf[self.head] = v;
            self.head = (self.head + 1) % self.capacity;
        } else {
            self.buf.push(v);
            if self.buf.len() == self.capacity {
                self.filled = true;
            }
        }
        self.sum += v;
        self.sum_sq += v * v;
        // Only an eviction lowers `sum_sq`, so only one can re-sum.
        if self.sum_sq > self.peak {
            self.peak = self.sum_sq;
        } else if self.sum_sq < self.peak * RESUM_BELOW {
            (self.sum, self.sum_sq) = self
                .buf
                .iter()
                .fold((0.0, 0.0), |(s, s2), &v| (s + v, s2 + v * v));
            self.peak = self.sum_sq;
        }
    }

    /// Mean and population standard deviation of the current window.
    ///
    /// Floating cancellation in `sum_sq - sum²/n` is clamped at zero, the
    /// standard defense when using running sums.
    pub fn mean_std(&self) -> (f64, f64) {
        let n = self.len() as f64;
        if n == 0.0 {
            return (0.0, 0.0);
        }
        let mean = self.sum / n;
        let var = (self.sum_sq / n - mean * mean).max(0.0);
        (mean, var.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_of_known_series() {
        let (m, s) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((m - 5.0).abs() < 1e-12);
        assert!((s - 2.0).abs() < 1e-12);
    }

    #[test]
    fn znorm_produces_zero_mean_unit_std() {
        let z = znorm(&[1.0, 2.0, 3.0, 4.0, 5.0, 100.0]).unwrap();
        let (m, s) = mean_std(&z).unwrap();
        assert!(m.abs() < 1e-12);
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn znorm_constant_series_maps_to_zeros() {
        let z = znorm(&[5.0; 7]).unwrap();
        assert!(z.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn znorm_is_shift_and_scale_invariant() {
        let base = [0.3, -1.0, 2.0, 0.7, -0.2];
        let transformed: Vec<f64> = base.iter().map(|v| v * 7.0 + 3.0).collect();
        let a = znorm(&base).unwrap();
        let b = znorm(&transformed).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn znorm_rejects_empty_and_nan() {
        assert!(znorm(&[]).is_err());
        assert!(znorm(&[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn rolling_matches_batch_on_every_window() {
        let data = [0.5, 1.5, -2.0, 3.0, 0.0, 1.0, -1.0, 2.5, 4.0, -0.5];
        let w = 4;
        let mut rs = RollingStats::new(w).unwrap();
        for (i, &v) in data.iter().enumerate() {
            rs.push(v);
            if i + 1 >= w {
                let window = &data[i + 1 - w..=i];
                let (bm, bs) = mean_std(window).unwrap();
                let (rm, rstd) = rs.mean_std();
                assert!((bm - rm).abs() < 1e-9, "window ending at {i}");
                assert!((bs - rstd).abs() < 1e-9, "window ending at {i}");
            }
        }
    }

    #[test]
    fn a_spike_leaving_the_window_does_not_skew_later_windows() {
        // A 4,000-point random walk with uniform steps in [-1, 1), and
        // one 1e10 spike: its square leaves ~1e4 of cancellation error
        // in the running sum of squares, the size of a 64-point window's
        // own sum of squares here.
        let mut state = 7u64;
        let mut level = 0.0;
        let mut data: Vec<f64> = (0..4000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                level += ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
                level
            })
            .collect();
        data[100] = 1e10;
        let w = 64;
        let mut rs = RollingStats::new(w).unwrap();
        for (i, &v) in data.iter().enumerate() {
            rs.push(v);
            if i + 1 >= w {
                let (_, want) = mean_std(&data[i + 1 - w..=i]).unwrap();
                let (_, got) = rs.mean_std();
                let rel = (got - want).abs() / want;
                assert!(rel <= 1e-9, "window ending at {i}: std {got} vs {want}");
            }
        }
    }

    #[test]
    fn rolling_partial_window() {
        let mut rs = RollingStats::new(5).unwrap();
        rs.push(2.0);
        rs.push(4.0);
        assert_eq!(rs.len(), 2);
        assert!(!rs.is_full());
        let (m, s) = rs.mean_std();
        assert_eq!(m, 3.0);
        assert_eq!(s, 1.0);
    }

    #[test]
    fn rolling_rejects_zero_capacity() {
        assert!(RollingStats::new(0).is_err());
    }

    #[test]
    fn rolling_eviction_order_is_fifo() {
        let mut rs = RollingStats::new(2).unwrap();
        rs.push(10.0);
        rs.push(0.0);
        rs.push(0.0); // evicts the 10
        let (m, s) = rs.mean_std();
        assert_eq!(m, 0.0);
        assert_eq!(s, 0.0);
    }
}
