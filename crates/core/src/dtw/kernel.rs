//! Kernel selection for the DP entry points.
//!
//! Every DP kernel in this crate (full DTW, banded `cDTW_w`, the arbitrary
//! [`SearchWindow`](crate::window::SearchWindow) kernel FastDTW refines
//! over, the path-recovery variant, and the early-abandoning kernel) fills
//! its rows through the one row sweep in the private `sweep` module:
//! guarded prefix, branch-free interior, guarded suffix.
//!
//! [`Kernel::Auto`] picks a faster evaluation order where the input
//! admits one, and that choice is made from the input alone:
//!
//! * distance-only windowed calls whose window is at least
//!   [`WAVEFRONT_MIN_WIDTH`] cells wide run in anti-diagonal order (the
//!   private `dtw::wavefront` module), whose packed cells beat the row
//!   sweep's left-neighbor chain clearly only once a diagonal holds
//!   enough cells;
//! * mining scans of same-length candidates run the query-batched
//!   kernel ([`crate::dtw::batch`]).
//!
//! Path recovery and early abandoning always run the row sweep. Every
//! route is bitwise-equal to the row sweep on every input and records
//! identical `WorkMeter` counters, so which one runs is observable only
//! in wall-clock time — the zero-tolerance perf-trajectory gate doubles
//! as a kernel-equivalence gate (`tests/kernel_equivalence.rs` is the
//! differential proof against a naive full-matrix oracle).
//!
//! The other variants pin one route at the `*_kernel` entry points, for
//! the tests and experiments that compare routes.

/// Which evaluation route a `*_kernel` DP entry point takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kernel {
    /// Route by the input: the wavefront on windows at least
    /// [`WAVEFRONT_MIN_WIDTH`] cells wide, the row sweep otherwise.
    #[default]
    Auto,
    /// Force the row sweep wherever `Auto` would take the wavefront.
    Segmented,
    /// Force anti-diagonal (wavefront) evaluation of the windowed DP at
    /// the windowed distance entry points
    /// (the `dtw::wavefront` module) for every window width:
    /// cells on one anti-diagonal have no mutual data dependency, so the
    /// loop over a diagonal's cells compiles to packed vector
    /// instructions (two cells each in the default x86-64 build).
    /// Bitwise-equal to the row sweep cell for cell.
    Wavefront,
}

impl Kernel {
    /// Whether a distance-only windowed call whose widest row holds
    /// `width` cells runs in wavefront order: always under
    /// [`Kernel::Wavefront`], under [`Kernel::Auto`] when
    /// `width ≥ WAVEFRONT_MIN_WIDTH`, never otherwise.
    #[inline]
    pub(crate) fn wavefront(self, width: usize) -> bool {
        match self {
            Kernel::Wavefront => true,
            Kernel::Auto => width >= WAVEFRONT_MIN_WIDTH,
            Kernel::Segmented => false,
        }
    }
}

/// Narrowest window, in cells per row
/// ([`SearchWindow::max_row_width`](crate::window::SearchWindow::max_row_width)),
/// at which [`Kernel::Auto`] evaluates a distance-only windowed call in
/// wavefront order.
///
/// A property of the input shape, not a tuning knob. Measured as
/// segmented ÷ wavefront time per cell on Sakoe–Chiba bands (N = 128 to
/// 24,000, alternating 30 ms slices, shared 2-vCPU Xeon), with the
/// wavefront's packed cell loop: the wavefront breaks even around width
/// 33 (0.90–1.17× in the median slice), leads 1.49–2.10× at 77,
/// 1.87–2.30× at 129 and 2.90–3.93× at 401, and the slowest tenth of
/// slices reads about the same. Its gain is issue slots the
/// latency-bound row sweep leaves idle, so it shrinks when another
/// thread shares the physical core: before the NaN-free cell minimum,
/// such load held it to 1.05–1.13× at width 77 in the slowest tenth of
/// slices while its time per cell swung up to 2×. From 129 the wavefront
/// wins clearly in every measurement. A lower crossover would move Case
/// A's pairs (width 77), which needs end-to-end runs of its own
/// (DESIGN.md §16).
pub const WAVEFRONT_MIN_WIDTH: usize = 129;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_takes_the_wavefront_from_the_crossover_width() {
        let w = WAVEFRONT_MIN_WIDTH;
        assert!(!Kernel::Auto.wavefront(w - 1));
        assert!(Kernel::Auto.wavefront(w));
        assert!(Kernel::Auto.wavefront(w + 1));
        // Explicit pins ignore the width.
        assert!(Kernel::Wavefront.wavefront(1));
        assert!(!Kernel::Segmented.wavefront(usize::MAX));
    }
}
