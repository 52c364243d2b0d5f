//! Kernel-tier selection for the shared DP row sweep.
//!
//! Every DP kernel in this crate (full DTW, banded `cDTW_w`, the arbitrary
//! [`SearchWindow`](crate::window::SearchWindow) kernel FastDTW refines
//! over, the path-recovery variant, and the early-abandoning kernel) fills
//! its rows through the tiered sweep in the private `sweep` module. Two
//! tiers exist:
//!
//! * **Generic** — the original guarded loop: every cell checks whether its
//!   `up`/`diag`/`left` neighbors fall inside the previous/current row's
//!   admissible interval. Correct for any window shape, any cost.
//! * **Segmented** — splits each row into prefix / interior / suffix at
//!   `max(lo, plo + 1)` and `min(hi, phi)`. In the interior *both* `up` and
//!   `diag` are admissible by construction, so the hot loop runs branch-free
//!   with a fused three-way min and a 4-wide unrolled column walk; the
//!   (short) prefix and suffix keep the guarded logic.
//!
//! The segmented tier performs the *same per-cell operations in the same
//! order* as the generic tier, so results are **bitwise equal** on every
//! window shape and all `WorkMeter` counters are unchanged — the
//! zero-tolerance perf-trajectory gate doubles as a kernel-equivalence gate
//! (`tests/kernel_equivalence.rs` is the differential proof).
//!
//! [`Kernel::Auto`] resolves per cost function: costs that opt in via
//! [`CostFn::SEGMENTED_FAST`]
//! (`SquaredCost`, `AbsoluteCost` — the two every experiment uses) get the
//! segmented tier, monomorphized per cost by the generic sweep functions;
//! everything else stays on the proven generic loop.
//!
//! Distance-only windowed calls have one more tier, the anti-diagonal
//! wavefront (the private `dtw::wavefront` module). Its lanes beat the
//! row sweep's left-neighbor chain clearly — whether or not the core is
//! shared — only once a diagonal holds enough cells, so `Auto` takes it
//! for opted-in costs whose window is at least [`WAVEFRONT_MIN_WIDTH`]
//! cells wide; narrower windows, path recovery and early abandoning stay
//! on the row sweep.
//!
//! The process-wide default (consulted by the plain, non-`_kernel` entry
//! points) is [`Kernel::Auto`] and can be overridden with
//! [`set_default_kernel`] — the CLI `--kernel` flag and the repro harness
//! use this so a whole run can be pinned to one tier without threading a
//! parameter through every call site. Tests and benches that need
//! determinism under parallel execution use the explicit `*_kernel`
//! variants instead of the global.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::cost::CostFn;

/// Which row-sweep tier the DP kernels use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kernel {
    /// Resolve per cost function: segmented when
    /// [`CostFn::SEGMENTED_FAST`] is `true`, generic otherwise. At the
    /// windowed distance entry points, opted-in costs on windows at least
    /// [`WAVEFRONT_MIN_WIDTH`] cells wide run in wavefront order instead.
    /// At the full-window distance entry points, highly run-compressible
    /// inputs (runs/points ≤ [`crate::rle::AUTO_THRESHOLD`]) route to
    /// the RLE block kernel instead.
    #[default]
    Auto,
    /// Force the guarded per-cell loop for every row.
    Generic,
    /// Force the three-segment branch-free-interior sweep for every row.
    Segmented,
    /// Force the run-length-encoded block kernel
    /// ([`crate::rle`]) at the full-window distance entry points.
    /// Contexts the block decomposition does not cover (banded windows,
    /// path recovery, early abandoning) degrade to the `Auto` sweep
    /// resolution.
    Rle,
    /// Force anti-diagonal (wavefront) evaluation of the banded DP at
    /// the windowed distance entry points
    /// (the `dtw::wavefront` module) for every window width and cost:
    /// cells on one anti-diagonal have no mutual data dependency, so the
    /// inner loop runs in fixed-width lanes the compiler autovectorizes.
    /// Bitwise-equal to the row sweep cell for cell. Contexts the
    /// wavefront does not cover (path recovery, early abandoning,
    /// min-row) degrade to the `Auto` sweep resolution.
    Wavefront,
    /// Prefer the query-batched struct-of-lanes kernel
    /// ([`crate::dtw::batch`]) at the mining scan entry points (k-NN /
    /// LOOCV / pairwise), where up to [`crate::dtw::batch::LANES`]
    /// same-length candidates run per call. `Auto` takes the same
    /// route; single-pair contexts degrade to the `Auto` sweep
    /// resolution.
    Batched,
}

impl Kernel {
    /// Every tier, paired with its canonical name and one-line summary.
    ///
    /// This table is the single source for [`parse`](Self::parse),
    /// [`name`](Self::name) (locked by `parse_and_name_round_trip`) and
    /// the CLI `--kernel` help/error text (via
    /// [`name_list`](Self::name_list)), so docs cannot drift from the
    /// parser.
    pub const ALL: &'static [(Kernel, &'static str, &'static str)] = &[
        (
            Kernel::Auto,
            "auto",
            "resolve per cost (segmented fast path), per window width (wavefront on wide windows), per input (RLE on compressible data) and per call shape (batched mining scans)",
        ),
        (Kernel::Generic, "generic", "guarded per-cell row sweep"),
        (
            Kernel::Segmented,
            "segmented",
            "branch-free-interior row sweep",
        ),
        (
            Kernel::Rle,
            "rle",
            "run-length-encoded block kernel for piecewise-constant series",
        ),
        (
            Kernel::Wavefront,
            "wavefront",
            "anti-diagonal lane-vectorized banded sweep",
        ),
        (
            Kernel::Batched,
            "batched",
            "query-batched struct-of-lanes kernel at the mining scan entry points",
        ),
    ];

    /// Parses a CLI-style kernel name (generated from [`ALL`](Self::ALL)).
    pub fn parse(s: &str) -> Option<Kernel> {
        Kernel::ALL
            .iter()
            .find(|(_, name, _)| *name == s)
            .map(|(k, _, _)| *k)
    }

    /// The canonical lower-case name (`auto` / `generic` / `segmented` /
    /// `rle` / `wavefront` / `batched`).
    pub fn name(self) -> &'static str {
        Kernel::ALL
            .iter()
            .find(|(k, _, _)| *k == self)
            .map(|(_, name, _)| *name)
            .expect("every Kernel variant appears in Kernel::ALL")
    }

    /// The comma-separated canonical names (`"auto, generic, segmented,
    /// rle, wavefront, batched"`) for CLI help and error messages.
    pub fn name_list() -> String {
        let names: Vec<&str> = Kernel::ALL.iter().map(|(_, name, _)| *name).collect();
        names.join(", ")
    }

    /// Whether this tier resolves to the segmented sweep for cost `C`.
    ///
    /// `Rle`, `Wavefront` and `Batched` answer like `Auto`: row-sweep
    /// contexts their specialized kernels do not cover fall back to the
    /// per-cost resolution, so forcing any of them never changes sweep
    /// results bitwise.
    #[inline(always)]
    pub fn segmented<C: CostFn>(self) -> bool {
        match self {
            Kernel::Auto | Kernel::Rle | Kernel::Wavefront | Kernel::Batched => C::SEGMENTED_FAST,
            Kernel::Generic => false,
            Kernel::Segmented => true,
        }
    }

    /// Whether a distance-only windowed call whose widest row holds
    /// `width` cells runs in wavefront order for cost `C`: always under
    /// [`Kernel::Wavefront`]; under [`Kernel::Auto`] when `C` opts in via
    /// [`CostFn::SEGMENTED_FAST`] (the wavefront's bitwise-equality proof
    /// assumes non-negative costs) and `width ≥ WAVEFRONT_MIN_WIDTH`;
    /// never otherwise.
    #[inline]
    pub(crate) fn wavefront<C: CostFn>(self, width: usize) -> bool {
        match self {
            Kernel::Wavefront => true,
            Kernel::Auto => C::SEGMENTED_FAST && width >= WAVEFRONT_MIN_WIDTH,
            Kernel::Generic | Kernel::Segmented | Kernel::Rle | Kernel::Batched => false,
        }
    }
}

/// Narrowest window, in cells per row
/// ([`SearchWindow::max_row_width`](crate::window::SearchWindow::max_row_width)),
/// at which [`Kernel::Auto`] evaluates a distance-only windowed call in
/// wavefront order.
///
/// A property of the input shape, not a tuning knob. Measured as
/// segmented ÷ wavefront time per cell on Sakoe–Chiba bands: on an idle
/// core the wavefront wins from width 33 (1.36–1.41×, 2.2–2.3× at width
/// 401). Its gain is issue slots the latency-bound row sweep leaves idle,
/// so it shrinks when another thread shares the physical core: in the
/// slowest tenth of 30 ms slices it is 0.83–1.02× at widths 33–49,
/// 1.05–1.13× at 77 and 1.18–1.24× from 129, while its time per cell
/// swings up to 2× with that load and the row sweep's stays within
/// ~1.25×. From 129 the wavefront wins clearly either way
/// (DESIGN.md §16).
pub const WAVEFRONT_MIN_WIDTH: usize = 129;

// Encoded Kernel for the process-wide default: 0 = Auto, 1 = Generic,
// 2 = Segmented, 3 = Rle, 4 = Wavefront, 5 = Batched.
static DEFAULT_KERNEL: AtomicU8 = AtomicU8::new(0);

/// Sets the process-wide default tier used by the plain (non-`_kernel`)
/// DP entry points. Affects every thread; intended for program start-up
/// (CLI flag parsing), not for per-call selection — use the `*_kernel`
/// variants for that.
pub fn set_default_kernel(kernel: Kernel) {
    let code = match kernel {
        Kernel::Auto => 0,
        Kernel::Generic => 1,
        Kernel::Segmented => 2,
        Kernel::Rle => 3,
        Kernel::Wavefront => 4,
        Kernel::Batched => 5,
    };
    DEFAULT_KERNEL.store(code, Ordering::Relaxed);
}

/// The current process-wide default tier ([`Kernel::Auto`] unless
/// [`set_default_kernel`] was called).
#[inline]
pub fn default_kernel() -> Kernel {
    match DEFAULT_KERNEL.load(Ordering::Relaxed) {
        1 => Kernel::Generic,
        2 => Kernel::Segmented,
        3 => Kernel::Rle,
        4 => Kernel::Wavefront,
        5 => Kernel::Batched,
        _ => Kernel::Auto,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{AbsoluteCost, Rooted, SquaredCost};

    #[derive(Clone, Copy)]
    struct OptOutCost;
    impl CostFn for OptOutCost {
        fn cost(&self, a: f64, b: f64) -> f64 {
            (a - b).abs().sqrt()
        }
    }

    #[test]
    fn auto_resolves_via_cost_opt_in() {
        assert!(Kernel::Auto.segmented::<SquaredCost>());
        assert!(Kernel::Auto.segmented::<AbsoluteCost>());
        assert!(Kernel::Auto.segmented::<Rooted<SquaredCost>>());
        assert!(!Kernel::Auto.segmented::<OptOutCost>());
        assert!(!Kernel::Auto.segmented::<Rooted<OptOutCost>>());
    }

    #[test]
    fn explicit_tiers_override_the_cost() {
        assert!(!Kernel::Generic.segmented::<SquaredCost>());
        assert!(Kernel::Segmented.segmented::<OptOutCost>());
        // Rle / Wavefront / Batched degrade to the Auto resolution in
        // row-sweep contexts.
        assert!(Kernel::Rle.segmented::<SquaredCost>());
        assert!(!Kernel::Rle.segmented::<OptOutCost>());
        assert!(Kernel::Wavefront.segmented::<SquaredCost>());
        assert!(!Kernel::Wavefront.segmented::<OptOutCost>());
        assert!(Kernel::Batched.segmented::<SquaredCost>());
        assert!(!Kernel::Batched.segmented::<OptOutCost>());
    }

    #[test]
    fn auto_takes_the_wavefront_from_the_crossover_width() {
        let w = WAVEFRONT_MIN_WIDTH;
        assert!(!Kernel::Auto.wavefront::<SquaredCost>(w - 1));
        assert!(Kernel::Auto.wavefront::<SquaredCost>(w));
        assert!(Kernel::Auto.wavefront::<AbsoluteCost>(w + 1));
        assert!(Kernel::Auto.wavefront::<Rooted<SquaredCost>>(w));
        // Opted-out costs stay on the row sweep at any width.
        assert!(!Kernel::Auto.wavefront::<OptOutCost>(w));
        assert!(!Kernel::Auto.wavefront::<OptOutCost>(usize::MAX));
        // Explicit tiers ignore the width.
        assert!(Kernel::Wavefront.wavefront::<SquaredCost>(1));
        assert!(Kernel::Wavefront.wavefront::<OptOutCost>(1));
        for k in [
            Kernel::Generic,
            Kernel::Segmented,
            Kernel::Rle,
            Kernel::Batched,
        ] {
            assert!(!k.wavefront::<SquaredCost>(usize::MAX), "{k:?}");
        }
    }

    #[test]
    fn parse_and_name_round_trip() {
        // Over the single-source table, so a tier added to the enum but
        // not to ALL (or vice versa) fails here.
        for &(k, name, summary) in Kernel::ALL {
            assert_eq!(Kernel::parse(k.name()), Some(k));
            assert_eq!(k.name(), name);
            assert!(!summary.is_empty());
        }
        assert_eq!(Kernel::ALL.len(), 6);
        assert_eq!(Kernel::parse("simd"), None);
        assert_eq!(Kernel::parse(""), None);
        assert_eq!(
            Kernel::name_list(),
            "auto, generic, segmented, rle, wavefront, batched"
        );
    }

    #[test]
    fn default_is_auto() {
        // Other tests in the workspace never mutate the global (they use
        // the explicit `_kernel` variants), so this is race-free. The
        // set/get atomic round-trip over every tier is covered by the
        // CLI `--kernel` test, which owns the global for its process.
        assert_eq!(default_kernel(), Kernel::Auto);
    }
}
