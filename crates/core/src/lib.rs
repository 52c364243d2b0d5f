//! # tsdtw-core — exact and approximate Dynamic Time Warping
//!
//! The algorithmic heart of the `tsdtw` workspace, which reproduces
//! Wu & Keogh, *"FastDTW is approximate and Generally Slower than the
//! Algorithm it Approximates"* (ICDE 2021). It provides, under one roof
//! and sharing a single DP inner loop:
//!
//! * **Full DTW** — [`dtw()`], [`dtw::full`](mod@dtw::full);
//! * **Constrained DTW** (`cDTW_w`, Sakoe–Chiba band) — [`cdtw()`],
//!   [`dtw::banded`](mod@dtw::banded), with `w` in the paper's percentage
//!   convention;
//! * **FastDTW** (Salvador & Chan 2007) — [`fastdtw()`] (tuned) and
//!   [`fastdtw::reference`](mod@fastdtw::reference) (the canonical
//!   implementation);
//! * the **UCR-suite acceleration stack** that only the exact algorithm can
//!   use: z-normalization ([`norm`]), Lemire envelopes ([`envelope`]),
//!   LB_Kim / LB_Keogh / LB_Improved and the pruning cascade
//!   ([`lower_bounds`]), and early-abandoning DTW
//!   ([`dtw::early_abandon`]).
//!
//! ## Observability
//!
//! Every kernel has a `*_metered` twin taking a
//! [`tsdtw_obs::Meter`]: DP cells evaluated vs. admissible
//! window cells, FastDTW per-level windows, lower-bound and envelope
//! invocations, cascade prune tallies, early-abandon row counts, and
//! peak DP-buffer bytes. The meter is a monomorphized generic whose
//! no-op default ([`obs::NoMeter`], what the plain entry points pass)
//! compiles to the uninstrumented code. Kernels also open timing spans
//! ([`obs::span`]), which record only while a consumer arms them (a
//! flight recorder, or [`obs::arm_spans`] for `--stats` and
//! `--profile`); disarmed, each costs one atomic load.
//!
//! ## Conventions
//!
//! * Series are `&[f64]`; all kernels validate for emptiness and
//!   non-finite values and return [`error::Result`].
//! * The default local cost is the squared difference and reported
//!   distances are accumulated costs (no square root), matching the UCR
//!   archive; wrap a cost in [`cost::Rooted`] for rooted values.
//! * Warping constraints: `w` (a *percentage* of series length, the
//!   paper's convention) converts to a cell radius via
//!   [`dtw::banded::percent_to_band`]. FastDTW's `radius` is in cells at
//!   each resolution level, exactly as in the original paper — the two
//!   parameters are *not* comparable, as the paper is at pains to note.
//!
//! ## Example
//!
//! ```
//! use tsdtw_core::{dtw, cdtw, fastdtw};
//!
//! let x: Vec<f64> = (0..128).map(|i| (i as f64 * 0.1).sin()).collect();
//! let y: Vec<f64> = (0..128).map(|i| (i as f64 * 0.1 + 0.4).sin()).collect();
//!
//! let exact_full = dtw(&x, &y).unwrap();
//! let exact_banded = cdtw(&x, &y, 10.0).unwrap(); // w = 10 % of N
//! let approx = fastdtw(&x, &y, 10).unwrap();      // r = 10 cells
//!
//! assert!(exact_full <= exact_banded);
//! assert!(exact_full <= approx + 1e-12);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod cost;
pub mod distance;
pub mod dtw;
pub mod envelope;
pub mod error;
pub mod fastdtw;
pub mod lower_bounds;
pub mod matrix;
pub mod norm;
pub mod paa;
pub mod path;
pub mod window;

/// Re-export of the work-accounting crate, so downstream users can name
/// [`obs::Meter`], [`obs::NoMeter`], and [`obs::WorkMeter`] without a
/// separate dependency on `tsdtw-obs`.
pub use tsdtw_obs as obs;

pub use cost::{AbsoluteCost, CostFn, Rooted, SquaredCost};
pub use distance::{cdtw, dtw, euclidean, fastdtw, sq_euclidean};
pub use dtw::kernel::Kernel;
pub use envelope::Envelope;
pub use error::{Error, Result};
pub use fastdtw::{
    fastdtw_distance, fastdtw_distance_metered, fastdtw_metered, fastdtw_ref_distance,
    fastdtw_ref_metered, fastdtw_ref_with_path, fastdtw_with_path, fastdtw_with_stats,
    FastDtwStats,
};
pub use path::WarpingPath;
pub use window::SearchWindow;
