//! The exact DTW kernels: full, banded (Sakoe–Chiba) and arbitrarily
//! windowed dynamic programming, plus the early-abandoning variant used by
//! repeated-measurement workloads.
//!
//! Module map:
//!
//! * [`full`] — unconstrained DTW (`cDTW_100` in the paper's notation).
//! * [`banded`] — `cDTW_w`: DTW constrained to a Sakoe–Chiba band. This is
//!   "the algorithm FastDTW approximates is slower than" — the paper's
//!   protagonist.
//! * [`windowed`] — DTW over an arbitrary [`SearchWindow`]; both of the
//!   above reduce to it, and FastDTW's refinement step *is* it.
//! * [`early_abandon`] — banded DTW that gives up as soon as the best
//!   possible alignment already exceeds a best-so-far, one of the
//!   "cDTW-only" optimizations of Rakthanmanon et al. the paper credits
//!   with two to five further orders of magnitude.
//!
//! All of these fill their rows through the one row sweep in the private
//! `sweep` module. [`kernel`] routes distance calls by their input
//! (`Kernel::Auto`) or pins a route (`Segmented | Wavefront`), with
//! a bitwise-equality guarantee between routes. The private `wavefront`
//! module evaluates the windowed DP in anti-diagonal lane order, and
//! [`batch`] runs up to [`batch::LANES`] same-length candidates against
//! one query in struct-of-lanes layout — the shape of the mining scans.
//!
//! [`SearchWindow`]: crate::window::SearchWindow

pub mod banded;
pub mod batch;
pub mod early_abandon;
pub mod full;
pub mod kernel;
pub(crate) mod sweep;
pub(crate) mod wavefront;
pub mod windowed;

pub use banded::{cdtw_distance, cdtw_with_path, percent_to_band};
pub use early_abandon::cdtw_distance_ea;
pub use full::{dtw_distance, dtw_with_path};
pub use kernel::Kernel;
pub use windowed::{windowed_distance, windowed_with_path};
