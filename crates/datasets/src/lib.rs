//! # tsdtw-datasets — deterministic synthetic substrates for the Wu & Keogh
//! reproduction
//!
//! Every dataset used by the paper's evaluation, rebuilt as a seeded
//! generator (see DESIGN.md §4 for the substitution argument dataset by
//! dataset):
//!
//! * [`random_walk`] — the Fig. 4 timing substrate;
//! * [`gesture`] — UWave-like labeled gestures (Fig. 1, Appendix B);
//! * [`music`] — studio/live performance pairs (Case B, §3.2);
//! * [`power`] — dishwasher power-demand mornings (Fig. 3, Case C);
//! * [`fall`] — the early/late fall pairs of Fig. 5/6;
//! * [`adversarial`] — the PAA-inversion pair of Table 2 / Appendix A;
//! * [`cbf`] — Cylinder–Bell–Funnel, a classic labeled generator;
//! * [`two_patterns`] — Two-Patterns-style labeled generator;
//! * [`ecg`] — synthetic PQRST beats and rhythm strips (Case D's
//!   cardiology discussion);
//! * [`suite`] — a 128-dataset UCR-archive-like suite (Fig. 2);
//! * [`ucr_format`] — I/O for real UCR archive files, if you have them.
//!
//! All generators take explicit `u64` seeds and are bit-for-bit
//! reproducible.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod adversarial;
pub mod cbf;
pub mod ecg;
pub mod fall;
pub mod gesture;
pub mod music;
pub mod power;
pub mod random_walk;
pub mod rng;
pub mod suite;
pub mod two_patterns;
pub mod types;
pub mod ucr_format;
pub mod warp;

pub use rng::SeededRng;
pub use types::LabeledDataset;
