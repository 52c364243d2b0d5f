//! # tsdtw-mining — the tasks the paper measures, built on exact DTW
//!
//! Repeated-measurement workloads are where the paper's argument lands
//! hardest: for one-off comparisons FastDTW is merely slower than `cDTW`;
//! for 1-NN classification, similarity search and clustering, the exact
//! pipeline additionally gets lower bounds and early abandoning — "a
//! further two to five orders of magnitude" (§3.4) — which the
//! approximation structurally cannot use.
//!
//! * [`knn`] — 1-NN classification (brute-force and cascaded), LOOCV;
//! * [`wselect`] — brute-force optimal-warping-window search (Fig. 2a);
//! * [`search`] — UCR-suite-style subsequence search (the trillion-point
//!   footnote);
//! * [`pairwise`] — parallel all-pairs distance matrices (Fig. 1, Fig. 4);
//! * [`cluster`] — hierarchical dendrograms (Fig. 7);
//! * [`anomaly`] — discord discovery (extension);
//! * [`motif`] — motif (closest-pair) discovery (extension);
//! * [`par`] — the deterministic executor every scan above runs on.
//!
//! Each task is written once, as its `*_par` form on the executor, which
//! takes a [`ParConfig`]. The serial name runs that same code at one
//! worker, inline on the caller's thread: the independent-item tasks at
//! [`ParConfig::serial`], the best-so-far-pruned scans (1-NN cascade,
//! subsequence search, motif, discord) with the bound refreshed after
//! every item. Answers and work counters are bitwise identical at every
//! thread count.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod anomaly;
pub mod cluster;
pub mod dataset_views;
pub mod knn;
pub mod motif;
pub mod pairwise;
pub mod par;
pub mod search;
pub mod wselect;

pub use dataset_views::LabeledView;
pub use knn::{
    classify_knn, evaluate_split, evaluate_split_par, knn_brute_force, loocv_error,
    loocv_error_cdtw_fast, loocv_error_cdtw_fast_par, DistanceSpec, NnResult,
};
pub use pairwise::{pair_count, pairwise_matrix, pairwise_matrix_par, DistanceMatrix};
pub use par::{par_fold_argmin, par_map, ParConfig, DEFAULT_CHUNK};
pub use search::{
    distance_profile, distance_profile_par, subsequence_search, subsequence_search_par,
    top_k_matches, top_k_matches_par, Match, SearchResult,
};
pub use wselect::{integer_grid, optimal_window, optimal_window_par, WindowSearch};
