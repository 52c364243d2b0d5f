//! # tsdtw-bench — the reproduction harness
//!
//! One module per figure/table of Wu & Keogh (ICDE 2021); each exposes
//! `run(&Scale) -> Report`. The `repro` binary drives them and writes both
//! human-readable output and JSON records (under `results/`) so
//! EXPERIMENTS.md is regenerable.
//!
//! Timing discipline: both algorithms always run in the same process, same
//! thread count, same data, interleaved — the paper's "same language, same
//! hardware, performing the same task". Absolute numbers will differ from
//! the paper's 2020 hardware; the claims under test are *shape* claims
//! (who is faster, by what factor, where crossovers fall).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod history;
pub mod report;
pub mod snapshot;
pub mod timing;
pub mod trend;

pub use report::{write_atomic, Report, Scale};
