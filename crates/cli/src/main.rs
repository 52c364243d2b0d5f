//! `tsdtw` — command-line time-series toolkit over the tsdtw libraries.
//!
//! ```text
//! tsdtw dist      two-series distance (dtw/cdtw/fastdtw/fastdtw-ref/euclidean)
//! tsdtw classify  1-NN classification of UCR-format files, with LOOCV window learning
//! tsdtw search    UCR-style subsequence search with pruning statistics
//! tsdtw window    brute-force optimal-warping-window search (the Fig. 2a procedure)
//! tsdtw cluster   hierarchical clustering under cDTW
//! tsdtw generate  write this workspace's synthetic datasets to disk
//! tsdtw report    perf-trajectory tooling (diff gate, trend gate, show, flame)
//! tsdtw help [command]
//! ```

mod args;
mod commands;
mod io;
mod stats;

use std::process::ExitCode;

const TOP_HELP: &str = "\
tsdtw — exact & approximate DTW toolkit (see `tsdtw help <command>`)

commands:
  dist      distance between two series files
  classify  1-NN classification of UCR-format train/test files
  search    subsequence search of a query in a long series
  window    optimal warping window search by LOOCV
  cluster   clustering of a UCR-format file
  motif     closest pair of subsequences in a series
  discord   most anomalous subsequence in a series
  bakeoff   Euclidean vs cDTW vs FastDTW 1-NN accuracy over an archive directory
  generate  synthetic dataset generation
  report    perf-trajectory tooling: diff (pairwise regression gate),
            trend (noise-aware drift gate over results/history/), show,
            flame (render collapsed profile stacks)
  help      this message, or per-command help";

fn command_help(name: &str) -> Option<&'static str> {
    match name {
        "dist" => Some(commands::dist::HELP),
        "classify" => Some(commands::classify::HELP),
        "search" => Some(commands::search::HELP),
        "window" => Some(commands::window::HELP),
        "cluster" => Some(commands::cluster::HELP),
        "motif" => Some(commands::mine::HELP_MOTIF),
        "discord" => Some(commands::mine::HELP_DISCORD),
        "bakeoff" => Some(commands::bakeoff::HELP),
        "generate" => Some(commands::generate::HELP),
        "report" => Some(commands::report::HELP),
        _ => None,
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first() else {
        println!("{TOP_HELP}");
        return ExitCode::SUCCESS;
    };
    let rest = &argv[1..];

    let result = match command.as_str() {
        "dist" => commands::dist::run(rest),
        "classify" => commands::classify::run(rest),
        "search" => commands::search::run(rest),
        "window" => commands::window::run(rest),
        "cluster" => commands::cluster::run(rest),
        "motif" => commands::mine::run_motif(rest),
        "discord" => commands::mine::run_discord(rest),
        "bakeoff" => commands::bakeoff::run(rest),
        "generate" => commands::generate::run(rest),
        "report" => commands::report::run(rest),
        "help" | "--help" | "-h" => {
            match rest.first().and_then(|n| command_help(n)) {
                Some(h) => println!("{h}"),
                None => println!("{TOP_HELP}"),
            }
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("unknown command {other:?}\n{TOP_HELP}");
            return ExitCode::FAILURE;
        }
    };

    match result {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            if let Some(h) = command_help(command) {
                eprintln!("\n{h}");
            }
            ExitCode::FAILURE
        }
    }
}
