//! `tsdtw bakeoff` — the classic distance-measure bake-off over a
//! directory of UCR-format datasets: Euclidean vs learned-window exact
//! `cDTW` vs reference FastDTW, 1-NN accuracy per dataset.
//!
//! The directory layout follows the UCR archive convention: for every
//! dataset `<Name>`, a pair of files `<Name>_TRAIN.tsv` and
//! `<Name>_TEST.tsv` (or a flat directory of such pairs). This is the
//! paper's Fig. 1/Fig. 2 methodology packaged for whatever data the user
//! has.

use std::path::{Path, PathBuf};

use crate::args::Args;
use tsdtw_core::dtw::banded::percent_to_band;
use tsdtw_datasets::ucr_format::load_ucr_file;
use tsdtw_mining::dataset_views::LabeledView;
use tsdtw_mining::knn::{evaluate_split, DistanceSpec};
use tsdtw_mining::wselect::{integer_grid, optimal_window};

pub const HELP: &str = "\
tsdtw bakeoff --dir DIR [--max-w PCT] [--limit N] [--fastdtw-radius R]
  runs 1-NN with Euclidean, cDTW (window learned by LOOCV on TRAIN) and
  reference FastDTW over every <Name>_TRAIN.tsv/<Name>_TEST.tsv pair in
  DIR (first N datasets alphabetically; default 16)";

/// Dataset name plus its train and test file paths.
type DatasetPair = (String, PathBuf, PathBuf);

/// A discovered train/test pair.
fn discover(dir: &Path) -> Result<Vec<DatasetPair>, Box<dyn std::error::Error>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        for suffix in ["_TRAIN.tsv", "_TRAIN.txt", "_TRAIN"] {
            if let Some(stem) = name.strip_suffix(suffix) {
                let test_name = name.replace("_TRAIN", "_TEST");
                let test_path = dir.join(&test_name);
                if test_path.exists() {
                    out.push((stem.to_string(), path.clone(), test_path));
                }
                break;
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Index of the best accuracy in `[euclidean, cdtw, fastdtw]`; a tie
/// goes to the leftmost, so exact cDTW keeps a tie with the FastDTW that
/// approximates it.
fn winner(acc: [f64; 3]) -> usize {
    (1..acc.len()).fold(0, |best, i| if acc[i] > acc[best] { i } else { best })
}

/// Runs the command, returning the printable result.
pub fn run(raw: &[String]) -> Result<String, Box<dyn std::error::Error>> {
    let args = Args::parse(raw, &["dir", "max-w", "limit", "fastdtw-radius"], &[])?;
    let dir = Path::new(args.required("dir")?);
    let max_w: usize = args.get_or("max-w", 20)?;
    let limit: usize = args.get_or("limit", 16)?;
    let radius: usize = args.get_or("fastdtw-radius", 10)?;

    let pairs = discover(dir)?;
    if pairs.is_empty() {
        return Err(Box::new(crate::args::ArgError(format!(
            "no <Name>_TRAIN.tsv / <Name>_TEST.tsv pairs found in {}",
            dir.display()
        ))));
    }

    let mut out = format!(
        "{:<24}{:>8}{:>8}{:>12}{:>14}{:>14}{:>8}\n",
        "dataset", "train", "len", "euclid acc", "cdtw acc", "fastdtw acc", "w*"
    );
    let mut wins = [0usize; 3];
    for (name, train_p, test_p) in pairs.iter().take(limit) {
        let train = load_ucr_file(train_p)?;
        let test = load_ucr_file(test_p)?;
        let train_view = LabeledView::new(&train.series, &train.labels)?;
        let test_view = LabeledView::new(&test.series, &test.labels)?;

        let search = optimal_window(&train_view, &integer_grid(max_w))?;
        let band = percent_to_band(train.series_len(), search.best_w_percent)?;

        let acc = |spec| -> Result<f64, Box<dyn std::error::Error>> {
            Ok((1.0 - evaluate_split(&train_view, &test_view, spec)?) * 100.0)
        };
        let e = acc(DistanceSpec::Euclidean)?;
        let c = acc(DistanceSpec::CdtwBand(band))?;
        let f = acc(DistanceSpec::FastDtwRef(radius))?;
        wins[winner([e, c, f])] += 1;
        out.push_str(&format!(
            "{:<24}{:>8}{:>8}{:>11.1}%{:>13.1}%{:>13.1}%{:>7}%\n",
            name,
            train.len(),
            train.series_len(),
            e,
            c,
            f,
            search.best_w_percent
        ));
    }
    out.push_str(&format!(
        "wins: euclidean {}, cdtw {}, fastdtw {} (ties count the leftmost)\n",
        wins[0], wins[1], wins[2]
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsdtw_datasets::ucr_format::write_ucr;

    /// A fresh archive per test: tests run in parallel, and a shared
    /// directory lets one test delete the other's files mid-run.
    fn make_archive(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tsdtw-bakeoff-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for (name, seed) in [("Alpha", 1u64), ("Beta", 2u64)] {
            let data = tsdtw_datasets::cbf::dataset(48, 6, seed).unwrap();
            let (train, test) = data.split_stratified(3).unwrap();
            let mut f = std::fs::File::create(dir.join(format!("{name}_TRAIN.tsv"))).unwrap();
            write_ucr(&train, &mut f).unwrap();
            let mut f = std::fs::File::create(dir.join(format!("{name}_TEST.tsv"))).unwrap();
            write_ucr(&test, &mut f).unwrap();
        }
        dir
    }

    fn raw(s: &[&str]) -> Vec<String> {
        s.iter().map(|v| v.to_string()).collect()
    }

    #[test]
    fn runs_over_a_directory_of_dataset_pairs() {
        let dir = make_archive("pairs");
        let out = run(&raw(&[
            "--dir",
            dir.to_str().unwrap(),
            "--max-w",
            "6",
            "--fastdtw-radius",
            "3",
        ]))
        .unwrap();
        assert!(out.contains("Alpha"), "{out}");
        assert!(out.contains("Beta"), "{out}");
        assert!(out.contains("wins:"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn limit_restricts_dataset_count() {
        let dir = make_archive("limit");
        let out = run(&raw(&[
            "--dir",
            dir.to_str().unwrap(),
            "--limit",
            "1",
            "--max-w",
            "4",
            "--fastdtw-radius",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("Alpha") && !out.contains("Beta"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ties_go_to_the_leftmost_measure() {
        assert_eq!(winner([90.0, 90.0, 90.0]), 0, "three-way tie: euclidean");
        assert_eq!(winner([80.0, 95.0, 95.0]), 1, "cDTW keeps its tie");
        assert_eq!(winner([95.0, 80.0, 95.0]), 0);
        assert_eq!(winner([70.0, 80.0, 95.0]), 2, "a strict FastDTW win");
    }

    #[test]
    fn empty_directory_is_a_clean_error() {
        let dir = std::env::temp_dir().join("tsdtw-bakeoff-empty");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(run(&raw(&["--dir", dir.to_str().unwrap()])).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
