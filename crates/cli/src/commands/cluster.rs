//! `tsdtw cluster` — hierarchical clustering of a UCR-format file under
//! `cDTW_w`.

use std::path::Path;

use crate::args::{ArgError, Args};
use tsdtw_core::cost::SquaredCost;
use tsdtw_core::dtw::banded::{cdtw_distance, percent_to_band};
use tsdtw_datasets::ucr_format::load_ucr_file;
use tsdtw_mining::cluster::{agglomerative, Linkage};
use tsdtw_mining::pairwise::pairwise_matrix_par;
use tsdtw_mining::ParConfig;
use tsdtw_obs::NoMeter;

pub const HELP: &str = "\
tsdtw cluster --file FILE --k K [--w PCT] [--linkage single|complete|average]
              [--threads N]
  clusters the series of a UCR-format file (labels are ignored but reported
  against the clustering as a confusion summary)";

/// Runs the command, returning the printable result.
pub fn run(raw: &[String]) -> Result<String, Box<dyn std::error::Error>> {
    let args = Args::parse(raw, &["file", "k", "w", "linkage", "threads"], &[])?;
    let par = ParConfig::new(args.get_or("threads", 2)?)?;
    let data = load_ucr_file(Path::new(args.required("file")?))?;
    let k: usize = args.get_or("k", 2)?;
    let w: f64 = args.get_or("w", 10.0)?;
    let band = percent_to_band(data.series_len(), w)?;

    let matrix = pairwise_matrix_par(&data.series, &par, &mut NoMeter, |a, b, _| {
        cdtw_distance(a, b, band, SquaredCost)
    })?;

    let linkage_name = args.optional("linkage").unwrap_or("average");
    let linkage = match linkage_name {
        "single" => Linkage::Single,
        "complete" => Linkage::Complete,
        "average" => Linkage::Average,
        other => return Err(Box::new(ArgError(format!("unknown linkage {other:?}")))),
    };
    let assignment = agglomerative(&matrix, linkage)?.cut(k)?;

    let mut out = format!(
        "{} series of length {}, k = {k}, w = {w}% ({linkage_name} linkage)\n",
        data.len(),
        data.series_len()
    );
    out.push_str(&format!("assignment: {assignment:?}\n"));

    // Purity against the file's labels (informative only).
    let mut per_cluster: Vec<std::collections::HashMap<usize, usize>> = vec![Default::default(); k];
    for (&c, &l) in assignment.iter().zip(&data.labels) {
        *per_cluster[c].entry(l).or_insert(0) += 1;
    }
    let pure: usize = per_cluster
        .iter()
        .map(|m| m.values().max().copied().unwrap_or(0))
        .sum();
    out.push_str(&format!(
        "purity against file labels: {:.1}%\n",
        pure as f64 / data.len() as f64 * 100.0
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsdtw_datasets::cbf::dataset;
    use tsdtw_datasets::ucr_format::write_ucr;

    /// A fresh directory per test thread (see `classify`'s tests).
    fn setup() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tsdtw-cluster-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dataset(48, 5, 17).unwrap();
        let p = dir.join("data.tsv");
        let mut f = std::fs::File::create(&p).unwrap();
        write_ucr(&data, &mut f).unwrap();
        p
    }

    fn raw(s: &[&str]) -> Vec<String> {
        s.iter().map(|v| v.to_string()).collect()
    }

    #[test]
    fn hierarchical_clustering_reports_purity() {
        let p = setup();
        let out = run(&raw(&[
            "--file",
            p.to_str().unwrap(),
            "--k",
            "3",
            "--w",
            "15",
        ]))
        .unwrap();
        assert!(out.contains("purity"), "{out}");
        assert!(out.contains("assignment"), "{out}");
    }

    #[test]
    fn zero_threads_is_a_clean_error() {
        let p = setup();
        let e = run(&raw(&["--file", p.to_str().unwrap(), "--threads", "0"])).unwrap_err();
        assert!(e.to_string().contains("n_threads"), "{e}");
    }

    #[test]
    fn bad_linkage_is_an_error() {
        let p = setup();
        assert!(run(&raw(&[
            "--file",
            p.to_str().unwrap(),
            "--k",
            "2",
            "--linkage",
            "martian"
        ]))
        .is_err());
    }
}
