//! Table 2 + Fig. 7 + Fig. 8 + Appendix A — the accuracy catastrophe:
//! three series whose Full-DTW and FastDTW_20 distance matrices produce
//! different dendrograms, with a headline approximation error in the
//! hundreds of thousands of percent.
//!
//! Paper's matrices (rooted distances): Full DTW has d(A,B) = 0.020 with
//! d(A,C) = 6.822, d(B,C) = 6.848; FastDTW_20 blows d(A,B) up to 31.24 —
//! an error of 156,100 %. The claims under test: d(A,B) is tiny and far
//! below d(·,C) under Full DTW, explodes past d(·,C) under FastDTW_20,
//! and the clustering flips.

use tsdtw_core::cost::{Rooted, SquaredCost};
use tsdtw_core::dtw::full::dtw_distance;
use tsdtw_core::fastdtw::fastdtw_distance;
use tsdtw_datasets::adversarial::trio;
use tsdtw_mining::cluster::{agglomerative, Linkage};
use tsdtw_mining::pairwise::DistanceMatrix;

use tsdtw_mining::ParConfig;

use crate::report::{Report, Scale};

struct Record {
    full: [[f64; 3]; 3],
    fast20: [[f64; 3]; 3],
    error_percent: f64,
    /// d(A,B) under the *reference* FastDTW_20 — the blowup is structural,
    /// not an artifact of either implementation.
    ref_ab: f64,
    ref_error_percent: f64,
    full_first_pair: (usize, usize),
    fast_first_pair: (usize, usize),
    dendrograms_differ: bool,
}

tsdtw_obs::impl_to_json!(Record {
    full,
    fast20,
    error_percent,
    ref_ab,
    ref_error_percent,
    full_first_pair,
    fast_first_pair,
    dendrograms_differ
});

fn matrix<F: Fn(&[f64], &[f64]) -> f64>(series: &[&[f64]; 3], d: F) -> [[f64; 3]; 3] {
    let mut m = [[0.0; 3]; 3];
    for i in 0..3 {
        for j in (i + 1)..3 {
            let v = d(series[i], series[j]);
            m[i][j] = v;
            m[j][i] = v;
        }
    }
    m
}

/// Runs the experiment.
pub fn run(_scale: &Scale, _par: &ParConfig) -> Report {
    let t = trio();
    let series: [&[f64]; 3] = [&t.a, &t.b, &t.c];
    let cost = Rooted(SquaredCost); // the paper's Table 2 is in rooted units

    let full = matrix(&series, |x, y| dtw_distance(x, y, cost).expect("valid"));
    let fast20 = matrix(&series, |x, y| {
        fastdtw_distance(x, y, 20, cost).expect("valid")
    });

    let error_percent = 100.0 * (fast20[0][1] - full[0][1]) / full[0][1];
    let ref_ab = tsdtw_core::fastdtw::fastdtw_ref_distance(&t.a, &t.b, 20, cost).expect("valid");
    let ref_error_percent = 100.0 * (ref_ab - full[0][1]) / full[0][1];

    let to_dm = |m: &[[f64; 3]; 3]| {
        DistanceMatrix::from_triples(3, &[(0, 1, m[0][1]), (0, 2, m[0][2]), (1, 2, m[1][2])])
    };
    let full_tree = agglomerative(&to_dm(&full), Linkage::Average).expect("3 leaves");
    let fast_tree = agglomerative(&to_dm(&fast20), Linkage::Average).expect("3 leaves");
    let full_pair = full_tree.first_pair().expect("first merge joins leaves");
    let fast_pair = fast_tree.first_pair().expect("first merge joins leaves");

    let record = Record {
        full,
        fast20,
        error_percent,
        ref_ab,
        ref_error_percent,
        full_first_pair: full_pair,
        fast_first_pair: fast_pair,
        dendrograms_differ: full_pair != fast_pair,
    };

    let mut rep = Report::new(
        "table2",
        "Table 2 / Fig. 7: adversarial trio under Full DTW vs FastDTW_20 (rooted distances)",
        &record,
    );
    let names = ["A", "B", "C"];
    for (label, m) in [("Full DTW", &record.full), ("FastDTW_20", &record.fast20)] {
        rep.line(format!("{label}:"));
        rep.line(format!("{:>10}{:>10}{:>10}{:>10}", "", "A", "B", "C"));
        for i in 0..3 {
            rep.line(format!(
                "{:>10}{:>10.3}{:>10.3}{:>10.3}",
                names[i], m[i][0], m[i][1], m[i][2]
            ));
        }
    }
    rep.line(format!(
        "FastDTW_20 (tuned) error on d(A,B): {:.0}%  [paper: 156,100%]",
        record.error_percent
    ));
    rep.line(format!(
        "FastDTW_20 (reference) d(A,B) = {:.3}, error {:.0}% — the failure is structural",
        record.ref_ab, record.ref_error_percent
    ));
    rep.line(format!(
        "Full DTW dendrogram pairs {{{}, {}}} first; FastDTW_20 pairs {{{}, {}}} first -> trees {}",
        names[record.full_first_pair.0],
        names[record.full_first_pair.1],
        names[record.fast_first_pair.0],
        names[record.fast_first_pair.1],
        if record.dendrograms_differ {
            "DIFFER (the Fig. 7 flip)"
        } else {
            "agree"
        }
    ));
    rep.line("Full DTW tree:".to_string());
    for l in full_tree.render_ascii(&names).lines() {
        rep.line(format!("  {l}"));
    }
    rep.line("FastDTW_20 tree:".to_string());
    for l in fast_tree.render_ascii(&names).lines() {
        rep.line(format!("  {l}"));
    }
    rep.attach(
        "work",
        super::common::work_sample(&t.a, &t.b, Some(100.0), Some(20)),
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_the_catastrophe() {
        let rep = run(&Scale::Quick, &ParConfig::serial());
        let v = &rep.json;
        let full_ab = v["full"][0][1].as_f64().unwrap();
        let full_ac = v["full"][0][2].as_f64().unwrap();
        let fast_ab = v["fast20"][0][1].as_f64().unwrap();
        assert!(full_ab < 0.5, "A,B near-twins under Full DTW: {full_ab}");
        assert!(full_ac > 2.0 * full_ab, "C is far: {full_ac}");
        assert!(fast_ab > full_ac, "FastDTW pushes A past C: {fast_ab}");
        assert!(
            v["error_percent"].as_f64().unwrap() > 1_000.0,
            "error must be >1,000%: {}",
            v["error_percent"]
        );
        assert!(
            v["ref_error_percent"].as_f64().unwrap() > 1_000.0,
            "the reference implementation must fail the same way: {}",
            v["ref_error_percent"]
        );
        assert!(v["dendrograms_differ"].as_bool().unwrap());
    }
}
