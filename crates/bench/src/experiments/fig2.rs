//! Fig. 2 — distributions over a 128-dataset UCR-like suite: (a) the
//! optimal 1-NN warping window found by brute-force LOOCV search, (b) the
//! dataset lengths.
//!
//! Expected shape (paper): lengths mostly below 1,000; optimal `w` rarely
//! above 10 %.

use tsdtw_datasets::suite::{generate_suite, SuiteConfig};
use tsdtw_mining::dataset_views::LabeledView;
use tsdtw_mining::wselect::{integer_grid, optimal_window};

use tsdtw_mining::ParConfig;

use crate::report::{Report, Scale};

struct Record {
    n_datasets: usize,
    optimal_w: Vec<f64>,
    lengths: Vec<usize>,
    w_histogram: Vec<(String, usize)>,
    length_histogram: Vec<(String, usize)>,
    frac_w_at_most_10: f64,
    frac_len_below_1000: f64,
}

tsdtw_obs::impl_to_json!(Record {
    n_datasets,
    optimal_w,
    lengths,
    w_histogram,
    length_histogram,
    frac_w_at_most_10,
    frac_len_below_1000
});

fn histogram<T: Copy, F: Fn(T) -> usize>(
    values: &[T],
    bins: &[&str],
    bin_of: F,
) -> Vec<(String, usize)> {
    let mut counts = vec![0usize; bins.len()];
    for &v in values {
        counts[bin_of(v).min(bins.len() - 1)] += 1;
    }
    bins.iter().map(|s| s.to_string()).zip(counts).collect()
}

/// Runs the experiment.
pub fn run(scale: &Scale, _par: &ParConfig) -> Report {
    let config = SuiteConfig {
        n_datasets: scale.pick(24, 128),
        exemplars: scale.pick(12, 24),
        length_scale: scale.pick(0.25, 1.0),
    };
    let suite = generate_suite(&config, 0xF162).expect("generator");
    let grid = integer_grid(20);

    let mut optimal_w = Vec::with_capacity(suite.len());
    let mut lengths = Vec::with_capacity(suite.len());
    for entry in &suite {
        let view = LabeledView::new(&entry.data.series, &entry.data.labels).expect("valid dataset");
        let res = optimal_window(&view, &grid).expect("window search");
        optimal_w.push(res.best_w_percent);
        lengths.push(entry.data.series_len());
    }

    let w_bins = ["0-2%", "3-5%", "6-10%", "11-15%", "16-20%"];
    let w_hist = histogram(&optimal_w, &w_bins, |w| match w as usize {
        0..=2 => 0,
        3..=5 => 1,
        6..=10 => 2,
        11..=15 => 3,
        _ => 4,
    });
    // Length bins follow Fig. 2 (b)'s axis; under Quick's length_scale the
    // same bins are scaled down proportionally.
    let len_scale = config.length_scale;
    let b = |x: f64| (x * len_scale) as usize;
    let len_bins = ["<250", "250-500", "500-1000", "1000-2000", ">=2000"];
    let (b250, b500, b1000, b2000) = (b(250.0), b(500.0), b(1000.0), b(2000.0));
    let len_hist = histogram(&lengths, &len_bins, move |l| {
        if l < b250 {
            0
        } else if l < b500 {
            1
        } else if l < b1000 {
            2
        } else if l < b2000 {
            3
        } else {
            4
        }
    });

    let frac_w = optimal_w.iter().filter(|&&w| w <= 10.0).count() as f64 / optimal_w.len() as f64;
    let frac_len = lengths.iter().filter(|&&l| l < b1000).count() as f64 / lengths.len() as f64;

    let record = Record {
        n_datasets: suite.len(),
        optimal_w,
        lengths,
        w_histogram: w_hist,
        length_histogram: len_hist,
        frac_w_at_most_10: frac_w,
        frac_len_below_1000: frac_len,
    };

    let mut rep = Report::new(
        "fig2",
        format!(
            "Fig. 2: optimal-w and length distributions over {} UCR-like datasets \
             (brute-force LOOCV, w ∈ 0..20%)",
            record.n_datasets
        ),
        &record,
    );
    rep.line("(a) optimal warping window:");
    for (bin, count) in &record.w_histogram {
        rep.line(format!(
            "    {:<9} {:>4}  {}",
            bin,
            count,
            "#".repeat(*count)
        ));
    }
    rep.line("(b) dataset lengths (scaled bins under --quick):");
    for (bin, count) in &record.length_histogram {
        rep.line(format!(
            "    {:<9} {:>4}  {}",
            bin,
            count,
            "#".repeat(*count)
        ));
    }
    rep.line(format!(
        "optimal w <= 10%: {:.0}% of datasets  [paper: 'rarely above 10%']",
        record.frac_w_at_most_10 * 100.0
    ));
    rep.line(format!(
        "length < 1000 (scaled): {:.0}% of datasets  [paper: 'majority ... less than 1,000']",
        record.frac_len_below_1000 * 100.0
    ));
    rep.attach(
        "work",
        super::common::work_sample(
            &suite[0].data.series[0],
            &suite[0].data.series[1],
            Some(record.optimal_w[0]),
            None,
        ),
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reproduces_the_papers_distributions() {
        let rep = run(&Scale::Quick, &ParConfig::serial());
        let v = &rep.json;
        assert!(
            v["frac_w_at_most_10"].as_f64().unwrap() > 0.6,
            "most optimal windows should be small: {}",
            v["frac_w_at_most_10"]
        );
        assert!(
            v["frac_len_below_1000"].as_f64().unwrap() > 0.6,
            "most lengths should be short: {}",
            v["frac_len_below_1000"]
        );
        assert_eq!(v["n_datasets"].as_u64().unwrap(), 24);
    }

    #[test]
    fn histogram_helper_bins_and_saturates() {
        let h = histogram(&[0usize, 1, 5, 99], &["a", "b"], |v| v);
        assert_eq!(h[0].1, 1);
        assert_eq!(h[1].1, 3);
    }
}
