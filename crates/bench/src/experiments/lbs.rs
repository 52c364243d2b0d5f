//! `lbs` — lower-bound tightness (an extension beyond the paper's
//! artifacts).
//!
//! §3.4's "two to five further orders of magnitude" rests on how much of
//! the exact distance the cheap bounds recover: a bound with tightness
//! 0.9 prunes nearly everything once a good best-so-far exists. This
//! experiment tabulates mean tightness (`lb / cDTW_w`, in [0, 1]) of each
//! bound on two substrates — raw random walks and z-normalized gesture
//! data — at the archive-typical w = 5 %.

use tsdtw_core::cost::SquaredCost;
use tsdtw_core::dtw::banded::{cdtw_distance, percent_to_band};
use tsdtw_core::envelope::Envelope;
use tsdtw_core::lower_bounds::improved::lb_improved;
use tsdtw_core::lower_bounds::keogh::lb_keogh;
use tsdtw_core::lower_bounds::kim::lb_kim_hierarchy;
use tsdtw_core::lower_bounds::yi::lb_yi_symmetric;
use tsdtw_core::norm::znorm;
use tsdtw_datasets::gesture::{uwave_like, GestureConfig};
use tsdtw_datasets::random_walk::random_walks;

use tsdtw_mining::ParConfig;

use crate::report::{Report, Scale};

struct Row {
    substrate: String,
    bound: String,
    mean_tightness: f64,
    max_tightness: f64,
}

tsdtw_obs::impl_to_json!(Row {
    substrate,
    bound,
    mean_tightness,
    max_tightness
});

struct Record {
    n: usize,
    w_percent: f64,
    pairs: usize,
    rows: Vec<Row>,
}

tsdtw_obs::impl_to_json!(Record {
    n,
    w_percent,
    pairs,
    rows
});

fn tightness_rows(name: &str, pool: &[Vec<f64>], band: usize, rows: &mut Vec<Row>) {
    let mut sums = [0.0f64; 4];
    let mut maxs = [0.0f64; 4];
    let mut count = 0usize;
    for i in 0..pool.len() {
        let env = Envelope::new(&pool[i], band).expect("valid");
        for j in 0..pool.len() {
            if i == j {
                continue;
            }
            let exact = cdtw_distance(&pool[i], &pool[j], band, SquaredCost).expect("valid");
            if exact <= 0.0 {
                continue;
            }
            let vals = [
                lb_kim_hierarchy(&pool[i], &pool[j], f64::INFINITY).expect("valid"),
                lb_keogh(&pool[j], &env).expect("valid"),
                lb_improved(&pool[i], &pool[j], &env, band).expect("valid"),
                lb_yi_symmetric(&pool[i], &pool[j]).expect("valid"),
            ];
            for (k, v) in vals.iter().enumerate() {
                let t = v / exact;
                sums[k] += t;
                maxs[k] = maxs[k].max(t);
            }
            count += 1;
        }
    }
    for (k, bound) in ["LB_Kim", "LB_Keogh", "LB_Improved", "LB_Yi"]
        .iter()
        .enumerate()
    {
        rows.push(Row {
            substrate: name.into(),
            bound: bound.to_string(),
            mean_tightness: sums[k] / count as f64,
            max_tightness: maxs[k],
        });
    }
}

/// Runs the experiment.
pub fn run(scale: &Scale, _par: &ParConfig) -> Report {
    let n = 128;
    let w = 5.0;
    let band = percent_to_band(n, w).expect("valid w");
    let pool_size = scale.pick(12, 40);

    let walks: Vec<Vec<f64>> = random_walks(pool_size, n, 0x1B5)
        .expect("generator")
        .iter()
        .map(|s| znorm(s).expect("normalizable"))
        .collect();
    let gestures: Vec<Vec<f64>> = {
        let config = GestureConfig {
            length: n,
            n_classes: 4,
            per_class: pool_size / 4,
            max_shift: 6.0,
            noise_std: 0.1,
            amp_jitter: 0.1,
        };
        uwave_like(&config, 0x1B6)
            .expect("generator")
            .series
            .iter()
            .map(|s| znorm(s).expect("normalizable"))
            .collect()
    };

    let mut rows = Vec::new();
    tightness_rows("random-walk (znorm)", &walks, band, &mut rows);
    tightness_rows("gestures (znorm)", &gestures, band, &mut rows);

    let record = Record {
        n,
        w_percent: w,
        pairs: pool_size * (pool_size - 1),
        rows,
    };

    let mut rep = Report::new(
        "lbs",
        format!(
            "Extension: lower-bound tightness at N={n}, w={w}% ({} ordered pairs per substrate)",
            record.pairs
        ),
        &record,
    );
    rep.line(format!(
        "{:<22}{:<14}{:>16}{:>16}",
        "substrate", "bound", "mean lb/cDTW", "max lb/cDTW"
    ));
    for r in &record.rows {
        rep.line(format!(
            "{:<22}{:<14}{:>16.3}{:>16.3}",
            r.substrate, r.bound, r.mean_tightness, r.max_tightness
        ));
    }
    rep.line(
        "reading: tightness near 1 = almost-free pruning; LB_Improved dominates LB_Keogh \
         by construction; none of these exist for FastDTW."
            .to_string(),
    );
    // The work section meters a full cascaded 1-NN pass over the walk
    // pool, so the JSON records the lower-bound invocations and prune
    // tallies these bounds buy in practice.
    let mut cascade = tsdtw_core::lower_bounds::Cascade::new(&walks[0], band).expect("valid query");
    let mut meter = tsdtw_core::obs::WorkMeter::new();
    let mut bsf = f64::INFINITY;
    for c in &walks[1..] {
        if let Some(d) = cascade
            .evaluate_metered(c, bsf, &mut meter)
            .expect("valid candidate")
            .exact_distance()
        {
            bsf = bsf.min(d);
        }
    }
    rep.attach("work", meter.report());
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tightness_is_a_valid_fraction_and_improved_dominates() {
        let rep = run(&Scale::Quick, &ParConfig::serial());
        let rows = rep.json["rows"].as_array().unwrap();
        assert_eq!(rows.len(), 8);
        for r in rows {
            let mean = r["mean_tightness"].as_f64().unwrap();
            let max = r["max_tightness"].as_f64().unwrap();
            assert!((0.0..=1.0 + 1e-9).contains(&mean), "{r}");
            assert!(max <= 1.0 + 1e-9, "{r}");
        }
        // LB_Improved >= LB_Keogh in the mean, per substrate.
        for chunk in rows.chunks(4) {
            let keogh = chunk[1]["mean_tightness"].as_f64().unwrap();
            let improved = chunk[2]["mean_tightness"].as_f64().unwrap();
            assert!(improved >= keogh - 1e-12);
        }
    }
}
