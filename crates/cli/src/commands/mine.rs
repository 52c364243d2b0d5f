//! `tsdtw motif` / `tsdtw discord` — closest-pair and most-anomalous
//! subsequence discovery in a plain series file.

use std::path::Path;

use crate::args::Args;
use crate::io::read_series;
use tsdtw_core::dtw::banded::percent_to_band;
use tsdtw_mining::anomaly::top_discord_par;
use tsdtw_mining::motif::top_motif_par;
use tsdtw_mining::ParConfig;

pub const HELP_MOTIF: &str = "\
tsdtw motif --file FILE --m LEN [--w PCT] [--threads N]
  finds the most similar pair of non-overlapping length-LEN windows
  (z-normalized cDTW_w; default w = 5); the result is bitwise identical
  at every --threads value (default 1)";

pub const HELP_DISCORD: &str = "\
tsdtw discord --file FILE --m LEN [--w PCT] [--threads N]
  finds the length-LEN window farthest from its nearest non-overlapping
  neighbor (z-normalized cDTW_w; default w = 5); the result is bitwise
  identical at every --threads value (default 1)";

/// Parsed inputs shared by `motif` and `discord`.
struct MineInput {
    series: Vec<f64>,
    m: usize,
    band: usize,
    par: ParConfig,
}

fn common(raw: &[String]) -> Result<MineInput, Box<dyn std::error::Error>> {
    let args = Args::parse(raw, &["file", "m", "w", "threads"], &[])?;
    let series = read_series(Path::new(args.required("file")?))?;
    let m: usize = args.get_or("m", 32)?;
    let w: f64 = args.get_or("w", 5.0)?;
    let band = percent_to_band(m, w)?;
    let par = ParConfig::new(args.get_or("threads", 1)?)?;
    Ok(MineInput {
        series,
        m,
        band,
        par,
    })
}

/// Runs `tsdtw motif`.
pub fn run_motif(raw: &[String]) -> Result<String, Box<dyn std::error::Error>> {
    let input = common(raw)?;
    let motif = top_motif_par(&input.series, input.m, input.band, &input.par)?;
    Ok(format!(
        "top motif of length {}: windows at {} and {} (distance {:.6})\n",
        input.m, motif.first, motif.second, motif.distance
    ))
}

/// Runs `tsdtw discord`.
pub fn run_discord(raw: &[String]) -> Result<String, Box<dyn std::error::Error>> {
    let input = common(raw)?;
    let discord = top_discord_par(&input.series, input.m, input.band, &input.par)?;
    Ok(format!(
        "top discord of length {}: window at {} (nearest-neighbor distance {:.6})\n",
        input.m, discord.position, discord.nn_distance
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::write_series;

    fn raw(s: &[&str]) -> Vec<String> {
        s.iter().map(|v| v.to_string()).collect()
    }

    /// A fresh file per test: tests run in parallel, and a shared path
    /// lets one test truncate the series while another reads it.
    fn periodic_with_anomaly(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tsdtw-mine-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("series.txt");
        let mut s: Vec<f64> = (0..320).map(|i| (i as f64 * 0.2).sin()).collect();
        for (k, v) in s[160..192].iter_mut().enumerate() {
            *v = 2.0 + (k as f64 * 0.9).cos(); // one odd stretch
        }
        write_series(&p, &s).unwrap();
        p
    }

    #[test]
    fn motif_finds_repeats_and_discord_finds_the_anomaly() {
        let p = periodic_with_anomaly("find");
        let m_out = run_motif(&raw(&["--file", p.to_str().unwrap(), "--m", "31"])).unwrap();
        assert!(m_out.contains("top motif"), "{m_out}");
        let d_out = run_discord(&raw(&["--file", p.to_str().unwrap(), "--m", "31"])).unwrap();
        assert!(d_out.contains("top discord"), "{d_out}");
        // The discord should land in the corrupted stretch [160, 192).
        let pos: usize = d_out
            .split("window at ")
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!((129..=192).contains(&pos), "discord at {pos}");
    }

    #[test]
    fn threads_flag_is_bitwise_output_invariant() {
        let p = periodic_with_anomaly("threads");
        for threads in ["2", "4"] {
            let serial = run_motif(&raw(&["--file", p.to_str().unwrap(), "--m", "31"])).unwrap();
            let par = run_motif(&raw(&[
                "--file",
                p.to_str().unwrap(),
                "--m",
                "31",
                "--threads",
                threads,
            ]))
            .unwrap();
            assert_eq!(serial, par, "motif at --threads {threads}");
            let serial = run_discord(&raw(&["--file", p.to_str().unwrap(), "--m", "31"])).unwrap();
            let par = run_discord(&raw(&[
                "--file",
                p.to_str().unwrap(),
                "--m",
                "31",
                "--threads",
                threads,
            ]))
            .unwrap();
            assert_eq!(serial, par, "discord at --threads {threads}");
        }
    }

    #[test]
    fn too_short_series_is_an_error() {
        let dir = std::env::temp_dir().join("tsdtw-mine-err");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("tiny.txt");
        write_series(&p, &[1.0, 2.0, 3.0]).unwrap();
        assert!(run_motif(&raw(&["--file", p.to_str().unwrap(), "--m", "8"])).is_err());
        assert!(run_discord(&raw(&["--file", p.to_str().unwrap(), "--m", "8"])).is_err());
    }
}
