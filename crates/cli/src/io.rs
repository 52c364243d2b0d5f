//! Series and dataset file I/O for the CLI.
//!
//! Two formats:
//! * **plain series** — one finite f64 per line (comments with `#`,
//!   blanks skipped), for `dist` / `search` / `motif` / `discord` inputs;
//! * **UCR labeled datasets** — delegated to
//!   [`tsdtw_datasets::ucr_format`].

use std::path::Path;
use tsdtw_core::error::{Error, Result};

/// Reads a plain one-value-per-line series file.
pub fn read_series(path: &Path) -> Result<Vec<f64>> {
    let text = std::fs::read_to_string(path).map_err(|e| Error::InvalidParameter {
        name: "path",
        reason: format!("cannot read {}: {e}", path.display()),
    })?;
    parse_series(&text, path)
}

fn parse_series(text: &str, path: &Path) -> Result<Vec<f64>> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let bad = |what: &str| Error::InvalidParameter {
            name: "series",
            reason: format!("{}:{}: {what} value {t:?}", path.display(), lineno + 1),
        };
        let v: f64 = t.parse().map_err(|_| bad("unparsable"))?;
        // Rust's f64 parser accepts NaN and ±inf (and overflows to inf);
        // no measure is defined on them.
        if !v.is_finite() {
            return Err(bad("non-finite"));
        }
        out.push(v);
    }
    if out.is_empty() {
        return Err(Error::InvalidParameter {
            name: "series",
            reason: format!("{} contains no values", path.display()),
        });
    }
    Ok(out)
}

/// Writes a plain series file.
pub fn write_series(path: &Path, series: &[f64]) -> Result<()> {
    let mut text = String::with_capacity(series.len() * 12);
    for v in series {
        text.push_str(&format!("{v}\n"));
    }
    std::fs::write(path, text).map_err(|e| Error::InvalidParameter {
        name: "path",
        reason: format!("cannot write {}: {e}", path.display()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_skips_comments_and_blanks() {
        let s = parse_series("# header\n1.5\n\n-2.0\n# mid\n3\n", Path::new("t")).unwrap();
        assert_eq!(s, vec![1.5, -2.0, 3.0]);
    }

    #[test]
    fn parse_rejects_garbage_and_empty() {
        assert!(parse_series("1.0\nfoo\n", Path::new("t")).is_err());
        assert!(parse_series("# only comments\n", Path::new("t")).is_err());
    }

    #[test]
    fn parse_rejects_non_finite_values_with_their_line() {
        for bad in ["NaN", "nan", "inf", "-inf", "infinity", "1e400"] {
            let err = parse_series(&format!("1.0\n{bad}\n2.0\n"), Path::new("s.txt"))
                .unwrap_err()
                .to_string();
            assert!(
                err.contains(&format!("s.txt:2: non-finite value \"{bad}\"")),
                "{err}"
            );
        }
    }

    #[test]
    fn roundtrip_via_tempfile() {
        let dir = std::env::temp_dir().join("tsdtw-cli-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("series.txt");
        let series = vec![0.25, -1.0, 1e6, 0.0];
        write_series(&path, &series).unwrap();
        let back = read_series(&path).unwrap();
        assert_eq!(back, series);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
