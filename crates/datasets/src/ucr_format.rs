//! Reader/writer for the UCR archive text format.
//!
//! The archive distributes each dataset as `<Name>_TRAIN.tsv` /
//! `<Name>_TEST.tsv`: one series per line, the first field the integer
//! class label, the remaining fields the values, separated by tabs (older
//! versions used commas; both are accepted). If a user has real archive
//! files, every experiment in the harness can run on them instead of the
//! synthetic substitutes.
//!
//! Every label must be a finite integer (`1` and `1.0` both read as 1)
//! and every value finite. The 2018 archive pads variable-length series
//! with trailing `NaN`s; [`LabeledDataset`] holds equal-length series
//! only, so such a file is rejected with a message naming that
//! convention.

use crate::types::LabeledDataset;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use tsdtw_core::error::{Error, Result};

/// Parses UCR text content from any reader.
pub fn read_ucr<R: Read>(name: &str, reader: R) -> Result<LabeledDataset> {
    let buf = BufReader::new(reader);
    let mut series = Vec::new();
    let mut labels = Vec::new();
    for (lineno, line) in buf.lines().enumerate() {
        let line = line.map_err(|e| Error::InvalidParameter {
            name: "reader",
            reason: format!("I/O error at line {}: {e}", lineno + 1),
        })?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let bad = |name: &'static str, what: String| Error::InvalidParameter {
            name,
            reason: format!("line {}: {what}", lineno + 1),
        };
        let sep = if trimmed.contains('\t') { '\t' } else { ',' };
        let mut fields = trimmed.split(sep).map(str::trim).filter(|f| !f.is_empty());
        let label_field = fields
            .next()
            .ok_or_else(|| bad("line", "no fields".into()))?;
        // Labels may be written as "1" or "1.0"; parse via f64 and keep
        // only integers `as i64` converts exactly (it would truncate 0.5
        // into class 0 and saturate NaN and inf).
        let label = label_field
            .parse::<f64>()
            .ok()
            .filter(|v| v.fract() == 0.0 && v.abs() < i64::MAX as f64)
            .ok_or_else(|| {
                let what =
                    format!("label {label_field:?} is not an integer below 2^63 in magnitude");
                bad("label", what)
            })? as i64;
        // Fields are numbered from 1, the label being field 1.
        let mut values = Vec::new();
        let mut first_non_finite = None;
        for (k, f) in fields.enumerate() {
            let v: f64 = f
                .parse()
                .map_err(|_| bad("values", format!("field {}: unparsable value {f:?}", k + 2)))?;
            if !v.is_finite() && first_non_finite.is_none() {
                first_non_finite = Some((k, f));
            }
            values.push(v);
        }
        if values.is_empty() {
            return Err(bad("values", "a label but no values".into()));
        }
        if let Some((k, f)) = first_non_finite {
            let what = if k > 0 && values[k..].iter().all(|v| v.is_nan()) {
                format!(
                    "trailing NaN padding from field {} (the UCR 2018 archive's \
                     convention for variable-length series); only equal-length \
                     series load",
                    k + 2
                )
            } else {
                format!("field {}: non-finite value {f:?}", k + 2)
            };
            return Err(bad("values", what));
        }
        if let Some(first) = series.first().map(Vec::len) {
            if values.len() != first {
                let what = format!(
                    "{} values, expected {first} like the first series",
                    values.len()
                );
                return Err(bad("values", what));
            }
        }
        series.push(values);
        // The archive uses labels like -1/1 or 1..k; shift to 0-based usize.
        labels.push(label);
    }
    // Remap arbitrary integer labels onto 0..k.
    let mut distinct: Vec<i64> = labels.clone();
    distinct.sort_unstable();
    distinct.dedup();
    let mapped: Vec<usize> = labels
        .iter()
        .map(|l| distinct.binary_search(l).expect("label present"))
        .collect();
    LabeledDataset::new(name, series, mapped)
}

/// Loads a UCR file from disk. Errors name the file.
pub fn load_ucr_file(path: &Path) -> Result<LabeledDataset> {
    let file = std::fs::File::open(path).map_err(|e| Error::InvalidParameter {
        name: "path",
        reason: format!("cannot open {}: {e}", path.display()),
    })?;
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "ucr".into());
    read_ucr(&name, file).map_err(|e| match e {
        Error::InvalidParameter { name, reason } => Error::InvalidParameter {
            name,
            reason: format!("{}: {reason}", path.display()),
        },
        other => Error::InvalidParameter {
            name: "path",
            reason: format!("{}: {other}", path.display()),
        },
    })
}

/// Writes a dataset in UCR tab-separated format.
pub fn write_ucr<W: Write>(data: &LabeledDataset, mut writer: W) -> Result<()> {
    for (s, &l) in data.series.iter().zip(&data.labels) {
        let mut line = String::with_capacity(s.len() * 12 + 8);
        line.push_str(&l.to_string());
        for v in s {
            line.push('\t');
            line.push_str(&format!("{v}"));
        }
        line.push('\n');
        writer
            .write_all(line.as_bytes())
            .map_err(|e| Error::InvalidParameter {
                name: "writer",
                reason: format!("I/O error: {e}"),
            })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_data() {
        let d = LabeledDataset::new(
            "rt",
            vec![vec![0.5, -1.25, 3.0], vec![2.0, 2.0, 2.0]],
            vec![0, 1],
        )
        .unwrap();
        let mut buf = Vec::new();
        write_ucr(&d, &mut buf).unwrap();
        let back = read_ucr("rt", buf.as_slice()).unwrap();
        assert_eq!(back.series, d.series);
        assert_eq!(back.labels, d.labels);
    }

    #[test]
    fn reads_tab_separated() {
        let text = "1\t0.0\t1.0\t2.0\n2\t3.0\t4.0\t5.0\n";
        let d = read_ucr("t", text.as_bytes()).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.series[1], vec![3.0, 4.0, 5.0]);
        assert_eq!(d.labels, vec![0, 1]);
    }

    #[test]
    fn reads_comma_separated_with_float_labels() {
        let text = "1.0,0.5,0.75\n3.0,1.5,1.75\n";
        let d = read_ucr("c", text.as_bytes()).unwrap();
        assert_eq!(d.labels, vec![0, 1]);
        assert_eq!(d.series[0], vec![0.5, 0.75]);
    }

    #[test]
    fn remaps_negative_labels() {
        let text = "-1\t0.0\t1.0\n1\t1.0\t0.0\n-1\t0.5\t0.5\n";
        let d = read_ucr("n", text.as_bytes()).unwrap();
        assert_eq!(d.labels, vec![0, 1, 0]);
    }

    #[test]
    fn skips_blank_lines() {
        let text = "\n1\t0.0\t1.0\n\n2\t1.0\t0.0\n\n";
        let d = read_ucr("b", text.as_bytes()).unwrap();
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_ucr("g", "1\tfoo\tbar\n".as_bytes()).is_err());
        assert!(read_ucr("g", "label-only\n".as_bytes()).is_err());
        assert!(read_ucr("g", "1\n".as_bytes()).is_err());
    }

    #[test]
    fn rejects_ragged_rows() {
        let text = "1\t0.0\t1.0\n2\t1.0\n";
        let err = read_ucr("r", text.as_bytes()).unwrap_err().to_string();
        assert!(err.contains("line 2: 1 values, expected 2"), "{err}");
    }

    fn error_of(text: &str) -> String {
        read_ucr("e", text.as_bytes()).unwrap_err().to_string()
    }

    #[test]
    fn rejects_fractional_labels_instead_of_truncating() {
        // `as i64` would put 0.5 and -0.9 into class 0.
        let err = error_of("0\t0.0\t1.0\n0.5\t1.0\t0.0\n");
        assert!(
            err.contains("line 2: label \"0.5\" is not an integer"),
            "{err}"
        );
        let err = error_of("-0.9\t0.0\t1.0\n0\t1.0\t0.0\n");
        assert!(err.contains("line 1: label \"-0.9\""), "{err}");
    }

    #[test]
    fn rejects_non_finite_labels() {
        for label in ["NaN", "inf", "-inf", "1e300"] {
            let err = error_of(&format!("1\t0.0\t1.0\n{label}\t1.0\t0.0\n"));
            assert!(err.contains(&format!("line 2: label \"{label}\"")), "{err}");
        }
    }

    #[test]
    fn rejects_interior_non_finite_values_naming_line_and_field() {
        for v in ["NaN", "inf", "-inf", "1e400"] {
            let err = error_of(&format!("1\t0.0\t1.0\t2.0\n2\t0.5\t{v}\t1.0\n"));
            assert!(
                err.contains(&format!("line 2: field 3: non-finite value \"{v}\"")),
                "{err}"
            );
        }
        // A leading NaN is not padding, even when the rest is NaN too.
        let err = error_of("1\tNaN\tNaN\n");
        assert!(err.contains("line 1: field 2: non-finite value"), "{err}");
    }

    #[test]
    fn rejects_trailing_nan_padding_naming_the_convention() {
        let err = error_of("1\t0.0\t1.0\t2.0\n2\t0.5\tNaN\tNaN\n");
        assert!(
            err.contains("line 2: trailing NaN padding from field 3"),
            "{err}"
        );
        assert!(err.contains("UCR 2018"), "{err}");
    }

    #[test]
    fn load_prefixes_errors_with_the_path() {
        let dir = std::env::temp_dir().join(format!("tsdtw-ucr-load-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad_TRAIN.tsv");
        std::fs::write(&path, "1\t0.0\t1.0\n2\t0.5\tNaN\n").unwrap();
        let err = load_ucr_file(&path).unwrap_err().to_string();
        assert!(
            err.contains(&format!("{}: line 2: trailing NaN padding", path.display())),
            "{err}"
        );
        std::fs::write(&path, "").unwrap();
        let err = load_ucr_file(&path).unwrap_err().to_string();
        assert!(err.contains(&path.display().to_string()), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
