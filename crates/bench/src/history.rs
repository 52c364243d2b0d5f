//! The perf-trajectory ledger: append-only history of snapshot records.
//!
//! Every `repro` run appends the snapshot it just wrote to
//! `<out>/history/<experiment>.jsonl` — one compact schema-v3 snapshot
//! per line, newest last. The ledger is the longitudinal complement to
//! the pairwise `BENCH_*.json` baselines: `report diff` answers "did
//! this change regress against the pinned baseline", the ledger answers
//! "what has this experiment's cost looked like across the last N
//! revisions", which is what the noise-aware trend gate
//! (`tsdtw report trend`, [`crate::trend`]) consumes.
//!
//! JSONL because append is the only write: a crashed run leaves at
//! worst one truncated final line (skipped with a note at load), and
//! two concurrent appenders interleave whole records on any POSIX
//! filesystem thanks to `O_APPEND`. Nothing ever rewrites history —
//! the file is the audit trail.

use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use tsdtw_obs::Json;

/// Name of the ledger directory under a results root.
pub const HISTORY_DIR: &str = "history";

/// The ledger file for one experiment under `results_dir`.
pub fn ledger_path(results_dir: &Path, experiment: &str) -> PathBuf {
    results_dir
        .join(HISTORY_DIR)
        .join(format!("{experiment}.jsonl"))
}

/// Appends one snapshot record to the experiment's ledger, creating the
/// history directory and file on first use. Returns the ledger path.
pub fn append(results_dir: &Path, experiment: &str, snapshot: &Json) -> io::Result<PathBuf> {
    let path = ledger_path(results_dir, experiment);
    std::fs::create_dir_all(path.parent().expect("ledger path has a parent"))?;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .read(true)
        .append(true)
        .open(&path)?;
    // An interrupted earlier append can leave the file without its final
    // newline; start on a fresh line so this record never fuses with
    // the fragment. (Writes still land at the end: the file is O_APPEND.)
    let mut line = String::new();
    if f.metadata()?.len() > 0 {
        let mut last = [0u8; 1];
        f.seek(SeekFrom::End(-1))?;
        f.read_exact(&mut last)?;
        if last[0] != b'\n' {
            line.push('\n');
        }
    }
    line.push_str(&snapshot.to_string_compact());
    line.push('\n');
    f.write_all(line.as_bytes())?;
    Ok(path)
}

/// One experiment's loaded history.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Parsed records, oldest first.
    pub records: Vec<Json>,
    /// Set when a truncated final line was skipped; names it as
    /// `path:line`.
    pub note: Option<String>,
}

/// Loads an experiment's full history, oldest first.
///
/// A malformed *final* line is what an interrupted append leaves behind,
/// so it is skipped and reported in [`Ledger::note`] rather than
/// breaking every later trend run. A malformed line anywhere before it
/// means hand-editing or real corruption and is an error naming
/// `path:line`. A missing ledger file loads as an empty history.
pub fn load(results_dir: &Path, experiment: &str) -> io::Result<Ledger> {
    let path = ledger_path(results_dir, experiment);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Ledger::default()),
        Err(e) => return Err(e),
    };
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .collect();
    let mut ledger = Ledger::default();
    for (k, &(i, line)) in lines.iter().enumerate() {
        match Json::parse(line) {
            Ok(rec) => ledger.records.push(rec),
            Err(e) if k + 1 == lines.len() => {
                ledger.note = Some(format!(
                    "{}:{}: skipped truncated final ledger line: {e}",
                    path.display(),
                    i + 1
                ));
            }
            Err(e) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}:{}: malformed ledger line: {e}", path.display(), i + 1),
                ));
            }
        }
    }
    Ok(ledger)
}

/// Experiments with a ledger under `results_dir`, sorted by name.
/// Empty (not an error) when no history directory exists yet.
pub fn experiments(results_dir: &Path) -> io::Result<Vec<String>> {
    let dir = results_dir.join(HISTORY_DIR);
    let entries = match std::fs::read_dir(&dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut names: Vec<String> = entries
        .filter_map(|e| {
            let path = e.ok()?.path();
            if path.extension()? == "jsonl" {
                Some(path.file_stem()?.to_string_lossy().into_owned())
            } else {
                None
            }
        })
        .collect();
    names.sort();
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsdtw_obs::json_obj;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tsdtw-history-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_then_load_round_trips_in_order() {
        let dir = tmp("roundtrip");
        for i in 0..3 {
            let rec = json_obj! { "schema" => 3, "experiment" => "cells", "seq" => i };
            append(&dir, "cells", &rec).unwrap();
        }
        let ledger = load(&dir, "cells").unwrap();
        assert!(ledger.note.is_none());
        let recs = ledger.records;
        assert_eq!(recs.len(), 3);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r["seq"].as_i64(), Some(i as i64), "append order preserved");
        }
        assert_eq!(experiments(&dir).unwrap(), vec!["cells".to_string()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_ledger_is_empty_not_an_error() {
        let dir = tmp("missing");
        assert!(load(&dir, "nope").unwrap().records.is_empty());
        assert!(experiments(&dir).unwrap().is_empty());
    }

    #[test]
    fn truncated_final_line_is_skipped_with_a_note() {
        let dir = tmp("truncated");
        append(&dir, "cells", &json_obj! { "seq" => 0 }).unwrap();
        append(&dir, "cells", &json_obj! { "seq" => 1 }).unwrap();
        // Simulate a crashed writer: a truncated trailing line.
        let path = ledger_path(&dir, "cells");
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"seq\": ");
        std::fs::write(&path, text).unwrap();
        let ledger = load(&dir, "cells").unwrap();
        assert_eq!(ledger.records.len(), 2);
        let note = ledger.note.expect("the skipped line is reported");
        assert!(note.contains("cells.jsonl:3:"), "{note}");

        // The next append starts on a fresh line, so the fragment now
        // sits mid-file and is corruption, not truncation.
        append(&dir, "cells", &json_obj! { "seq" => 2 }).unwrap();
        let err = load(&dir, "cells").unwrap_err();
        assert!(err.to_string().contains("cells.jsonl:3:"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_file_corruption_is_an_error_with_its_line_number() {
        let dir = tmp("malformed");
        let path = ledger_path(&dir, "cells");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, "{\"seq\": 0}\n{\"seq\": \n{\"seq\": 2}\n").unwrap();
        let err = load(&dir, "cells").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("cells.jsonl:2:"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ledgers_are_per_experiment_and_sorted() {
        let dir = tmp("multi");
        append(&dir, "kernels", &json_obj! { "x" => 1 }).unwrap();
        append(&dir, "cells", &json_obj! { "x" => 2 }).unwrap();
        assert_eq!(
            experiments(&dir).unwrap(),
            vec!["cells".to_string(), "kernels".to_string()]
        );
        assert_eq!(load(&dir, "cells").unwrap().records.len(), 1);
        assert_eq!(load(&dir, "kernels").unwrap().records.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
