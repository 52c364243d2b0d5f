//! Report plumbing shared by all experiments.

use std::path::{Path, PathBuf};
use tsdtw_obs::{Json, ToJson};

/// Writes `contents` to `path` atomically: the bytes land in
/// `.<name>.tmp` in the target's directory, which is then renamed over
/// the target, so a concurrent reader — or a crash mid-write — never
/// sees a torn file. The directory must exist.
pub fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = temp_path(path)?;
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// `.<name>.tmp` beside `path`: a bare file name keeps no directory, so
/// its temp file lands in the working directory with it.
fn temp_path(path: &Path) -> std::io::Result<PathBuf> {
    let name = path
        .file_name()
        .ok_or_else(|| std::io::Error::other(format!("{} has no file name", path.display())))?;
    Ok(path.with_file_name(format!(".{}.tmp", name.to_string_lossy())))
}

/// How much work an experiment run should do.
///
/// Every timing experiment measures a scaled-down pair/rep count and, where
/// the paper quotes a total over a bigger population (e.g. 400,960
/// pairwise comparisons), *extrapolates linearly* — legitimate because the
/// per-comparison cost of every algorithm here is independent of which
/// pair is compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-per-experiment; the default for CI and iteration.
    Quick,
    /// Minutes-per-experiment; closer to the paper's populations.
    Full,
}

impl Scale {
    /// Picks between the quick and full value of a parameter.
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// The outcome of one experiment: printable lines plus a JSON record.
#[derive(Debug, Clone)]
pub struct Report {
    /// Stable experiment id (`fig1`, `table2`, …).
    pub id: &'static str,
    /// One-line title echoing the paper artifact.
    pub title: String,
    /// Human-readable result lines.
    pub lines: Vec<String>,
    /// Machine-readable record mirroring the lines.
    pub json: Json,
}

impl Report {
    /// Creates a report with the JSON payload built from any serializable
    /// record.
    pub fn new<T: ToJson>(id: &'static str, title: impl Into<String>, record: &T) -> Self {
        Report {
            id,
            title: title.into(),
            lines: Vec::new(),
            json: record.to_json(),
        }
    }

    /// Appends a printable line.
    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    /// Attaches `section` under `name` at the top level of the JSON
    /// record — a snapshot section (see `snapshot::SECTIONS`) that
    /// `repro` lifts into `BENCH_*.json`. A non-object record is wrapped
    /// as `{"record": …}` first so the section always lands at the top
    /// level.
    pub fn attach(&mut self, name: &str, section: Json) {
        if !matches!(self.json, Json::Obj(_)) {
            let record = std::mem::replace(&mut self.json, Json::object());
            self.json.set("record", record);
        }
        self.json.set(name, section);
    }

    /// Renders the report for the terminal.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== [{}] {}\n", self.id, self.title));
        for l in &self.lines {
            out.push_str("   ");
            out.push_str(l);
            out.push('\n');
        }
        out
    }

    /// Writes the JSON record to `<dir>/<id>.json` atomically (see
    /// [`write_atomic`]), creating `dir` first.
    pub fn write_json(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id));
        write_atomic(&path, &self.json.to_string_pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 10), 1);
        assert_eq!(Scale::Full.pick(1, 10), 10);
    }

    #[test]
    fn report_renders_lines() {
        #[derive(Debug)]
        struct R {
            x: u32,
        }
        tsdtw_obs::impl_to_json!(R { x });
        let mut r = Report::new("t", "title", &R { x: 3 });
        r.line("hello");
        let s = r.render();
        assert!(s.contains("[t] title"));
        assert!(s.contains("hello"));
        assert_eq!(r.json["x"], 3);
    }

    #[test]
    fn write_atomic_replaces_the_target_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join("tsdtw-report-test");
        let _ = std::fs::remove_dir_all(&dir);
        #[derive(Debug)]
        struct R {
            ok: bool,
        }
        tsdtw_obs::impl_to_json!(R { ok });
        let r = Report::new("wtest", "t", &R { ok: true });
        r.write_json(&dir).unwrap();
        // Written over an existing file.
        write_atomic(&dir.join("wtest.json"), "{\"ok\": 1}").unwrap();
        assert_eq!(
            std::fs::read_to_string(dir.join("wtest.json")).unwrap(),
            "{\"ok\": 1}"
        );
        assert!(
            !dir.join(".wtest.json.tmp").exists(),
            "temp file must be renamed away"
        );
        // The temp file sits beside its target; a bare file name keeps
        // both in the working directory (checked by path, since changing
        // directory would race the other tests of this process).
        assert_eq!(
            temp_path(&dir.join("wtest.json")).unwrap(),
            dir.join(".wtest.json.tmp")
        );
        assert_eq!(
            temp_path(Path::new("bare.json")).unwrap(),
            Path::new(".bare.json.tmp")
        );
        assert!(write_atomic(Path::new("/"), "").is_err(), "no file name");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn attach_adds_top_level_sections() {
        use tsdtw_obs::{FunnelStage, Meter, WorkMeter};
        let mut meter = WorkMeter::new();
        meter.cells = 10;
        meter.window_cells = 10;
        meter.stage_entered(FunnelStage::Kim);
        let mut r = Report::new("w", "t", &Json::object().with("n", 5));
        r.attach("work", meter.report());
        r.attach("funnel", meter.funnel.report());
        assert_eq!(r.json["n"], 5);
        assert_eq!(r.json["work"]["cells"], 10);
        assert_eq!(r.json["funnel"]["candidates"], 1);
        assert_eq!(r.json["funnel"]["stages"]["lb_kim"]["entered"], 1);
    }

    #[test]
    fn attach_wraps_non_object_records() {
        let mut r = Report::new("w", "t", &7u32);
        r.attach("work", tsdtw_obs::WorkMeter::new().report());
        assert_eq!(r.json["record"], 7);
        assert!(r.json.get("work").is_some());
    }
}
