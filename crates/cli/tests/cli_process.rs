//! Process-level tests of the `tsdtw` binary: exactly what a user types,
//! spawned via `CARGO_BIN_EXE_tsdtw`.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tsdtw"))
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsdtw-proc-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn no_arguments_prints_help_and_succeeds() {
    let out = bin().output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("commands:"), "{text}");
}

#[test]
fn help_for_each_command() {
    for cmd in [
        "dist", "classify", "search", "window", "cluster", "motif", "discord", "bakeoff",
        "generate", "report",
    ] {
        let out = bin().args(["help", cmd]).output().unwrap();
        assert!(out.status.success(), "{cmd}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains(cmd), "{cmd}: {text}");
    }
}

#[test]
fn unknown_command_fails_with_message() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("unknown command"), "{text}");
}

#[test]
fn generate_then_dist_round_trip() {
    let dir = workdir("dist");
    let a = dir.join("a.txt");
    let b = dir.join("b.txt");
    for (path, seed) in [(&a, "1"), (&b, "2")] {
        let out = bin()
            .args([
                "generate",
                "--kind",
                "random-walk",
                "--out",
                path.to_str().unwrap(),
                "--n",
                "256",
                "--seed",
                seed,
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let out = bin()
        .args([
            "dist",
            "--a",
            a.to_str().unwrap(),
            "--b",
            b.to_str().unwrap(),
            "--measure",
            "cdtw",
            "--w",
            "10",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("cdtw distance:"), "{text}");
    assert!(text.contains("band of"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn generate_classify_pipeline() {
    let dir = workdir("classify");
    let train = dir.join("train.tsv");
    let test = dir.join("test.tsv");
    for (path, count, seed) in [(&train, "8", "10"), (&test, "3", "20")] {
        let out = bin()
            .args([
                "generate",
                "--kind",
                "cbf",
                "--out",
                path.to_str().unwrap(),
                "--n",
                "64",
                "--count",
                count,
                "--seed",
                seed,
            ])
            .output()
            .unwrap();
        assert!(out.status.success());
    }
    let out = bin()
        .args([
            "classify",
            "--train",
            train.to_str().unwrap(),
            "--test",
            test.to_str().unwrap(),
            "--w",
            "5",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("accuracy:"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes a minimal-but-valid perf snapshot for `report diff` tests.
fn write_snapshot(path: &std::path::Path, cells: u64, wall_s: f64) {
    let schema = tsdtw_bench::snapshot::SCHEMA_VERSION;
    let text = format!(
        "{{\"schema\": {schema}, \"experiment\": \"cells\", \"title\": \"t\", \
          \"git_rev\": \"abc\", \"spans_enabled\": false, \
          \"env\": {{\"os\": \"linux\"}}, \"wall_s\": {wall_s}, \
          \"work\": {{\"cells\": {cells}}}, \"kernels\": {{}}, \
          \"memory\": {{\"telemetry\": false, \"allocs\": 0}}}}"
    );
    std::fs::write(path, text).unwrap();
}

#[test]
fn report_diff_passes_on_equal_snapshots_and_fails_on_regression() {
    let dir = workdir("report-diff");
    let base = dir.join("base.json");
    let same = dir.join("same.json");
    let worse = dir.join("worse.json");
    write_snapshot(&base, 1000, 1.0);
    write_snapshot(&same, 1000, 1.0);
    write_snapshot(&worse, 1200, 1.0);

    // Equal work: exit 0, summary on stdout.
    let out = bin()
        .args([
            "report",
            "diff",
            base.to_str().unwrap(),
            same.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("0 regressed"), "{text}");

    // +20 % work at zero tolerance: non-zero exit, detail on stderr.
    let out = bin()
        .args([
            "report",
            "diff",
            base.to_str().unwrap(),
            worse.to_str().unwrap(),
            "--fail-on-regress",
            "0",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "regression must exit non-zero");
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("FAIL"), "{text}");
    assert!(text.contains("work.cells"), "{text}");

    // The same pair passes once the tolerance covers the delta.
    let out = bin()
        .args([
            "report",
            "diff",
            base.to_str().unwrap(),
            worse.to_str().unwrap(),
            "--fail-on-regress",
            "25",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_diff_warns_on_timing_but_does_not_fail() {
    let dir = workdir("report-timing");
    let base = dir.join("base.json");
    let slow = dir.join("slow.json");
    write_snapshot(&base, 1000, 1.0);
    write_snapshot(&slow, 1000, 50.0);
    let out = bin()
        .args([
            "report",
            "diff",
            base.to_str().unwrap(),
            slow.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "timing changes are advisory: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("advisory"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_trend_gates_the_history_ledger_end_to_end() {
    let dir = workdir("report-trend");
    // Three clean runs, then a fourth with a 20% counter regression.
    for cells in [1000u64, 1000, 1000] {
        let snap = dir.join("snap.json");
        write_snapshot(&snap, cells, 1.0);
        let rec = std::fs::read_to_string(&snap).unwrap();
        let ledger = dir.join("history");
        std::fs::create_dir_all(&ledger).unwrap();
        let mut all = std::fs::read_to_string(ledger.join("cells.jsonl")).unwrap_or_default();
        all.push_str(&rec);
        all.push('\n');
        std::fs::write(ledger.join("cells.jsonl"), all).unwrap();
    }
    let trend = |extra: &[&str]| {
        let mut args = vec!["report", "trend", "--history", dir.to_str().unwrap()];
        args.extend_from_slice(extra);
        bin().args(&args).output().unwrap()
    };
    // Replayed identical runs: exit 0, dashboard written.
    let out = trend(&["--fail-on-drift"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("PASS"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let md = std::fs::read_to_string(dir.join("TREND.md")).unwrap();
    assert!(md.contains("**PASS**"), "{md}");

    // Inject the regression and gate again: non-zero exit, named counter.
    let snap = dir.join("snap.json");
    write_snapshot(&snap, 1200, 1.0);
    let mut all = std::fs::read_to_string(dir.join("history/cells.jsonl")).unwrap();
    all.push_str(&std::fs::read_to_string(&snap).unwrap());
    all.push('\n');
    std::fs::write(dir.join("history/cells.jsonl"), all).unwrap();
    let out = trend(&["--fail-on-drift"]);
    assert!(!out.status.success(), "confirmed drift must exit non-zero");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("work.cells"), "{err}");
    // Without the flag the same drift is advisory: exit 0.
    let out = trend(&[]);
    assert!(out.status.success());
    let md = std::fs::read_to_string(dir.join("TREND.md")).unwrap();
    assert!(md.contains("DRIFT DETECTED"), "{md}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_show_pretty_prints_a_snapshot() {
    let dir = workdir("report-show");
    let snap = dir.join("BENCH_cells.json");
    write_snapshot(&snap, 4242, 1.5);
    let out = bin()
        .args(["report", "show", snap.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("experiment   cells"), "{text}");
    assert!(text.contains("4242"), "{text}");
    assert!(text.contains("-- work counters"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dist_trace_flag_emits_chrome_trace_json() {
    let dir = workdir("dist-trace");
    let a = dir.join("a.txt");
    let b = dir.join("b.txt");
    std::fs::write(&a, "0\n1\n2\n1\n0\n").unwrap();
    std::fs::write(&b, "0\n0\n1\n2\n1\n").unwrap();
    let trace = dir.join("trace.json");
    let out = bin()
        .args([
            "dist",
            "--a",
            a.to_str().unwrap(),
            "--b",
            b.to_str().unwrap(),
            "--measure",
            "fastdtw",
            "--radius",
            "1",
            "--trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace).unwrap();
    let parsed = tsdtw_obs::Json::parse(&text).unwrap();
    // The recorder arms the span probes in every build, so FastDTW's
    // spans reach the file.
    let events = parsed["traceEvents"].as_array().expect("traceEvents");
    assert!(
        events
            .iter()
            .any(|e| e["name"] == "fastdtw" && e["ph"] == "B"),
        "{text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dist_with_a_huge_fastdtw_radius_returns_the_full_dtw_distance() {
    // A radius past the series lengths is FastDTW's exact base case, for
    // both implementations, up to and including usize::MAX.
    let dir = workdir("dist-huge-radius");
    let a = dir.join("a.txt");
    let b = dir.join("b.txt");
    std::fs::write(&a, "0\n1\n2\n3\n2\n1\n0\n1\n").unwrap();
    std::fs::write(&b, "0\n0\n1\n2\n3\n2\n1\n").unwrap();
    let dist = |measure: &str, radius: &str| {
        let out = bin()
            .args([
                "dist",
                "--a",
                a.to_str().unwrap(),
                "--b",
                b.to_str().unwrap(),
                "--measure",
                measure,
                "--radius",
                radius,
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{measure} --radius {radius}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        text.split_once("distance: ").unwrap().1.trim().to_string()
    };
    let exact = dist("dtw", "1");
    for measure in ["fastdtw", "fastdtw-ref"] {
        for radius in ["18446744073709551614", "18446744073709551615"] {
            assert_eq!(dist(measure, radius), exact, "{measure} --radius {radius}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_flag_fails_and_echoes_command_help() {
    let out = bin().args(["dist", "--bogus", "1"]).output().unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("error:"), "{text}");
    assert!(text.contains("tsdtw dist"), "{text}");
}
