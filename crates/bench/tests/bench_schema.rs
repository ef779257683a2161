//! Every committed `BENCH_*.json` at the repo root is a full-scale report
//! in the one schema `bench::Report` writes, and there is exactly one
//! per bench target: `BENCH_<name>.json` for `throughput_<name>`, and
//! `BENCH_paper.json` for `paper`.

use std::collections::BTreeSet;
use std::path::Path;

/// File stems in `dir` that start with `prefix` and end with `suffix`.
fn stems(dir: &Path, prefix: &str, suffix: &str) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .map(|entry| entry.expect("dir entry").file_name().to_string_lossy().into_owned())
        .filter_map(|name| Some(name.strip_prefix(prefix)?.strip_suffix(suffix)?.to_string()))
        .collect()
}

#[test]
fn committed_bench_reports_match_the_schema() {
    let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = crate_dir.join("../..");
    let reports = stems(&root, "BENCH_", ".json");
    let targets = stems(&crate_dir.join("benches"), "", ".rs");
    let report_of = |target: &str| target.strip_prefix("throughput_").unwrap_or(target).to_string();
    let expected: BTreeSet<String> = targets.iter().map(|t| report_of(t)).collect();
    assert_eq!(reports, expected, "one committed BENCH_<name>.json per bench target");

    for target in &targets {
        let name = report_of(target);
        let path = root.join(format!("BENCH_{name}.json"));
        let text = std::fs::read_to_string(&path).expect("read report");
        let report = obs::json::parse(&text).unwrap_or_else(|e| panic!("BENCH_{name}.json: {e}"));
        bench::check_report(&report).unwrap_or_else(|e| panic!("BENCH_{name}.json: {e}"));
        assert_eq!(
            report.get("bench").and_then(|b| b.as_str()),
            Some(target.as_str()),
            "BENCH_{name}.json names another bench"
        );
        assert_eq!(
            report.get("scale").and_then(|s| s.as_str()),
            Some("full"),
            "BENCH_{name}.json is not a full-scale run"
        );
    }
}

#[test]
fn check_report_rejects_malformed_reports() {
    let good = concat!(
        r#"{"bench":"throughput_x","workload":"w","scale":"full","host":{"cores":2,"simd":[]},"#,
        r#""git_rev":"abc","results":[{"mode":"m","v":1}],"summary":{}}"#
    );
    let report = obs::json::parse(good).unwrap();
    assert_eq!(bench::check_report(&report), Ok(()));
    for bad in [
        good.replace(r#"{"mode":"m","v":1}"#, r#"{"v":1}"#),
        good.replace(r#""v":1"#, r#""v":null"#),
        good.replace(r#""scale":"full""#, r#""scale":"tiny""#),
        good.replace(r#","summary":{}"#, ""),
        good.replace(r#""bench":"throughput_x""#, r#""bench":"""#),
    ] {
        let report = obs::json::parse(&bad).unwrap();
        assert!(bench::check_report(&report).is_err(), "accepted {bad}");
    }
}
