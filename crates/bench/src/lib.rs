//! # bench — the paper-claims report and the throughput benches
//!
//! Every bench target is a plain `fn main` executable that reports
//! through one [`Report`]: one JSON schema (header + `results` rows +
//! `summary`), checked by [`check_report`], printed, and written to
//! `--json PATH` when given. `scripts/bench_json.sh` regenerates every
//! committed `BENCH_*.json` that way.
//!
//! - `paper` regenerates the paper's §6 — Tables 1–3, Figures 6–11 and
//!   the §6.1.2 attention share — as one `results` row per table/figure
//!   row, the row's `mode` naming the artifact (`table2`,
//!   `fig6_concrete`, …), and records the paper's orderings in its
//!   summary;
//! - the `throughput_*` targets measure the system and gate their own
//!   floors in-bench.
//!
//! ```text
//! cargo bench -p bench --bench paper -- --json "$PWD/BENCH_paper.json"
//! cargo bench -p bench --bench throughput_encode -- --smoke
//! ```

use std::path::PathBuf;

pub use obs::json::Json;

/// A tiny shared workload: one prepared dataset at tiny scale.
pub fn tiny_dataset() -> eval::MethodDataset {
    eval::build_method_dataset(&eval::Scale::tiny(), None).expect("no store, no store error").0
}

/// The command line shared by the bench targets.
pub struct Args {
    /// `--smoke`: the scaled-down CI run (benches without one ignore it).
    pub smoke: bool,
    /// `--json PATH`: also write the report to `PATH`.
    pub json: Option<PathBuf>,
}

impl Args {
    /// Parses the process arguments. Anything else is ignored, since
    /// `cargo bench` passes `--bench` to every target.
    ///
    /// # Panics
    ///
    /// If `--json` is not followed by a path.
    pub fn parse() -> Args {
        let mut args = Args { smoke: false, json: None };
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--smoke" => args.smoke = true,
                "--json" => args.json = Some(it.next().expect("--json needs a PATH").into()),
                _ => {}
            }
        }
        args
    }
}

/// One bench's results in the shared `BENCH_*.json` schema.
///
/// ```json
/// {"bench": "<target>", "workload": "…", "scale": "full" | "smoke",
///  "host": {"cores": 2, "simd": ["sse2", …]}, "git_rev": "…",
///  "results": [{"mode": "…", …}, …], "summary": {…}}
/// ```
pub struct Report {
    bench: String,
    workload: String,
    args: Args,
    results: Vec<Json>,
    summary: Vec<(String, Json)>,
}

impl Report {
    /// Starts a report for `bench` (the target name) over `workload`.
    pub fn new(bench: &str, workload: &str, args: Args) -> Report {
        Report {
            bench: bench.to_string(),
            workload: workload.to_string(),
            args,
            results: Vec::new(),
            summary: Vec::new(),
        }
    }

    /// Whether this is the `--smoke` run.
    pub fn smoke(&self) -> bool {
        self.args.smoke
    }

    /// Appends one `results` row tagged with `mode`.
    pub fn row(&mut self, mode: &str, fields: Vec<(&str, Json)>) {
        let mut row = vec![("mode".to_string(), Json::str(mode))];
        row.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
        self.results.push(Json::Obj(row));
    }

    /// Sets one `summary` field.
    pub fn summary(&mut self, key: &str, value: Json) {
        self.summary.push((key.to_string(), value));
    }

    /// Adds the header, checks the report against the schema, prints it,
    /// and writes it to the `--json` path if one was given.
    ///
    /// # Panics
    ///
    /// If the report breaks the schema or the file cannot be written.
    pub fn finish(self) {
        let host = Json::obj(vec![
            ("cores", Json::num(std::thread::available_parallelism().map_or(1, |n| n.get()))),
            ("simd", Json::Arr(simd_features().map(Json::str).collect())),
        ]);
        let report = Json::obj(vec![
            ("bench", Json::str(self.bench)),
            ("workload", Json::str(self.workload)),
            ("scale", Json::str(if self.args.smoke { "smoke" } else { "full" })),
            ("host", host),
            ("git_rev", Json::str(git_rev())),
            ("results", Json::Arr(self.results)),
            ("summary", Json::Obj(self.summary)),
        ]);
        if let Err(e) = check_report(&report) {
            panic!("bench report breaks the BENCH_*.json schema: {e}");
        }
        let mut text = String::new();
        pretty(&report, 2, 0, &mut text);
        text.push('\n');
        print!("{text}");
        if let Some(path) = &self.args.json {
            tensor::codec::write_atomic(path, text.as_bytes())
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            println!("wrote {}", path.display());
        }
    }
}

/// Checks one parsed `BENCH_*.json` report against the shared schema:
/// exactly the header fields, `results`, and `summary`, in order; a
/// non-empty `results` list of objects with a string `mode`; and no
/// `null` anywhere (a non-finite measurement serializes as `null`).
///
/// # Errors
///
/// A description of the first violation.
pub fn check_report(report: &Json) -> Result<(), String> {
    const KEYS: [&str; 7] = ["bench", "workload", "scale", "host", "git_rev", "results", "summary"];
    let Json::Obj(fields) = report else {
        return Err("report is not an object".into());
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    if keys != KEYS {
        return Err(format!("top-level keys {keys:?}, expected {KEYS:?}"));
    }
    // Every `get` below is on a key checked present above.
    let text = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).unwrap_or("").to_string();
    if ["bench", "workload", "git_rev"].iter().any(|key| text(report, key).is_empty()) {
        return Err("`bench`, `workload` and `git_rev` must be non-empty strings".into());
    }
    if !matches!(text(report, "scale").as_str(), "full" | "smoke") {
        return Err("`scale` must be \"full\" or \"smoke\"".into());
    }
    let host = &report.get("host").expect("checked above");
    let cores = host.get("cores").and_then(Json::as_usize).unwrap_or(0);
    let simd = host.get("simd").and_then(Json::as_arr);
    if cores == 0 || simd.is_none_or(|s| s.iter().any(|f| f.as_str().is_none())) {
        return Err("`host` must be {cores: >= 1, simd: [string]}".into());
    }
    let results = report.get("results").and_then(Json::as_arr).unwrap_or_default();
    if results.is_empty() {
        return Err("`results` must be a non-empty array".into());
    }
    if let Some(i) = results.iter().position(|row| text(row, "mode").is_empty()) {
        return Err(format!("results[{i}] has no string `mode`"));
    }
    if !matches!(report.get("summary"), Some(Json::Obj(_))) {
        return Err("`summary` must be an object".into());
    }
    if has_null(report) {
        return Err("report contains null (a non-finite measurement?)".into());
    }
    Ok(())
}

fn has_null(value: &Json) -> bool {
    match value {
        Json::Null => true,
        Json::Arr(items) => items.iter().any(has_null),
        Json::Obj(fields) => fields.iter().any(|(_, v)| has_null(v)),
        _ => false,
    }
}

/// The SIMD target features this build was compiled with — what the
/// autovectorized kernels could use.
fn simd_features() -> impl Iterator<Item = &'static str> {
    [
        ("sse2", cfg!(target_feature = "sse2")),
        ("sse4.1", cfg!(target_feature = "sse4.1")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("neon", cfg!(target_feature = "neon")),
    ]
    .into_iter()
    .filter_map(|(name, on)| on.then_some(name))
}

/// `git describe --always --dirty` of the checkout, or `"unknown"`.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Writes `value` with one member per line down to `depth` levels of
/// nesting and compactly below that: one line per `results` row.
fn pretty(value: &Json, depth: usize, indent: usize, out: &mut String) {
    let items: Vec<(Option<&str>, &Json)> = match value {
        Json::Arr(xs) if depth > 0 && !xs.is_empty() => xs.iter().map(|x| (None, x)).collect(),
        Json::Obj(fs) if depth > 0 && !fs.is_empty() => {
            fs.iter().map(|(k, v)| (Some(k.as_str()), v)).collect()
        }
        _ => return value.write_to(out),
    };
    let (open, close) = if matches!(value, Json::Arr(_)) { ('[', ']') } else { ('{', '}') };
    out.push(open);
    for (i, (key, item)) in items.into_iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&" ".repeat(indent + 2));
        if let Some(key) = key {
            Json::str(key).write_to(out);
            out.push_str(": ");
        }
        pretty(item, depth - 1, indent + 2, out);
    }
    out.push('\n');
    out.push_str(&" ".repeat(indent));
    out.push(close);
}
