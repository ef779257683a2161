//! liger-bench — the source-to-reply serving benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--seed N] [--workload NAME] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! One command builds the fixture model, runs each workload against a
//! live in-process server in a fresh child process, replays the first
//! requests of the same streams through the layers' public calls with a
//! span around each, checks the outputs, and prints every metric as
//! `workload name value unit`. It writes `benchmark/out/results.json`
//! and `benchmark/out/trace.json`; the last line on stdout is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. The exit
//! status is 0 when every check passed, 1 when one failed, and 2 when the
//! run itself could not complete (no result line is printed then).
//!
//! `--trace 0` runs the live windows only and reports the end-to-end
//! metrics; `--trace 1` adds the replay and reports the per-layer ones;
//! without `--trace`, both. See `benchmark/README.md` for every metric.

mod fixture;
mod live;
mod replay;
mod span;
mod stats;
mod workload;

use serve::json::Json;
use span::Tracer;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::Workload;

const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 30.0;
const WARMUP: Duration = Duration::from_secs(3);
/// Server start-ups (checkpoint load → first `ping` reply) timed per live
/// child; `setup_s` adds their median to the one fixture build.
const SETUP_TRIALS: usize = 3;
/// Programs `program_embed` pre-extracts and draws from.
const POOL: usize = 512;

const SMOKE_SECONDS: f64 = 3.0;
const SMOKE_WARMUP: Duration = Duration::from_millis(500);
const SMOKE_POOL: usize = 64;
const SMOKE_REPLAY: usize = 32;

/// End-to-end metrics, measured with tracing off.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_rps", "req/s"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Printed and saved beside the end-to-end rows; not compared across
/// commits. `p99_ms` rests on about 10 samples in `name_open`'s window,
/// too few to gate on; when a window holds fewer than 1000 replies it is
/// the highest percentile the samples support, named by `p99_quantile`.
/// `failed_frac` is 0 on a healthy run.
const CONTEXT: [(&str, &str); 6] = [
    ("p99_ms", "ms"),
    ("failed_frac", "ratio"),
    ("mean_ms", "ms"),
    ("latency_samples", "count"),
    ("p95_quantile", "ratio"),
    ("p99_quantile", "ratio"),
];

/// Per-layer metrics: the live run's `stats` rows and the replay's span
/// rows (see README.md for which end-to-end metric each should move).
const PER_LAYER: [(&str, &str); 31] = [
    ("loadgen.lag_p99_ms", "ms"),
    ("serve.batch_factor", "req/batch"),
    ("serve.server_p50_ms", "ms"),
    ("serve.server_p99_ms", "ms"),
    ("serve.frontend_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("protocol.request_bytes", "B"),
    ("protocol.reply_bytes", "B"),
    ("protocol.decode_us", "us"),
    ("protocol.encode_us", "us"),
    ("minilang.parse_us", "us"),
    ("minilang.typecheck_us", "us"),
    ("analysis.canonicalize_us", "us"),
    ("randgen.generate_us", "us"),
    ("randgen.attempts", "count"),
    ("randgen.kept_per_attempt", "ratio"),
    ("randgen.paths", "count"),
    ("trace.blend_us", "us"),
    ("liger.encode_program_us", "us"),
    ("liger.steps", "count"),
    ("liger.embed1_us", "us"),
    ("liger.embed16_us", "us"),
    ("liger.name_us", "us"),
    ("liger.canon_memo_hit_ratio", "ratio"),
    ("store.get_us", "us"),
    ("store.put_us", "us"),
    ("store.hit_ratio", "ratio"),
    ("index.insert_us", "us"),
    ("index.search_us", "us"),
    ("index.entries", "count"),
    ("bench.trace_overhead_frac", "ratio"),
];

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    /// `None`: live and replay, every metric in the result line.
    trace: Option<bool>,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace: None,
        smoke: false,
    };
    let mut seconds = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = Workload::from_name(name)
                    .ok_or_else(|| format!("unknown workload {name:?}"))?;
                out.workloads = vec![w];
            }
            "--seed" => out.seed = value()?.parse().map_err(|_| "--seed expects an integer")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds expects a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                out.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
                })
            }
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    out.seconds = seconds.unwrap_or(if out.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--live-child") {
        return child_main(&args[1..]);
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("liger-bench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("liger-bench: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--live-child WORKLOAD SEED WARMUP_MS WINDOW_MS FIXTURE POOL TRIALS
/// SCRATCH`: one live run; prints its report as one JSON line.
fn child_main(args: &[String]) -> ExitCode {
    let parsed = (|| -> Option<live::LiveConfig> {
        let [w, seed, warm, window, fixture, pool, trials, scratch] = args else {
            return None;
        };
        Some(live::LiveConfig {
            workload: Workload::from_name(w)?,
            seed: seed.parse().ok()?,
            warmup: Duration::from_millis(warm.parse().ok()?),
            window: Duration::from_millis(window.parse().ok()?),
            fixture: PathBuf::from(fixture),
            pool: pool.parse().ok()?,
            trials: trials.parse().ok()?,
            scratch: PathBuf::from(scratch),
        })
    })();
    let Some(cfg) = parsed else {
        eprintln!("liger-bench: malformed --live-child arguments {args:?}");
        return ExitCode::from(2);
    };
    match live::run(&cfg) {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("liger-bench: {} live run: {e}", cfg.workload.name());
            ExitCode::from(2)
        }
    }
}

/// Runs the live child for one workload and returns its report.
fn spawn_live(cfg: &live::LiveConfig) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .arg("--live-child")
        .args([
            cfg.workload.name().to_string(),
            cfg.seed.to_string(),
            cfg.warmup.as_millis().to_string(),
            cfg.window.as_millis().to_string(),
            cfg.fixture.display().to_string(),
            cfg.pool.to_string(),
            cfg.trials.to_string(),
            cfg.scratch.display().to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn live child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{} live child exited with {}",
            cfg.workload.name(),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("live child printed nothing")?;
    serve::json::parse(line).map_err(|e| format!("live child report: {e}"))
}

/// Everything measured for one workload.
struct Report {
    workload: Workload,
    metrics: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
    checked: u64,
    failures: Vec<String>,
}

impl Report {
    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| *k == name)
            .map(|&(_, v)| v)
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let scratch = out_dir.join("tmp");
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let (warmup, pool, trials, replay_n) = if args.smoke {
        (SMOKE_WARMUP, SMOKE_POOL, 1, SMOKE_REPLAY)
    } else {
        (WARMUP, POOL, SETUP_TRIALS, replay::REPLAY)
    };

    let mut top = Tracer::new(true);
    top.enter("bench.run");

    // Training the fixture is part of `setup_s`, so it runs on every
    // invocation; the model seed fixes its bytes.
    let fixture_path = out_dir.join("fixture.lgrb");
    top.enter("fixture.build");
    let start = Instant::now();
    let bytes = fixture::build()?;
    std::fs::write(&fixture_path, &bytes)
        .map_err(|e| format!("{}: {e}", fixture_path.display()))?;
    let fixture_s = start.elapsed().as_secs_f64();
    top.exit();
    let model = match args.trace {
        Some(false) => None,
        _ => Some(replay::Model::load(&fixture_path)?),
    };

    let mut reports = Vec::new();
    for &w in &args.workloads {
        top.enter(w.name());
        let cfg = live::LiveConfig {
            workload: w,
            seed: args.seed,
            warmup,
            window: Duration::from_secs_f64(args.seconds),
            fixture: fixture_path.clone(),
            pool,
            trials,
            scratch: scratch.clone(),
        };
        let child = top.span("live", |_| spawn_live(&cfg))?;
        let num = |k: &str| child.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let live = child.get("metrics").ok_or("live report has no metrics")?;
        let live_metric = |k: &str| {
            live.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("live report lacks {k}"))
        };
        let mut report = Report {
            workload: w,
            metrics: vec![("setup_s", fixture_s + live_metric("setup_child_s")?)],
            attempted: num("attempted") as u64,
            failed: num("failed") as u64,
            checked: num("checked") as u64,
            failures: child
                .get("check_failures")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|f| f.as_str().map(String::from))
                .collect(),
        };
        for (name, _) in END_TO_END.iter().chain(&CONTEXT).chain(&PER_LAYER) {
            if let Some(v) = live.get(name).and_then(Json::as_f64) {
                report.metrics.push((name, v));
            }
        }

        if let Some(model) = &model {
            let mut tracer = top.sibling(true);
            let (traced, overhead) =
                replay::run(model, &mut tracer, w, args.seed, replay_n, pool, &scratch)?;
            let spans = tracer.into_spans();
            report
                .failures
                .extend(top.span("replay.check", |_| replay::check(model, &traced)));
            let mean_ms = report.get("mean_ms").unwrap_or(0.0);
            report
                .metrics
                .extend(replay::layer_metrics(&traced, &spans, mean_ms));
            report.metrics.push(("bench.trace_overhead_frac", overhead));
            top.adopt(spans);
        }
        top.exit();
        reports.push(report);
    }
    top.exit();

    let correct = reports.iter().all(|r| r.failures.is_empty());
    print_rows(&reports);
    write_json(
        &out_dir.join("results.json"),
        &results_doc(args, &reports, correct),
    )?;
    write_json(
        &out_dir.join("trace.json"),
        &span::chrome_trace(top.spans()),
    )?;
    for r in &reports {
        for f in &r.failures {
            eprintln!("liger-bench: CHECK FAILED {}: {f}", r.workload.name());
        }
    }
    println!("{}", result_line(args, &reports, correct)?);
    Ok(correct)
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&CONTEXT)
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |&(_, u)| u)
}

fn print_rows(reports: &[Report]) {
    for r in reports {
        let w = r.workload.name();
        let n = r.get("latency_samples").unwrap_or(0.0);
        for &(name, v) in &r.metrics {
            let note = match name {
                "p50_ms" | "p95_ms" | "p99_ms" | "mean_ms" => format!(" n={n}"),
                _ => String::new(),
            };
            println!("{w} {name} {v} {}{note}", unit_of(name));
        }
        println!(
            "{w} checks {} live replies checked, {} failures",
            r.checked,
            r.failures.len()
        );
    }
}

fn metric_json(v: f64, unit: &str) -> Json {
    Json::obj(vec![("value", Json::Num(v)), ("unit", Json::str(unit))])
}

/// The result line, printed last: the metrics `--trace` selects. With one
/// workload the metric names are bare; with several they are prefixed
/// `workload.`.
fn result_line(args: &Args, reports: &[Report], correct: bool) -> Result<Json, String> {
    let wanted: Vec<&(&str, &str)> = match args.trace {
        Some(false) => END_TO_END.iter().collect(),
        Some(true) => PER_LAYER.iter().collect(),
        None => END_TO_END.iter().chain(&PER_LAYER).collect(),
    };
    let mut metrics = Vec::new();
    for r in reports {
        for &&(name, unit) in &wanted {
            let v = r
                .get(name)
                .ok_or_else(|| format!("{} did not measure {name}", r.workload.name()))?;
            if !v.is_finite() {
                return Err(format!("{} {name} is not finite", r.workload.name()));
            }
            let key = if reports.len() == 1 {
                name.to_string()
            } else {
                format!("{}.{name}", r.workload.name())
            };
            metrics.push((key, metric_json(v, unit)));
        }
    }
    Ok(Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        (
            "attempted".into(),
            Json::num(reports.iter().map(|r| r.attempted).sum::<u64>() as usize),
        ),
        (
            "failed".into(),
            Json::num(reports.iter().map(|r| r.failed).sum::<u64>() as usize),
        ),
        ("metrics".into(), Json::Obj(metrics)),
    ]))
}

/// `results.json`: every metric of every workload, with the run's
/// settings and the host's `nproc`.
fn results_doc(args: &Args, reports: &[Report], correct: bool) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let workloads = reports
        .iter()
        .map(|r| {
            let metrics = r
                .metrics
                .iter()
                .map(|&(k, v)| (k.to_string(), metric_json(v, unit_of(k))))
                .collect();
            (
                r.workload.name().to_string(),
                Json::obj(vec![
                    ("metrics", Json::Obj(metrics)),
                    ("attempted", Json::num(r.attempted as usize)),
                    ("failed", Json::num(r.failed as usize)),
                    ("checked", Json::num(r.checked as usize)),
                    (
                        "failures",
                        Json::Arr(r.failures.iter().map(|f| Json::str(f.clone())).collect()),
                    ),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("seed", Json::num(args.seed as usize)),
        ("seconds", Json::Num(args.seconds)),
        ("smoke", Json::Bool(args.smoke)),
        ("nproc", Json::num(nproc)),
        ("model_seed", Json::num(fixture::MODEL_SEED as usize)),
        ("correct", Json::Bool(correct)),
        ("workloads", Json::Obj(workloads)),
    ])
}

fn write_json(path: &Path, doc: &Json) -> Result<(), String> {
    std::fs::write(path, doc.to_string()).map_err(|e| format!("{}: {e}", path.display()))
}
