//! Observability overhead: what span tracing costs when it is off (the
//! shipped default) and what it costs when it is on.
//!
//! The contract (DESIGN.md §2e) is that instrumentation left compiled
//! into the hot paths is effectively free until `LIGER_PROFILE=1`
//! enables it. This bench:
//!
//! * measures the memoized-encoder workload with tracing **disabled**
//!   (the baseline every other bench sees),
//! * measures the raw cost of one disabled `obs::span!` in a tight loop
//!   (one relaxed atomic load + a no-op guard drop),
//! * counts how many span events one encoded program actually emits,
//!   and **asserts** that `ns_per_disabled_span × spans_per_program`
//!   stays under 2% of the per-program time — a calibrated bound that
//!   does not flake on machine noise the way an A/B wall-clock diff
//!   would,
//! * measures the same workload with tracing **enabled** for an
//!   informational enabled/disabled ratio.
//!
//! The report lands in `BENCH_obs.json` (`--json PATH`).

use std::time::Instant;

use bench::{Json, Report};
use liger::{EncodedProgram, LigerConfig, LigerModel, Workspace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::ParamStore;

/// Best-of-`rounds` seconds for one full pass over `progs`.
fn measure_pass<F: FnMut(&EncodedProgram) -> u64>(
    progs: &[EncodedProgram],
    rounds: usize,
    mut per_program: F,
) -> f64 {
    let mut best = f64::INFINITY;
    let mut checksum = 0u64;
    for _ in 0..rounds {
        let start = Instant::now();
        for prog in progs {
            checksum = checksum.wrapping_add(per_program(prog));
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    assert!(checksum != 0, "encoder produced all-zero embeddings");
    best
}

fn main() {
    let mut report = Report::new(
        "throughput_obs",
        "memoized LIGER encoder over the tiny method-name dataset, span tracing off vs on; \
         disabled-mode overhead modeled as ns_per_span x spans_per_program and asserted < 2% \
         in-bench",
        bench::Args::parse(),
    );
    let ds = bench::tiny_dataset();
    let mut rng = StdRng::seed_from_u64(41);
    let mut store = ParamStore::new();
    let cfg = LigerConfig { hidden: 16, attn: 16, ..LigerConfig::default() };
    let model = LigerModel::new(&mut store, ds.vocabs.input.len(), cfg, &mut rng);
    let progs: Vec<EncodedProgram> =
        ds.train.iter().chain(ds.test.iter()).map(|s| s.liger.clone()).collect();
    assert!(!progs.is_empty(), "tiny dataset produced no programs");

    let rounds = 5;
    println!("\nobservability overhead over the memoized encoder ({} programs)", progs.len());

    // Baseline: tracing pinned off, one warm pass, then timed passes.
    obs::trace::set_enabled(Some(false));
    let mut ws = Workspace::new();
    let encode_pass = |ws: &mut Workspace, prog: &EncodedProgram| {
        ws.reset();
        let out = model.encode_memo(ws, &store, prog);
        ws.graph.value(out.program).data().iter().map(|v| v.to_bits() as u64).sum()
    };
    for prog in &progs {
        encode_pass(&mut ws, prog);
    }
    let disabled_secs = measure_pass(&progs, rounds, |prog| encode_pass(&mut ws, prog));
    let mut pass_row = |mode: &str, secs: f64| {
        report.row(
            mode,
            vec![
                ("programs", Json::num(progs.len())),
                ("rounds", Json::num(rounds)),
                ("seconds", Json::Num(secs)),
                ("programs_per_sec", Json::Num(progs.len() as f64 / secs)),
            ],
        );
    };
    pass_row("disabled", disabled_secs);

    // Raw disabled-span cost: a tight loop of enter+drop with tracing off.
    const SPAN_LOOPS: u64 = 4_000_000;
    let start = Instant::now();
    for i in 0..SPAN_LOOPS {
        let _s = obs::span!("bench.obs.disabled");
        std::hint::black_box(i);
    }
    let ns_per_span = start.elapsed().as_secs_f64() * 1e9 / SPAN_LOOPS as f64;

    // How many spans one pass actually enters: run once with tracing on
    // and count the recorded events (every enter = one event).
    obs::trace::set_enabled(Some(true));
    obs::trace::reset();
    for prog in &progs {
        encode_pass(&mut ws, prog);
    }
    let data = obs::trace::drain();
    let spans_per_program =
        (data.events.len() as u64 + data.dropped) as f64 / progs.len() as f64;

    // The calibrated disabled-mode overhead bound.
    let per_program_ns = disabled_secs * 1e9 / progs.len() as f64;
    let overhead_frac = ns_per_span * spans_per_program / per_program_ns;

    // Informational: the enabled-mode cost of the same workload.
    let enabled_secs = measure_pass(&progs, rounds, |prog| encode_pass(&mut ws, prog));
    obs::trace::reset();
    obs::trace::set_enabled(Some(false));
    pass_row("enabled", enabled_secs);
    report.row(
        "spancost",
        vec![
            ("ns_per_span", Json::Num(ns_per_span)),
            ("spans_per_program", Json::Num(spans_per_program)),
            ("overhead_frac", Json::Num(overhead_frac)),
        ],
    );
    report.summary("overhead_frac", Json::Num(overhead_frac));
    report.summary("overhead_budget", Json::Num(0.02));
    report.summary("enabled_over_disabled", Json::Num(enabled_secs / disabled_secs));

    assert!(
        overhead_frac < 0.02,
        "disabled-mode span overhead {:.3}% exceeds the 2% budget \
         ({ns_per_span:.2}ns/span × {spans_per_program:.1} spans/program on {per_program_ns:.0}ns/program)",
        overhead_frac * 100.0,
    );
    report.finish();
}
