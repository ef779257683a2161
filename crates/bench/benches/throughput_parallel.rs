//! Throughput of the deterministic data-parallel minibatch engine.
//!
//! Trains the LIGER namer on the same workload at 1/2/4/8 worker threads
//! and reports training throughput in examples/sec for each count (one
//! `train` row per count; the report lands in `BENCH_parallel.json` via
//! `--json PATH`). The determinism contract means every run ends at
//! bitwise-identical parameters — asserted here on every sweep — so the
//! thread count is purely a throughput knob.
//!
//! Scaling is bounded by the host: on a single-core machine all counts
//! collapse to serial speed (minus a little scope/spawn overhead). The
//! report header's `host.cores` records what the sweep actually had
//! available.

use std::time::Instant;

use bench::{Json, Report};
use liger::{LigerConfig, LigerNamer, NameSample, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::ParamStore;

fn workload() -> (LigerNamer, ParamStore, Vec<NameSample>) {
    let ds = bench::tiny_dataset();
    let mut rng = StdRng::seed_from_u64(9);
    let mut store = ParamStore::new();
    let cfg = LigerConfig { hidden: 16, attn: 16, ..LigerConfig::default() };
    let namer = LigerNamer::new(
        &mut store,
        ds.vocabs.input.len(),
        ds.vocabs.output.len(),
        cfg,
        &mut rng,
    );
    let samples: Vec<NameSample> = ds
        .train
        .iter()
        .map(|s| NameSample { program: s.liger.clone(), target: s.target.clone() })
        .collect();
    (namer, store, samples)
}

/// One full training run at a pinned thread count; returns (seconds,
/// parameter bits) with seconds taken as the best of three repeats.
fn timed_run(
    namer: &LigerNamer,
    store: &ParamStore,
    samples: &[NameSample],
    tc: &TrainConfig,
    threads: usize,
) -> (f64, Vec<u32>) {
    par::set_threads(Some(threads));
    let mut best = f64::INFINITY;
    let mut bits = Vec::new();
    for _ in 0..3 {
        let mut s = store.clone();
        let mut rng = StdRng::seed_from_u64(77);
        let start = Instant::now();
        liger::train_namer(namer, &mut s, samples, tc, &mut rng);
        let secs = start.elapsed().as_secs_f64();
        if secs < best {
            best = secs;
        }
        bits = s.iter().flat_map(|p| p.value.data().iter().map(|v| v.to_bits())).collect();
    }
    par::set_threads(None);
    (best, bits)
}

fn main() {
    let mut report = Report::new(
        "throughput_parallel",
        "train_namer on the tiny method-name dataset, 2 epochs, batch_size 8, at 1/2/4/8 \
         worker threads (bitwise-identical parameters asserted in-bench)",
        bench::Args::parse(),
    );
    let (namer, store, samples) = workload();
    let tc = TrainConfig { epochs: 2, lr: 0.01, batch_size: 8 };
    let examples = samples.len() * tc.epochs;
    println!("\nparallel minibatch training throughput");
    let mut reference: Option<Vec<u32>> = None;
    let mut serial_rate = 0.0f64;
    for &threads in &[1usize, 2, 4, 8] {
        let (secs, bits) = timed_run(&namer, &store, &samples, &tc, threads);
        match &reference {
            None => reference = Some(bits),
            Some(r) => assert_eq!(
                r, &bits,
                "determinism violated: {threads} threads diverged from serial"
            ),
        }
        let rate = examples as f64 / secs;
        report.row(
            "train",
            vec![
                ("threads", Json::num(threads)),
                ("examples", Json::num(examples)),
                ("seconds", Json::Num(secs)),
                ("examples_per_sec", Json::Num(rate)),
            ],
        );
        if threads == 1 {
            serial_rate = rate;
        } else {
            // Configured thread counts beyond the host's OS threads must be
            // at worst neutral: logical chunking is decoupled from OS-thread
            // scheduling, so asking for 8 workers on a 1-core host runs all
            // chunks inline instead of paying 8 spawns per batch. 15% slack
            // absorbs timer noise on a shared host.
            assert!(
                rate >= 0.85 * serial_rate,
                "throughput degraded with thread count: {threads} threads ran at \
                 {rate:.1} ex/s vs {serial_rate:.1} ex/s serial"
            );
            if threads == 2 {
                report.summary("two_over_one_thread", Json::Num(rate / serial_rate));
            }
        }
    }
    report.finish();
}
