//! Raw kernel throughput: fused batch-major GEMM GFLOP/s and end-to-end
//! f32 vs. int8 encoder throughput.
//!
//! Three measurements, each printed as a `KERNEL …` line (parsed by
//! `scripts/bench_json.sh` into `BENCH_kernels.json`):
//!
//! * **gemm** — `tensor::gemm_batch` on representative encoder shapes
//!   (hidden-sized panels and the vocab-projection shape), reported in
//!   GFLOP/s. An in-bench floor asserts the tiled loops actually
//!   autovectorized: a regression to scalar codegen lands well under the
//!   floor and fails CI.
//! * **encode_f32** — the tape-free batch-major `FloatEngine` over the
//!   tiny dataset (the same steady-state path `throughput_encode` gates
//!   at ≥ 5× the 441.9 programs/s PR 2 baseline).
//! * **encode_int8** — the `QuantEngine` over per-row-absmax int8 weights
//!   quantized from the same parameters, reported separately per the
//!   ROADMAP "raw encoder speed" item.

use std::time::Instant;

use liger::{EncodedProgram, FloatEngine, LigerConfig, LigerModel, QuantEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::{gemm_batch, ParamStore, QuantStore};

/// PR 2 steady-state baseline (BENCH_encode.json before this PR).
const BASELINE_PROGRAMS_PER_SEC: f64 = 441.9;

/// Autovectorization floor for the fused GEMM on the large shape. The
/// tiled kernel measures an order of magnitude above this on a 1-core
/// container host; scalar (non-SIMD) codegen of the same loops lands
/// well below it.
const GEMM_GFLOPS_FLOOR: f64 = 1.0;

fn time_best<F: FnMut() -> f64>(rounds: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    let mut sink = 0.0;
    for _ in 0..rounds {
        let start = Instant::now();
        sink += f();
        let secs = start.elapsed().as_secs_f64();
        if secs < best {
            best = secs;
        }
    }
    assert!(sink.is_finite(), "kernel produced non-finite output");
    best
}

/// Times `gemm_batch` on one `(rows × cols) · (k × cols)ᵀ` shape and
/// prints a `KERNEL mode=gemm` line. Returns the measured GFLOP/s.
fn gemm_shape(rows: usize, cols: usize, k: usize, reps: usize) -> f64 {
    let mut rng = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        // xorshift — deterministic fill, no rand dependency in the hot loop
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng >> 40) as f32 / (1u64 << 24) as f32 - 0.5
    };
    let w: Vec<f32> = (0..rows * cols).map(|_| next()).collect();
    let xs: Vec<f32> = (0..k * cols).map(|_| next()).collect();
    let bias: Vec<f32> = (0..rows).map(|_| next()).collect();
    let mut out = vec![0.0f32; k * rows];

    let secs = time_best(5, || {
        for _ in 0..reps {
            gemm_batch(&w, rows, cols, &xs, k, Some(&bias), &mut out);
        }
        out[0] as f64
    });
    // 2 flops (mul + add) per weight element per batch item, plus the bias add.
    let flops = reps as f64 * k as f64 * (2.0 * rows as f64 * cols as f64 + rows as f64);
    let gflops = flops / secs / 1e9;
    println!(
        "KERNEL mode=gemm rows={rows} cols={cols} batch={k} reps={reps} secs={secs:.6} gflops={gflops:.2}"
    );
    gflops
}

fn main() {
    println!("\nfused kernel throughput (GEMM GFLOP/s, f32 vs int8 encode)");

    // Representative encoder shapes: the f3 recurrence panel (hidden x hidden
    // at the dataset's live-lane width), a wider MLP-ish panel, and the
    // vocab-projection shape that dominates decoding.
    gemm_shape(16, 16, 52, 4000);
    let big = gemm_shape(64, 64, 64, 1000);
    gemm_shape(256, 64, 16, 500);

    let ds = bench::tiny_dataset();
    let mut rng = StdRng::seed_from_u64(41);
    let mut store = ParamStore::new();
    let cfg = LigerConfig { hidden: 16, attn: 16, ..LigerConfig::default() };
    let model = LigerModel::new(&mut store, ds.vocabs.input.len(), cfg, &mut rng);
    let progs: Vec<EncodedProgram> =
        ds.train.iter().chain(ds.test.iter()).map(|s| s.liger.clone()).collect();
    let prog_refs: Vec<&EncodedProgram> = progs.iter().collect();

    // f32 batch-major engine: whole dataset as one fused minibatch.
    let mut fe = FloatEngine::new(&store);
    let f32_secs = time_best(5, || {
        let outs = fe.encode_batch(&model, &prog_refs);
        outs.iter().map(|o| o.program.iter().sum::<f32>() as f64).sum()
    });
    let f32_rate = progs.len() as f64 / f32_secs;
    println!(
        "KERNEL mode=encode_f32 programs={} secs={f32_secs:.6} programs_per_sec={f32_rate:.2}",
        progs.len()
    );

    // int8 engine: same parameters quantized to per-row-absmax int8, the
    // same batch-major pass.
    let qs = QuantStore::quantize(&store);
    let mut qe = QuantEngine::new(&qs);
    let int8_secs = time_best(5, || {
        let outs = qe.encode_batch(&model, &prog_refs);
        outs.iter().map(|o| o.program.iter().sum::<f32>() as f64).sum()
    });
    let int8_rate = progs.len() as f64 / int8_secs;
    println!(
        "KERNEL mode=encode_int8 programs={} secs={int8_secs:.6} programs_per_sec={int8_rate:.2}",
        progs.len()
    );

    println!(
        "KERNEL mode=summary gemm_gflops={big:.2} f32_programs_per_sec={f32_rate:.2} \
         int8_programs_per_sec={int8_rate:.2} baseline_programs_per_sec={BASELINE_PROGRAMS_PER_SEC} \
         f32_speedup_vs_baseline={:.2} int8_speedup_vs_baseline={:.2}",
        f32_rate / BASELINE_PROGRAMS_PER_SEC,
        int8_rate / BASELINE_PROGRAMS_PER_SEC,
    );

    assert!(
        big >= GEMM_GFLOPS_FLOOR,
        "gemm_batch measured {big:.2} GFLOP/s on 64x64xk=64, below the {GEMM_GFLOPS_FLOOR} \
         autovectorization floor — tiled inner loops likely regressed to scalar codegen"
    );
    assert!(
        f32_rate >= 5.0 * BASELINE_PROGRAMS_PER_SEC,
        "f32 batch-major encode {f32_rate:.1} programs/s below 5x the {BASELINE_PROGRAMS_PER_SEC} baseline"
    );
}
