//! Raw kernel throughput: fused batch-major GEMM GFLOP/s.
//!
//! `tensor::gemm_batch` on representative encoder shapes (hidden-sized
//! panels and the vocab-projection shape), one `gemm` row each in
//! GFLOP/s. An in-bench floor asserts the tiled loops actually
//! autovectorized: a regression to scalar codegen lands well under the
//! floor and fails CI. End-to-end encoder throughput is measured by
//! `throughput_encode`. The report lands in
//! `BENCH_kernels.json` (`--json PATH`).

use std::time::Instant;

use bench::{Json, Report};
use tensor::gemm_batch;

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
/// adds a `gemm` row. Returns the measured GFLOP/s.
fn gemm_shape(report: &mut Report, rows: usize, cols: usize, k: usize, reps: usize) -> f64 {
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
    report.row(
        "gemm",
        vec![
            ("rows", Json::num(rows)),
            ("cols", Json::num(cols)),
            ("batch", Json::num(k)),
            ("reps", Json::num(reps)),
            ("seconds", Json::Num(secs)),
            ("gflops", Json::Num(gflops)),
        ],
    );
    gflops
}

fn main() {
    let mut report = Report::new(
        "throughput_kernels",
        "gemm_batch on representative encoder shapes, GFLOP/s (autovectorization floor \
         asserted in-bench)",
        bench::Args::parse(),
    );
    println!("\nfused kernel throughput (GEMM GFLOP/s)");

    // Representative encoder shapes: the f3 recurrence panel (hidden x hidden
    // at the dataset's live-lane width), a wider MLP-ish panel, and the
    // vocab-projection shape that dominates decoding.
    gemm_shape(&mut report, 16, 16, 52, 4000);
    let big = gemm_shape(&mut report, 64, 64, 64, 1000);
    gemm_shape(&mut report, 256, 64, 16, 500);

    report.summary("gemm_gflops", Json::Num(big));
    report.summary("gemm_gflops_floor", Json::Num(GEMM_GFLOPS_FLOOR));
    assert!(
        big >= GEMM_GFLOPS_FLOOR,
        "gemm_batch measured {big:.2} GFLOP/s on 64x64xk=64, below the {GEMM_GFLOPS_FLOOR} \
         autovectorization floor — tiled inner loops likely regressed to scalar codegen"
    );
    report.finish();
}
