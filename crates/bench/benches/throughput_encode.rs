//! Encoder throughput and allocation pressure, cold vs. steady-state.
//!
//! Measures the LIGER encoder forward pass over the tiny method-name
//! dataset three ways:
//!
//! * **cold** — a fresh `Graph` per program, uncached `encode` (the
//!   pre-arena behaviour: every tensor is a fresh heap allocation);
//! * **per_program** — one persistent `Workspace` per run, `reset()`
//!   between programs, memoized `encode_memo` (arena reuse + buffer
//!   pooling + span-replay: steady-state allocations come only from
//!   tape/bookkeeping growth, not tensor storage);
//! * **steady** — the batch-major tape-free path: `Engine::encode_batch`
//!   over the whole dataset, so the f₃ flow recurrence runs
//!   one fused `gemm_batch` panel per weight matrix per lockstep across
//!   every live trace, statement/state embeddings memoize *across*
//!   programs (merged pool), and no autodiff tape is recorded at all.
//!   Asserted bitwise-identical to the cold path, and asserted at least
//!   [`ENGINE_OVER_TAPE_FLOOR`]× the memoized tape (`per_program`)
//!   measured in the same run.
//!
//! A counting `#[global_allocator]` tallies every heap allocation made
//! inside each timed region, giving honest allocations-per-program
//! numbers for every mode. The report lands in `BENCH_encode.json`
//! (`--json PATH`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use bench::{Json, Report};
use liger::{EncodedProgram, Engine, LigerConfig, LigerModel, Workspace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::{Graph, ParamStore};

/// The tape-free engine's steady state must run at least this many times
/// the memoized tape encoder's rate, both timed in the same interleaved
/// rounds so that host load cancels out. On a 2-vCPU x86-64 host the
/// ratio measured 1.63–2.29 over 54 runs, 10 of them beside a competing
/// CPU-bound process; an engine that fell back to tape speed sits near
/// 1.0.
const ENGINE_OVER_TAPE_FLOOR: f64 = 1.5;

/// Global allocator shim that counts allocations and allocated bytes.
/// Frees are deliberately not counted: the metric is allocation
/// *pressure* (how often we go to the heap), which is what pooling
/// eliminates.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn snapshot() -> (u64, u64) {
    (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

struct Measured {
    secs: f64,
    allocs_per_program: f64,
    bytes_per_program: f64,
}

/// Times `rounds` rounds of every pass in `passes` (each one pass over
/// all `programs`), interleaved round by round so that a change in host
/// load hits every mode alike and the ratios between modes hold still.
/// Per pass, seconds are best-of-rounds and allocation counts come from
/// the *last* round, where pools and arenas have reached their steady
/// state.
fn measure<const N: usize>(
    programs: usize,
    rounds: usize,
    mut passes: [&mut dyn FnMut() -> u64; N],
) -> [Measured; N] {
    let mut out = [(); N].map(|_| Measured {
        secs: f64::INFINITY,
        allocs_per_program: 0.0,
        bytes_per_program: 0.0,
    });
    for _ in 0..rounds {
        for (pass, m) in passes.iter_mut().zip(&mut out) {
            let (a0, b0) = snapshot();
            let start = Instant::now();
            let checksum = pass();
            let secs = start.elapsed().as_secs_f64();
            let (a1, b1) = snapshot();
            assert!(checksum != 0, "encoder produced all-zero embeddings");
            m.secs = m.secs.min(secs);
            m.allocs_per_program = (a1 - a0) as f64 / programs as f64;
            m.bytes_per_program = (b1 - b0) as f64 / programs as f64;
        }
    }
    out
}

fn bits(values: &[f32]) -> u64 {
    values.iter().map(|v| v.to_bits() as u64).sum()
}

fn main() {
    let mut report = Report::new(
        "throughput_encode",
        "LIGER encoder forward over the tiny method-name dataset: cold tape (fresh graph, \
         uncached), memoized tape (reused workspace), and the batch-major tape-free engine, \
         measured in interleaved rounds",
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
    let n = progs.len();
    println!("\nencoder forward throughput and allocation pressure ({n} programs)");

    // Memoized tape: one workspace, reset between programs. Warm one full
    // pass first so the arena and buffer pool reach their high-water marks;
    // also assert bitwise identity against the cold path.
    let mut ws = Workspace::new();
    for prog in &progs {
        ws.reset();
        let out = model.encode_memo(&mut ws, &store, prog);
        let mut g = Graph::new();
        let cold_out = model.encode(&mut g, &store, prog);
        assert_eq!(
            ws.graph.value(out.program).data(),
            g.value(cold_out.program).data(),
            "memoized embedding diverged from uncached"
        );
    }

    // Batch-major steady state: the whole dataset as one tape-free
    // minibatch — every flow step two fused GEMM panels, embeddings
    // memoized across programs. Warm once with a bitwise check against
    // the cold tape reference (the engine's exactness contract).
    let prog_refs: Vec<&EncodedProgram> = progs.iter().collect();
    let mut engine = Engine::new(&store);
    for (prog, out) in progs.iter().zip(engine.encode_batch(&model, &prog_refs)) {
        let mut g = Graph::new();
        let cold_out = model.encode(&mut g, &store, prog);
        assert_eq!(
            g.value(cold_out.program).data(),
            &out.program[..],
            "batch-major engine embedding diverged from the tape"
        );
    }

    let rounds = 10;
    let modes = ["cold", "per_program", "steady"];
    let measured = measure(
        n,
        rounds,
        [
            // Cold: fresh graph, uncached encode — every pass allocates
            // from scratch.
            &mut || {
                progs
                    .iter()
                    .map(|prog| {
                        let mut g = Graph::new();
                        let out = model.encode(&mut g, &store, prog);
                        bits(g.value(out.program).data())
                    })
                    .fold(0, u64::wrapping_add)
            },
            &mut || {
                progs
                    .iter()
                    .map(|prog| {
                        ws.reset();
                        let out = model.encode_memo(&mut ws, &store, prog);
                        bits(ws.graph.value(out.program).data())
                    })
                    .fold(0, u64::wrapping_add)
            },
            &mut || {
                let outs = engine.encode_batch(&model, &prog_refs);
                outs.iter().map(|o| bits(&o.program)).fold(0, u64::wrapping_add)
            },
        ],
    );
    for (mode, m) in modes.iter().zip(&measured) {
        report.row(
            mode,
            vec![
                ("programs", Json::num(n)),
                ("rounds", Json::num(rounds)),
                ("seconds", Json::Num(m.secs)),
                ("programs_per_sec", Json::Num(n as f64 / m.secs)),
                ("allocs_per_program", Json::Num(m.allocs_per_program)),
                ("bytes_per_program", Json::Num(m.bytes_per_program)),
            ],
        );
    }
    let [cold, per_program, steady] = measured;

    // Allocation-pressure gate: cold vs. the persistent-workspace tape path
    // (what arena reuse + buffer pooling eliminate). The fused gate/attention
    // ops collapse several tape nodes into one, which leaned out the *cold*
    // path roughly 4x, so a 10x cold/steady ratio is no longer reachable
    // from a much cheaper cold baseline; 3x still catches a pooling
    // regression.
    let reduction = cold.allocs_per_program / per_program.allocs_per_program.max(1.0);
    let engine_over_tape = per_program.secs / steady.secs;
    report.summary("alloc_reduction", Json::Num(reduction));
    report.summary("alloc_reduction_floor", Json::Num(3.0));
    report.summary("steady_over_per_program", Json::Num(engine_over_tape));
    report.summary("steady_over_per_program_floor", Json::Num(ENGINE_OVER_TAPE_FLOOR));
    report.summary("steady_over_cold", Json::Num(cold.secs / steady.secs));
    report.summary("memo_replays", Json::Num(ws.replays() as f64));
    assert!(
        reduction >= 3.0,
        "steady-state allocation reduction {reduction:.1}x below the 3x target"
    );
    assert!(
        engine_over_tape >= ENGINE_OVER_TAPE_FLOOR,
        "batch-major steady state ran only {engine_over_tape:.2}x the memoized tape encoder \
         (floor {ENGINE_OVER_TAPE_FLOOR}x): the tape-free engine lost its lead"
    );
    report.finish();
}
