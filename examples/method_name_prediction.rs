//! Method-name prediction (the paper's §6.1 task) at example scale:
//! generates a small corpus, trains all four models, and prints a
//! Table 2-style comparison.
//!
//! ```text
//! cargo run --release --example method_name_prediction
//! cargo run --release --example method_name_prediction -- --save liger.ckpt
//! cargo run --release --example method_name_prediction -- --load liger.ckpt
//! cargo run --release --example method_name_prediction -- --profile
//! ```
//!
//! `--save` trains only LIGER and writes a binary checkpoint;
//! `--load` evaluates a saved checkpoint without retraining.
//! `--profile` (or `LIGER_PROFILE=1`) records span timings and writes
//! `method_name_prediction.trace.json` (chrome://tracing format).

use eval::{
    eval_method_namer, load_method_namer, table2, table2_markdown, train_method_namer, Cells,
    PathLevel, Scale,
};
use liger::Ablation;

const TRACE_PATH: &str = "method_name_prediction.trace.json";

fn main() {
    let profiling = std::env::args().any(|a| a == "--profile");
    if profiling {
        obs::trace::set_enabled(Some(true));
    }
    {
        let _root = obs::span!("method_name_prediction");
        run();
    }
    if profiling || obs::trace::enabled() {
        match obs::write_chrome_trace(TRACE_PATH) {
            Ok(profile) => {
                obs::export::report_profile("method_name_prediction", &profile);
                eprintln!(
                    "method_name_prediction: wrote {} span event(s) to {TRACE_PATH}",
                    profile.data.events.len()
                );
            }
            Err(e) => eprintln!("cannot write {TRACE_PATH}: {e}"),
        }
    }
}

fn run() {
    let args: Vec<String> =
        std::env::args().skip(1).filter(|a| a != "--profile").collect();
    let flag_value = |name: &str| {
        args.iter().position(|a| a == name).map(|i| {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("{name} needs a path argument");
                std::process::exit(2);
            })
        })
    };
    let save = flag_value("--save");
    let load = flag_value("--load");

    let cells = Cells::new(Scale::tiny());
    let scale = cells.scale();
    println!("generating the method-name corpus at scale '{}'…", scale.name);
    let (dataset, stats) = cells.method();
    println!(
        "corpus: {} generated → {} kept ({} no-compile, {} no-exec, {} timeout, {} too-small)",
        stats.original, stats.kept, stats.no_compile, stats.no_exec, stats.timeout, stats.too_small
    );
    println!(
        "split: {} train / {} test; input vocabulary {} tokens\n",
        dataset.train.len(),
        dataset.test.len(),
        dataset.vocabs.input.len()
    );

    let (paths, concrete) = (PathLevel::Full, scale.concrete_per_path);
    if let Some(path) = load {
        println!("loading LIGER checkpoint from {path}…");
        let (namer, store) = load_method_namer(dataset, scale, Ablation::Full, &path)
            .unwrap_or_else(|e| {
                eprintln!("cannot load checkpoint: {e}");
                std::process::exit(2);
            });
        let (scores, _) = eval_method_namer(&namer, &store, dataset, scale, paths, concrete);
        println!(
            "LIGER (from checkpoint): precision {:.1}%, recall {:.1}%, F1 {:.1}%",
            scores.precision, scores.recall, scores.f1
        );
        return;
    }
    if let Some(path) = save {
        println!("training LIGER only (skipping baselines for --save)…");
        let (namer, store) = train_method_namer(dataset, scale, Ablation::Full, paths, concrete);
        let (scores, _) = eval_method_namer(&namer, &store, dataset, scale, paths, concrete);
        println!(
            "LIGER: precision {:.1}%, recall {:.1}%, F1 {:.1}%",
            scores.precision, scores.recall, scores.f1
        );
        if let Err(e) = store.save_to_path(&path) {
            eprintln!("cannot save checkpoint to {path}: {e}");
            std::process::exit(2);
        }
        println!("saved binary checkpoint to {path} (reload with --load {path})");
        return;
    }

    println!("training code2vec, code2seq, DYPRO, and LIGER (this takes a minute)…\n");
    let rows = table2(&cells);
    println!("{}", table2_markdown(&scale.name, &rows));

    let best = rows
        .iter()
        .max_by(|a, b| a.1.f1.partial_cmp(&b.1.f1).expect("finite"))
        .expect("rows non-empty");
    println!("best model by F1: {}", best.0);
    println!(
        "\n(Paper shape on full-scale data: LIGER > DYPRO > code2seq > code2vec.\n\
         `cargo bench -p bench --bench paper` regenerates Table 2 at bench\n\
         scale; `LIGER_SCALE=med` selects a bigger corpus.)"
    );
}
