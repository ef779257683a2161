//! Semantics classification (the paper's §6.2 COSET task) at example
//! scale: tell apart algorithmic strategies — bubble vs. insertion vs.
//! selection sort, Euclid-by-mod vs. Euclid-by-subtraction, … — that all
//! produce the same outputs.
//!
//! ```text
//! cargo run --release --example semantics_classification
//! cargo run --release --example semantics_classification -- --save liger-cls.ckpt
//! cargo run --release --example semantics_classification -- --load liger-cls.ckpt
//! cargo run --release --example semantics_classification -- --profile
//! ```
//!
//! `--save` trains only LIGER's classifier and writes a binary
//! checkpoint; `--load` evaluates a saved checkpoint without retraining.
//! `--profile` (or `LIGER_PROFILE=1`) records span timings and writes
//! `semantics_classification.trace.json` (chrome://tracing format).

use eval::{
    eval_coset_classifier, load_coset_classifier, table3, table3_markdown, train_coset_classifier,
    Cells, PathLevel, Scale,
};
use liger::Ablation;

const TRACE_PATH: &str = "semantics_classification.trace.json";

fn main() {
    let profiling = std::env::args().any(|a| a == "--profile");
    if profiling {
        obs::trace::set_enabled(Some(true));
    }
    {
        let _root = obs::span!("semantics_classification");
        run();
    }
    if profiling || obs::trace::enabled() {
        match obs::write_chrome_trace(TRACE_PATH) {
            Ok(profile) => {
                obs::export::report_profile("semantics_classification", &profile);
                eprintln!(
                    "semantics_classification: wrote {} span event(s) to {TRACE_PATH}",
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
    println!("generating the COSET-like corpus at scale '{}'…", scale.name);
    let (dataset, stats) = cells.coset();
    println!(
        "corpus: {} generated → {} kept; {} classes; {} train / {} test\n",
        stats.original,
        stats.kept,
        dataset.num_classes,
        dataset.train.len(),
        dataset.test.len()
    );

    // Show why this is hard: two strategies for the same problem are
    // I/O-identical.
    let knobs = datagen::Knobs::plain();
    let gcd_mod = datagen::Strategy::GcdMod.render(&knobs);
    let gcd_sub = datagen::Strategy::GcdSub.render(&knobs);
    let pm = minilang::parse(&gcd_mod).unwrap();
    let ps = minilang::parse(&gcd_sub).unwrap();
    let inputs = vec![interp::Value::Int(12), interp::Value::Int(18)];
    let out_mod = interp::run(&pm, &inputs).unwrap().return_value;
    let out_sub = interp::run(&ps, &inputs).unwrap().return_value;
    println!(
        "example confusable pair: gcd-by-mod({inputs:?}) = {out_mod}, gcd-by-subtraction = {out_sub} — \
         identical outputs, different algorithms to classify.\n"
    );

    let (paths, concrete) = (PathLevel::Full, scale.concrete_per_path);
    if let Some(path) = load {
        println!("loading LIGER classifier checkpoint from {path}…");
        let (cls, store) = load_coset_classifier(dataset, scale, Ablation::Full, &path)
            .unwrap_or_else(|e| {
                eprintln!("cannot load checkpoint: {e}");
                std::process::exit(2);
            });
        let scores = eval_coset_classifier(&cls, &store, dataset, scale, paths, concrete);
        println!(
            "LIGER (from checkpoint): accuracy {:.1}%, macro-F1 {:.2}",
            scores.accuracy, scores.f1
        );
        return;
    }
    if let Some(path) = save {
        println!("training LIGER only (skipping DYPRO for --save)…");
        let (cls, store) =
            train_coset_classifier(dataset, scale, Ablation::Full, paths, concrete);
        let scores = eval_coset_classifier(&cls, &store, dataset, scale, paths, concrete);
        println!("LIGER: accuracy {:.1}%, macro-F1 {:.2}", scores.accuracy, scores.f1);
        if let Err(e) = store.save_to_path(&path) {
            eprintln!("cannot save checkpoint to {path}: {e}");
            std::process::exit(2);
        }
        println!("saved binary checkpoint to {path} (reload with --load {path})");
        return;
    }

    println!("training DYPRO and LIGER classifiers…\n");
    let rows = table3(&cells);
    println!("{}", table3_markdown(&rows));
    println!(
        "(Paper shape: LIGER beats DYPRO — 85.4%/0.85 vs 81.6%/0.81 at full scale.)"
    );
}
