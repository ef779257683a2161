//! Quickstart: the whole pipeline on one method.
//!
//! Parse a MiniLang method, collect concrete executions with the
//! feedback-directed generator, group them into blended traces, train
//! LIGER for a few epochs, and predict the method's name. The trained
//! model is checkpointed to `quickstart.lgrb`; later runs load it and
//! skip training (pass `--retrain` to force a fresh run).
//!
//! ```text
//! cargo run --release --example quickstart              # first run: trains + saves
//! cargo run --release --example quickstart              # later runs: loads
//! cargo run --release --example quickstart -- --retrain # force retraining
//! cargo run --release --example quickstart -- --profile # + quickstart.trace.json
//! ```
//!
//! `--profile` (or `LIGER_PROFILE=1`) turns on span tracing: a summary
//! tree and metrics table go to stderr, and the full timeline is written
//! to `quickstart.trace.json` in chrome://tracing "Trace Event" format.

use liger::{
    encode_program, program_into_vocab, EncodeOptions, LigerConfig, LigerNamer, ModelBundle,
    NameSample, OutVocab, TrainConfig, Vocab,
};
use rand::SeedableRng;

const CKPT_PATH: &str = "quickstart.lgrb";

const TRACE_PATH: &str = "quickstart.trace.json";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let retrain = std::env::args().any(|a| a == "--retrain");
    let profile = std::env::args().any(|a| a == "--profile");
    let args: Vec<String> = std::env::args().collect();
    let store_path = args
        .iter()
        .position(|a| a == "--store-path")
        .and_then(|i| args.get(i + 1).cloned());
    if profile {
        obs::trace::set_enabled(Some(true));
    }
    let result = {
        // Root span around the whole pipeline, so the emitted trace has a
        // single top-level event covering ~all wall time.
        let _root = obs::span!("quickstart");
        run(retrain, store_path.as_deref())
    };
    if profile || obs::trace::enabled() {
        // Collect once: the write drains the recorded events, then the
        // same profile feeds the stderr report.
        let profile = obs::write_chrome_trace(TRACE_PATH)?;
        obs::export::report_profile("quickstart", &profile);
        eprintln!(
            "quickstart: wrote {} span event(s) to {TRACE_PATH}",
            profile.data.events.len()
        );
    }
    result
}

fn run(retrain: bool, store_path: Option<&str>) -> Result<(), Box<dyn std::error::Error>> {
    let source = "fn maxArray(a: array<int>) -> int {
        if (len(a) == 0) { return 0; }
        let best: int = a[0];
        for (let i: int = 1; i < len(a); i += 1) {
            if (a[i] > best) { best = a[i]; }
        }
        return best;
    }";
    println!("== Source ==\n{source}\n");

    // Optional artifact store: traces and the final embedding are keyed by
    // the source's content hash, so a warm rerun skips the dynamic side
    // entirely and the `store:` line at the end reports zero misses.
    let astore = match store_path {
        Some(dir) => Some(store::Store::open(std::path::Path::new(dir))?),
        None => None,
    };
    let stats_before = store::StoreStats::snapshot();
    let key = store::hash::fnv1a_str(source);

    // 1. Front end: parse and type-check.
    let program = minilang::parse(source)?;
    minilang::typecheck(&program)?;

    // 2. Dynamic side: feedback-directed random executions, grouped by
    //    program path (the Randoop role, §6.1 of the paper).
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let gen_config = randgen::GenConfig {
        target_paths: 6,
        concrete_per_path: 3,
        ..randgen::GenConfig::default()
    };
    let trace_fp = format!(
        "quickstart@1/p{}/c{}/a{}/f{}",
        gen_config.target_paths, gen_config.concrete_per_path, gen_config.max_attempts,
        gen_config.fuel
    );
    let groups = if let Some(st) = &astore {
        if let Some(payload) = st.get(store::ArtifactKind::TraceGroups, key, &trace_fp)? {
            let groups = trace::persist::groups_from_bytes(&payload)?;
            println!("store: replayed {} cached path group(s) — no executions", groups.len());
            groups
        } else {
            // A per-program RNG keeps the traces a pure function of the
            // source, so the cached artifact replays bitwise.
            let mut trace_rng =
                rand::rngs::StdRng::seed_from_u64(store::hash::splitmix64(key ^ 42));
            let (groups, stats) = randgen::generate_grouped(&program, &gen_config, &mut trace_rng);
            println!(
                "collected {} executions over {} paths ({} attempts, {} failures)",
                stats.kept, stats.paths, stats.attempts, stats.failures
            );
            st.put(
                store::ArtifactKind::TraceGroups,
                key,
                &trace_fp,
                &trace::persist::groups_to_bytes(&groups),
            )?;
            groups
        }
    } else {
        let (groups, stats) = randgen::generate_grouped(&program, &gen_config, &mut rng);
        println!(
            "collected {} executions over {} paths ({} attempts, {} failures)",
            stats.kept, stats.paths, stats.attempts, stats.failures
        );
        groups
    };

    // 3. Blend: pair each path's symbolic trace with its concrete states
    //    (Definition 5.1).
    let blended: Vec<trace::BlendedTrace> =
        groups.iter().filter_map(|g| g.blend(3).ok()).collect();
    println!("built {} blended traces\n", blended.len());

    // 4. The model-ready encoding. The checkpoint carries the trained
    //    vocabulary, so only the training path builds one from scratch.
    let opts = EncodeOptions::default();
    let cfg = LigerConfig { hidden: 16, attn: 16, ..LigerConfig::default() };

    // 5. Load the checkpoint if one exists; otherwise train and save it.
    let bundle = match (retrain, ModelBundle::load_from_path(CKPT_PATH)) {
        (false, Ok(bundle)) => {
            println!("loaded checkpoint {CKPT_PATH} — skipping training");
            bundle
        }
        (retrain, load_result) => {
            if let (false, Err(e)) = (retrain, &load_result) {
                println!("no usable checkpoint ({e}); training from scratch");
            } else {
                println!("--retrain: training from scratch");
            }
            let mut vocab = Vocab::new();
            program_into_vocab(&program, &blended, &mut vocab, &opts);
            let mut out_vocab = OutVocab::new();
            for t in minilang::subtokens("maxArray") {
                out_vocab.add(&t);
            }
            let encoded = encode_program(&program, &blended, &vocab, &opts);
            println!(
                "input vocabulary: {} tokens; encoded steps: {}",
                vocab.len(),
                encoded.total_steps()
            );

            let mut store = tensor::ParamStore::new();
            let namer =
                LigerNamer::new(&mut store, vocab.len(), out_vocab.len(), cfg, &mut rng);
            let samples = vec![NameSample {
                program: encoded.clone(),
                target: out_vocab.encode_name("maxArray"),
            }];
            let tc = TrainConfig { epochs: 30, lr: 0.05, batch_size: 1 };
            let losses = liger::train_namer(&namer, &mut store, &samples, &tc, &mut rng);
            println!(
                "training loss: {:.3} → {:.3} over {} epochs",
                losses[0],
                losses.last().unwrap(),
                losses.len()
            );

            let bundle = ModelBundle::for_namer(cfg, vocab, out_vocab, store);
            bundle.save_to_path(CKPT_PATH)?;
            println!("saved checkpoint to {CKPT_PATH} — the next run will load it\n(serve it with: cargo run --bin liger-serve -- --ckpt {CKPT_PATH})");
            bundle
        }
    };

    // 6. Predict from the (possibly reloaded) checkpoint.
    let inferencer = liger::Inferencer::from_bundle(&bundle)?;
    let encoded = encode_program(&program, &blended, &inferencer.vocab, &opts);
    let predicted = inferencer.name(&encoded).expect("quickstart bundle is a namer");
    println!("\npredicted name sub-tokens: {predicted:?}");
    println!("joined: {}", minilang::join_subtokens(&predicted));

    // 6b. With a store: resolve the program embedding through it. The
    // fingerprint carries the model digest and the encode knobs, so a
    // retrained checkpoint or changed flag reads as a miss, never a
    // wrong hit.
    if let Some(st) = &astore {
        let emb_fp =
            format!("{}/ms{}/mt{}", bundle.fingerprint(), opts.max_steps, opts.max_traces);
        let embedding = match st.get(store::ArtifactKind::Embedding, key, &emb_fp)? {
            Some(payload) => store::embedding_from_bytes(&payload)?,
            None => {
                let emb = inferencer.embed(&encoded);
                st.put(store::ArtifactKind::Embedding, key, &emb_fp, &store::embedding_to_bytes(&emb))?;
                emb
            }
        };
        println!("embedding: {} dims under fingerprint {emb_fp}", embedding.len());
        println!("store: {}", store::StoreStats::snapshot().since(&stats_before));
    }

    Ok(())
}
