//! Pins source → encoded-program extraction bitwise.
//!
//! Every template of the shipped corpus (`Behavior::ALL` and
//! `Strategy::ALL`) is rendered under a few fixed knob draws and run
//! through the same route a `source` request takes: the feedback-directed
//! generator (`randgen::generate_grouped`, hashed with its `GenStats`)
//! and `liger::extract_encoded` against a vocabulary built by
//! `liger::vocab_from_sources` (hashed with `serve::server::content_hash`).
//! The digests were recorded from the fully traced generator, so any
//! change to the interpreter, the generator's keep decisions, its RNG
//! draws or the vocabulary fold shows up here as a different number.

use datagen::{Behavior, Knobs, Strategy};
use liger::{extract_encoded, vocab_from_sources, ExtractOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use store::hash::Fnv64;

/// The knob draws (seed of `Knobs::random`) and their pinned digests:
/// `(seed, generator digest, extraction digest)`.
const PINS: [(u64, u64, u64); 3] = [
    (1, 14_653_792_101_052_070_989, 8_826_415_937_872_270_834),
    (7, 9_515_004_469_763_076_876, 10_426_913_879_554_240_638),
    (20_200_615, 17_266_481_252_187_380_867, 1_706_597_900_171_255_515),
];

/// One render of every template under knobs drawn from `seed`.
fn renders(seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sources: Vec<String> =
        Behavior::ALL.iter().map(|b| b.render(&Knobs::random(&mut rng, 0.2))).collect();
    sources.extend(Strategy::ALL.iter().map(|s| s.render(&Knobs::random(&mut rng, 0.2))));
    sources
}

/// Hash of every path group (symbolic trace, inputs, states, return
/// values) and every `GenStats` the generator produces for `sources`
/// under the configuration `extract_encoded` uses.
fn generator_digest(sources: &[String], opts: &ExtractOptions) -> u64 {
    let mut h = Fnv64::new();
    for src in sources {
        let program = minilang::parse(src).unwrap();
        let gen = randgen::GenConfig {
            target_paths: opts.target_paths,
            concrete_per_path: opts.concrete_per_path,
            ..randgen::GenConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let (groups, stats) = randgen::generate_grouped(&program, &gen, &mut rng);
        h.str(&format!("{stats:?}"));
        h.str(&format!("{groups:?}"));
    }
    h.finish()
}

/// Hash of every encoded program `extract_encoded` returns for `sources`
/// against the vocabulary `vocab_from_sources` builds from them.
fn extraction_digest(sources: &[String], opts: &ExtractOptions) -> u64 {
    let vocab = vocab_from_sources(sources, opts).unwrap();
    let mut h = Fnv64::new();
    h.num(vocab.len() as u64);
    for src in sources {
        match extract_encoded(src, &vocab, opts) {
            Ok(prog) => h.num(serve::server::content_hash(&prog)),
            Err(e) => h.str(&e.to_string()),
        }
    }
    h.finish()
}

#[test]
fn template_extraction_matches_pinned_digests() {
    let opts = ExtractOptions::default();
    let mut got = Vec::new();
    for (seed, _, _) in PINS {
        let sources = renders(seed);
        assert_eq!(sources.len(), 53);
        got.push((seed, generator_digest(&sources, &opts), extraction_digest(&sources, &opts)));
    }
    assert_eq!(got, PINS, "extraction digests moved: (seed, generator, extraction)");
}

/// Runs `inputs` through both recording modes and asserts they agree on
/// the outcome, the error and the path.
fn assert_modes_agree(program: &minilang::Program, inputs: &[interp::Value], fuel: u64) -> bool {
    let interp = interp::Interpreter::new(program);
    let mut path = Vec::new();
    let path_only = interp.run_path(inputs, fuel, &mut path);
    match (path_only, interp.run(inputs, fuel)) {
        (Ok(()), Ok(run)) => {
            assert!(run.events.iter().map(|e| e.path_step()).eq(path.iter().copied()));
            true
        }
        (Err(a), Err(b)) => {
            assert_eq!(a, b);
            false
        }
        (a, b) => panic!("modes disagree on {inputs:?} at fuel {fuel}: {a:?} vs {:?}", b.err()),
    }
}

#[test]
fn path_only_runs_agree_with_traced_runs_on_every_template() {
    let mut rng = StdRng::seed_from_u64(5);
    let config = randgen::InputConfig::default();
    let (mut ok, mut failed) = (0, 0);
    for src in renders(3) {
        let program = minilang::parse(&src).unwrap();
        for attempt in 0..40 {
            let inputs = randgen::random_inputs(&program, &config, &mut rng);
            // Every fourth attempt runs on a tiny budget, so out-of-fuel
            // cuts paths off mid-loop.
            let fuel = if attempt % 4 == 0 { 12 } else { 20_000 };
            if assert_modes_agree(&program, &inputs, fuel) {
                ok += 1;
            } else {
                failed += 1;
            }
        }
    }
    assert!(ok > 0 && failed > 0, "both outcomes must be exercised: {ok} ok, {failed} failed");
}
