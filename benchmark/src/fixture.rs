//! The served model: a small namer trained deterministically from a fixed
//! seed, written as an `LGRB1` checkpoint. `--seed` never reaches it, so
//! every run and every seed serves the same weights.

use datagen::{Behavior, Knobs, Strategy};
use liger::{
    extract_encoded, train_namer, vocab_from_sources, ExtractOptions, LigerConfig, LigerNamer,
    ModelBundle, NameSample, OutVocab, TrainConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seed of the renders, the initial weights and the training order.
pub const MODEL_SEED: u64 = 20_200_615;

/// Renders per `Behavior` (training set and vocabulary) and per
/// `Strategy` (vocabulary only).
pub const RENDERS: usize = 4;

/// Encoder width of the `--demo` model and of `Scale::bench`.
pub const HIDDEN: usize = 16;

/// Passes over the training set. Training here exists to give the served
/// weights realistic magnitudes, not accuracy, so it is kept short: it
/// is repeated for every set-up trial.
pub const EPOCHS: usize = 2;

/// Trains the fixture and returns its checkpoint bytes.
///
/// # Errors
///
/// Returns a description when a render fails to trace, which would mean
/// the template catalogue broke.
pub fn build() -> Result<Vec<u8>, String> {
    let opts = ExtractOptions::default();
    let mut rng = StdRng::seed_from_u64(MODEL_SEED);
    let mut named: Vec<(String, Behavior)> = Vec::new();
    for b in Behavior::ALL {
        for _ in 0..RENDERS {
            named.push((
                b.render(&Knobs::random(&mut rng, crate::workload::MISLEADING)),
                b,
            ));
        }
    }
    let mut sources: Vec<String> = named.iter().map(|(src, _)| src.clone()).collect();
    for s in Strategy::ALL {
        for _ in 0..RENDERS {
            sources.push(s.render(&Knobs::random(&mut rng, crate::workload::MISLEADING)));
        }
    }
    let vocab = vocab_from_sources(&sources, &opts).map_err(|e| format!("vocabulary: {e}"))?;

    let mut out = OutVocab::new();
    for b in Behavior::ALL {
        for sub in minilang::subtokens(b.name()) {
            out.add(&sub);
        }
    }
    let samples = named
        .iter()
        .map(|(src, b)| {
            Ok(NameSample {
                program: extract_encoded(src, &vocab, &opts)
                    .map_err(|e| format!("{}: {e}", b.name()))?,
                target: out.encode_name(b.name()),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;

    let cfg = LigerConfig {
        hidden: HIDDEN,
        attn: HIDDEN,
        ..LigerConfig::default()
    };
    let mut store = tensor::ParamStore::new();
    let namer = LigerNamer::new(&mut store, vocab.len(), out.len(), cfg, &mut rng);
    let tc = TrainConfig {
        epochs: EPOCHS,
        lr: 0.02,
        batch_size: 8,
    };
    train_namer(&namer, &mut store, &samples, &tc, &mut rng);
    Ok(ModelBundle::for_namer(cfg, vocab, out, store).to_bytes())
}
