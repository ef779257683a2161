//! Every on-disk format through the one byte codec (`tensor::codec`):
//!
//! - the bytes each writer emits for a fixed sample are pinned by their
//!   FNV-1a digest, so a codec refactor cannot silently change a format
//!   (files written by older builds must keep loading);
//! - hostile length fields (`rows = cols = u32::MAX`, `dim = count =
//!   u32::MAX`) come back as typed errors instead of an allocation
//!   panic or abort;
//! - every strict prefix of a valid sample fails typed, and every
//!   single-byte flip either fails typed or decodes to a value the
//!   writer can write back — no decoder ever panics;
//! - checkpoint saves replace their file whole;
//! - bundles of the retired int8 form (`qparams`) are refused typed;
//! - the model fingerprint that keys index and store files is pinned.

use analysis::persist::{facts_from_bytes, facts_to_bytes, lint_from_bytes, lint_to_bytes};
use datagen::{outcome_from_bytes, outcome_to_bytes, FilterReason};
use interp::{EventKind, PathStep, State, TraceEvent, Value};
use liger::{LigerConfig, ModelBundle, OutVocab, Vocab};
use minilang::StmtId;
use store::{hash::fnv1a_bytes, ArtifactKind, Entry};
use tensor::{ParamStore, Tensor};
use trace::persist::{groups_from_bytes, groups_to_bytes};
use trace::{ExecutionTrace, PathGroup, SymbolicTrace};

fn sample_params() -> ParamStore {
    let mut store = ParamStore::new();
    let w = (0..12).map(|i| (i as f32 - 5.5) * 0.17).collect();
    store.add("enc.w", Tensor::from_vec(3, 4, w));
    store.add("enc.b", Tensor::vector(vec![0.125, -0.75, 1.0e-3]));
    store.add("odd name %x", Tensor::from_vec(0, 2, Vec::new()));
    store
}

fn sample_bundle() -> ModelBundle {
    let mut vocab = Vocab::new();
    for t in ["a", "b", "f %odd", "line\nbreak"] {
        vocab.add(t);
    }
    let mut out = OutVocab::new();
    out.add("find");
    out.add("max");
    let cfg = LigerConfig { hidden: 6, attn: 5, ..LigerConfig::default() };
    ModelBundle::for_namer(cfg, vocab, out, sample_params())
}

fn sample_index() -> index::EmbeddingStore {
    let mut store = index::EmbeddingStore::new(3, "demo@16");
    store.insert(0xdead_beef_cafe_f00d, &[1.0, 2.0, 2.0], &[4, 1, 4]).unwrap();
    store.insert(42, &[0.0, 0.0, 0.0], &[]).unwrap();
    store
}

fn sample_groups() -> Vec<PathGroup> {
    let (guard, exec) = (EventKind::Guard { taken: true }, EventKind::Exec);
    let event = |stmt, line, kind, values| TraceEvent {
        stmt: StmtId(stmt),
        line,
        kind,
        state: State { values },
    };
    let t = ExecutionTrace {
        initial_state: State { values: vec![Some(Value::Int(4)), None] },
        events: vec![
            event(0, 2, guard, vec![Some(Value::Int(4)), Some(Value::Bool(false))]),
            event(
                1,
                3,
                exec,
                vec![Some(Value::Array(vec![1, -2, 3])), Some(Value::Str("höi".into()))],
            ),
        ],
        return_value: Value::Int(-9),
        inputs: vec![Value::Int(4), Value::Array(vec![])],
    };
    let step = |stmt, kind| PathStep { stmt: StmtId(stmt), kind };
    let steps = vec![step(0, guard), step(1, exec)];
    vec![
        PathGroup { symbolic: SymbolicTrace { steps }, traces: vec![t.clone(), t] },
        PathGroup { symbolic: SymbolicTrace { steps: vec![] }, traces: vec![] },
    ]
}

fn sample_program() -> minilang::Program {
    let src = "fn f(n: int) -> int {\n\
               let s: int = 0;\n\
               if (true) { s = s + n; }\n\
               while (false) { s = s - 1; }\n\
               return s;\n\
               }";
    let mut p = minilang::parse(src).unwrap();
    minilang::typecheck(&p).unwrap();
    p.assign_ids();
    p
}

fn le(words: &[u32]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// One `LGR1` parameter record claiming `u32::MAX × u32::MAX` values.
fn hostile_lgr1() -> Vec<u8> {
    [&b"LGR1"[..], &le(&[1, 4]), b"wxyz", &le(&[u32::MAX, u32::MAX, 0])].concat()
}

/// A valid bundle header whose params blob is the hostile `LGR1` record.
fn hostile_bundle() -> Vec<u8> {
    let bytes = sample_bundle().to_bytes();
    let at = bytes.windows(8).position(|w| w == b"\nparams ").expect("params line") + 1;
    let blob = hostile_lgr1();
    [&bytes[..at], format!("params {}\n", blob.len()).as_bytes(), &blob].concat()
}

/// Decodes bytes and writes the decoded value back out, so values
/// compare through their canonical bytes.
type Reencode = fn(&[u8]) -> Result<Vec<u8>, String>;

fn re<T, E: std::fmt::Display>(
    b: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, E>,
    encode: impl Fn(&T) -> Vec<u8>,
) -> Result<Vec<u8>, String> {
    decode(b).map(|v| encode(&v)).map_err(|e| e.to_string())
}

/// One format's fixed sample, its pinned digest, its decoder, and
/// (when non-empty) a crafted header with hostile length fields.
struct Format {
    name: &'static str,
    bytes: Vec<u8>,
    pin: u64,
    reencode: Reencode,
    hostile: Vec<u8>,
}

fn formats() -> Vec<Format> {
    let (params, bundle, program) = (sample_params(), sample_bundle(), sample_program());
    let lgri_hostile = [&b"LGRI1"[..], &le(&[0, u32::MAX, u32::MAX])].concat();
    let entry = store::entry_to_bytes(ArtifactKind::Facts, 0xabcd, "fp@1", b"payload");
    let rejected = outcome_to_bytes(&Err(FilterReason::Timeout));
    let accepted = outcome_to_bytes(&Ok(sample_groups()));
    let facts = facts_to_bytes(&analysis::program_facts(&program));
    let embedding = store::embedding_to_bytes(&[1.0, -0.0, f32::MIN_POSITIVE, 3.25e-7]);
    let none = Vec::new;
    let f = |name, pin, bytes, hostile, reencode| Format { name, bytes, pin, reencode, hostile };
    vec![
        f("LGR1", 0xd198a7745f4bbf86, tensor::save_store_binary(&params), hostile_lgr1(), |b| {
            re(b, tensor::load_store_binary, tensor::save_store_binary)
        }),
        f("LGRB1 params", 0x15e5278dc698f826, bundle.to_bytes(), hostile_bundle(), |b| {
            re(b, ModelBundle::from_bytes, ModelBundle::to_bytes)
        }),
        f("LGRI1", 0xb590942d28414961, index::disk::to_bytes(&sample_index()), lgri_hostile, |b| {
            re(b, index::disk::from_bytes, index::disk::to_bytes)
        }),
        f("LGRS1", 0x331b6f7d63c8e475, entry, none(), |b| {
            re(b, store::entry_from_bytes, |e: &Entry| {
                store::entry_to_bytes(e.kind, e.key, &e.fingerprint, &e.payload)
            })
        }),
        f("trace groups", 0x0533ee3dcb0418d0, groups_to_bytes(&sample_groups()), none(), |b| {
            re(b, groups_from_bytes, |g| groups_to_bytes(g))
        }),
        f("corpus outcome", 0x125c6ce3c18ab90b, accepted, none(), |b| {
            re(b, outcome_from_bytes, outcome_to_bytes)
        }),
        f("corpus rejection", 0x08328607b4eb6c87, rejected, none(), |b| {
            re(b, outcome_from_bytes, outcome_to_bytes)
        }),
        f("facts", 0xcd64b3db99a3731b, facts, none(), |b| re(b, facts_from_bytes, facts_to_bytes)),
        f("lint", 0x0206b3bfda8b9497, lint_to_bytes(&analysis::lint::run(&program)), none(), |b| {
            re(b, lint_from_bytes, lint_to_bytes)
        }),
        f("embedding", 0xc0b78d6dcfe1a316, embedding, none(), |b| {
            re(b, store::embedding_from_bytes, |v| store::embedding_to_bytes(v))
        }),
    ]
}

/// The pins were recorded before the formats moved onto the shared
/// codec; a mismatch means a format's bytes changed.
#[test]
fn format_bytes_are_pinned() {
    let wrong: Vec<String> = formats()
        .iter()
        .filter(|f| fnv1a_bytes(&f.bytes) != f.pin)
        .map(|f| format!("{}: {:#018x}, pinned {:#018x}", f.name, fnv1a_bytes(&f.bytes), f.pin))
        .collect();
    assert!(wrong.is_empty(), "format bytes changed:\n{}", wrong.join("\n"));
}

/// Runs one decoder, turning a panic into `None`.
fn run(decode: Reencode, input: &[u8]) -> Option<Result<Vec<u8>, String>> {
    std::panic::catch_unwind(|| decode(input)).ok()
}

/// Every decoder against its hostile header, every strict prefix, and
/// every single-byte flip of its sample:
///
/// - a hostile header must fail typed;
/// - a strict prefix must fail typed or decode to the sample's value;
/// - a flipped byte may decode to another value, but that value must
///   write back to bytes that decode to themselves again.
#[test]
fn hostile_and_corrupt_inputs_are_typed_errors() {
    let mut failures = Vec::new();
    for Format { name, bytes, reencode, hostile, .. } in formats() {
        assert_eq!(reencode(&bytes).as_ref(), Ok(&bytes), "{name}: sample must roundtrip");
        if !hostile.is_empty() && !matches!(run(reencode, &hostile), Some(Err(_))) {
            failures.push(format!("{name}: hostile header did not fail typed"));
        }
        for cut in 0..bytes.len() {
            match run(reencode, &bytes[..cut]) {
                Some(Err(_)) => {}
                Some(Ok(back)) if back == bytes => {}
                other => failures.push(format!("{name}: prefix {cut}: {other:?}")),
            }
        }
        for (at, mask) in (0..bytes.len()).flat_map(|at| [0x01u8, 0x80, 0xff].map(|m| (at, m))) {
            let mut flipped = bytes.clone();
            flipped[at] ^= mask;
            match run(reencode, &flipped) {
                Some(Err(_)) => {}
                Some(Ok(back)) if run(reencode, &back) == Some(Ok(back.clone())) => {}
                other => failures.push(format!("{name}: byte {at} ^ {mask:#04x}: {other:?}")),
            }
        }
    }
    assert!(failures.is_empty(), "{} decoder failures:\n{}", failures.len(), failures.join("\n"));
}

/// Saving over an existing checkpoint replaces it whole and leaves no
/// `.tmp` sibling behind.
#[test]
fn checkpoint_saves_replace_atomically() {
    let dir = std::env::temp_dir().join(format!("liger-atomic-save-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let bundle = sample_bundle();
    let path = dir.join("model.lgrb");

    // A longer bundle first (more vocabulary tokens), so a save that
    // wrote in place would leave its tail behind.
    let mut longer = sample_bundle();
    for t in ["more", "tokens", "than", "the", "sample"] {
        longer.vocab.add(t);
    }
    longer.save_to_path(&path).unwrap();
    assert!(std::fs::read(&path).unwrap().len() > bundle.to_bytes().len());
    bundle.save_to_path(&path).unwrap();
    let loaded = ModelBundle::load_from_path(&path).unwrap();
    assert_eq!(loaded.to_bytes(), bundle.to_bytes());
    assert_eq!(std::fs::read(&path).unwrap(), bundle.to_bytes());

    let ckpt = dir.join("params.lgr");
    std::fs::write(&ckpt, b"an older, longer checkpoint that must be replaced whole").unwrap();
    bundle.store.save_to_path(&ckpt).unwrap();
    assert_eq!(std::fs::read(&ckpt).unwrap(), tensor::save_store_binary(&bundle.store));

    let mut names: Vec<_> =
        std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
    names.sort();
    assert_eq!(names, ["model.lgrb", "params.lgr"], "a save left a sibling behind");
    std::fs::remove_dir_all(&dir).ok();
}

/// A bundle of the retired int8 form, whose payload line is
/// `qparams <n>`, is a parse error naming `qparams`, not a partial load.
#[test]
fn qparams_bundles_are_refused_typed() {
    let bytes = sample_bundle().to_bytes();
    let at = bytes.windows(8).position(|w| w == b"\nparams ").expect("params line") + 1;
    let qbundle = [&bytes[..at], b"q", &bytes[at..]].concat();
    match ModelBundle::from_bytes(&qbundle) {
        Err(liger::BundleError::Parse(msg)) => assert!(msg.contains("qparams"), "{msg}"),
        other => panic!("a qparams bundle must be a parse error, got {other:?}"),
    }
}

/// The model fingerprint keys `LGRI1` index files and `LGRS1` store
/// entries, so its text (including the `f32` weight-form segment) must
/// not drift: a change orphans every file written before it.
#[test]
fn model_fingerprint_is_pinned() {
    assert_eq!(sample_bundle().fingerprint(), "namer/h6/v5/f32/d198a7745f4bbf86");
}
