//! Self-contained checkpoint bundles: everything `liger-serve` needs to
//! answer queries, in one file.
//!
//! A raw [`ParamStore`] checkpoint is not servable on its own — encoding
//! a program needs the input vocabulary, decoding a prediction needs the
//! output vocabulary (or class labels), and rebuilding the parameter
//! layout needs the architecture hyperparameters. A [`ModelBundle`] packs
//! all four:
//!
//! ```text
//! LGRB1
//! cfg <hidden> <attn> <max_name_len> <ablation>
//! vocab <n>
//! <token>            × n   (percent-escaped, id order)
//! head namer <m>     — or —  head classifier <k>
//! <token>            × m    (<label> × k)
//! params <nbytes>
//! <binary LGR1 parameter blob>
//! ```
//!
//! The payload is always f32 `params`: a bundle whose payload line is
//! anything else (such as the retired int8 `qparams`) is refused with
//! [`BundleError::Parse`].
//!
//! The header is line-oriented text (greppable, versioned by the `LGRB1`
//! magic); the parameter payload embeds the binary checkpoint format
//! verbatim, so `tensor`'s loader — with its duplicate-name and version
//! checks — is reused unchanged. Both halves read and write through
//! `tensor::codec`, and saves replace the file atomically.
//!
//! [`ModelBundle::instantiate`] rebuilds the model structs by re-running
//! parameter registration against a scratch store and verifying that
//! every registered name and shape matches the checkpoint. Registration
//! order is deterministic, so the rebuilt [`ParamId`]s index the loaded
//! values correctly; the verification turns any architecture mismatch
//! (wrong hidden size, wrong vocab, truncated file) into a typed error
//! instead of silent garbage.
//!
//! [`ParamId`]: tensor::ParamId

use crate::infer::LigerTask;
use crate::model::{Ablation, LigerConfig, LigerModel};
use crate::train::LigerNamer;
use crate::vocab::{OutVocab, Vocab};
use crate::LigerClassifier;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use tensor::codec::{write_atomic, ByteReader, ByteWriter, DecodeError};
use tensor::{load_store_binary, save_store_binary, ParamStore};

/// The bundle magic / format-version line.
const BUNDLE_MAGIC: &str = "LGRB1";

/// The task head stored in a bundle.
#[derive(Debug, Clone)]
pub enum BundleHead {
    /// Method-name prediction: the output sub-token vocabulary.
    Namer(OutVocab),
    /// Semantics classification: class display labels (index = class id).
    Classifier(Vec<String>),
}

/// A self-contained trained model: hyperparameters, vocabularies, and
/// parameter values.
#[derive(Debug, Clone)]
pub struct ModelBundle {
    /// Architecture hyperparameters.
    pub cfg: LigerConfig,
    /// The input vocabulary 𝒟ₛ ∪ 𝒟_d.
    pub vocab: Vocab,
    /// The task head.
    pub head: BundleHead,
    /// Trained parameter values (registration order).
    pub store: ParamStore,
}

/// Errors from bundle parsing or instantiation.
#[derive(Debug)]
pub enum BundleError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The bundle header is malformed.
    Parse(String),
    /// The embedded parameter blob failed to load.
    Params(tensor::LoadError),
    /// The parameters do not match the declared architecture.
    Mismatch(String),
}

impl std::fmt::Display for BundleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BundleError::Io(e) => write!(f, "bundle I/O error: {e}"),
            BundleError::Parse(msg) => write!(f, "malformed bundle: {msg}"),
            BundleError::Params(e) => write!(f, "bundle parameters: {e}"),
            BundleError::Mismatch(msg) => write!(f, "bundle/architecture mismatch: {msg}"),
        }
    }
}

impl std::error::Error for BundleError {}

impl From<std::io::Error> for BundleError {
    fn from(e: std::io::Error) -> BundleError {
        BundleError::Io(e)
    }
}

impl From<tensor::LoadError> for BundleError {
    fn from(e: tensor::LoadError) -> BundleError {
        BundleError::Params(e)
    }
}

impl From<DecodeError> for BundleError {
    fn from(e: DecodeError) -> BundleError {
        BundleError::Parse(format!("header: {e}"))
    }
}

fn escape(token: &str) -> String {
    let mut out = String::new();
    for c in token.chars() {
        match c {
            '%' => out.push_str("%25"),
            '\n' => out.push_str("%0A"),
            '\r' => out.push_str("%0D"),
            other => out.push(other),
        }
    }
    out
}

fn unescape(token: &str) -> String {
    token.replace("%0A", "\n").replace("%0D", "\r").replace("%25", "%")
}

/// Reads a `<title> <n>` header line, `title` one of `titles`: the
/// title's position in `titles`, and `n`.
fn read_title(r: &mut ByteReader<'_>, titles: &[&str]) -> Result<(usize, usize), BundleError> {
    let line = r.line()?;
    line.rsplit_once(' ')
        .and_then(|(title, n)| Some((titles.iter().position(|&t| t == title)?, n.parse().ok()?)))
        .ok_or_else(|| BundleError::Parse(format!("expected a {titles:?} line, found {line:?}")))
}

/// Reads one header section: its title line, then `n` escaped token
/// lines.
fn read_section(
    r: &mut ByteReader<'_>,
    titles: &[&str],
) -> Result<(usize, Vec<String>), BundleError> {
    let (kind, n) = read_title(r, titles)?;
    Ok((kind, r.repeat(n, 1, |r| r.line().map(unescape))?))
}

/// Rebuilds a vocabulary from its token lines: token `i` must get id
/// `i`, so the reserved slots hold the tokens a fresh vocabulary
/// pre-registers (`<UNK>`, and `<SOS>`/`<EOS>` for names) and no token
/// repeats.
fn check_ids(
    what: &str,
    tokens: &[String],
    mut add: impl FnMut(&str) -> usize,
) -> Result<(), BundleError> {
    match tokens.iter().enumerate().find(|&(i, t)| add(t) != i) {
        Some((i, t)) => Err(BundleError::Parse(format!("{what} token {t:?} cannot take id {i}"))),
        None => Ok(()),
    }
}

impl ModelBundle {
    /// Packs a trained namer checkpoint.
    pub fn for_namer(
        cfg: LigerConfig,
        vocab: Vocab,
        out: OutVocab,
        store: ParamStore,
    ) -> ModelBundle {
        ModelBundle { cfg, vocab, head: BundleHead::Namer(out), store }
    }

    /// Packs a trained classifier checkpoint.
    pub fn for_classifier(
        cfg: LigerConfig,
        vocab: Vocab,
        labels: Vec<String>,
        store: ParamStore,
    ) -> ModelBundle {
        ModelBundle { cfg, vocab, head: BundleHead::Classifier(labels), store }
    }

    /// A compact fingerprint of this model: head kind, embedding
    /// width, vocabulary size, weight form (always `f32`, a segment
    /// existing index and store files carry), and an FNV-1a digest of
    /// the trained parameter bytes. Two bundles that could produce
    /// different embeddings get different fingerprints, so both the
    /// embedding index (`LGRI1`) and the artifact store (`LGRS1`)
    /// refuse or miss stale entries instead of serving wrong vectors.
    pub fn fingerprint(&self) -> String {
        let head = match &self.head {
            BundleHead::Namer(_) => "namer",
            BundleHead::Classifier(_) => "classifier",
        };
        let h = store::hash::param_store_digest(&self.store);
        format!("{head}/h{}/v{}/f32/{h:016x}", self.cfg.hidden, self.vocab.len())
    }

    /// Serializes the bundle to its on-disk byte form: the header (magic,
    /// cfg, vocabularies), then the f32 parameter blob under its `params`
    /// line.
    pub fn to_bytes(&self) -> Vec<u8> {
        let params = save_store_binary(&self.store);
        let mut w = ByteWriter::with_capacity(params.len() + 16 * self.vocab.len() + 64);
        w.line(BUNDLE_MAGIC);
        w.line(&format!(
            "cfg {} {} {} {}",
            self.cfg.hidden,
            self.cfg.attn,
            self.cfg.max_name_len,
            self.cfg.ablation.name()
        ));
        let vocab: Vec<_> = (0..self.vocab.len()).map(|id| self.vocab.token(id)).collect();
        let (head, tokens) = match &self.head {
            BundleHead::Namer(out) => {
                ("head namer", (0..out.len()).map(|id| out.token(id)).collect())
            }
            BundleHead::Classifier(labels) => {
                ("head classifier", labels.iter().map(String::as_str).collect())
            }
        };
        for (title, tokens) in [("vocab", vocab), (head, tokens)] {
            w.line(&format!("{title} {}", tokens.len()));
            for token in tokens {
                w.line(&escape(token));
            }
        }
        w.line(&format!("params {}", params.len()));
        w.raw(&params);
        w.into_bytes()
    }

    /// Parses a bundle from its on-disk byte form.
    ///
    /// # Errors
    ///
    /// Returns [`BundleError`] on any malformed section.
    pub fn from_bytes(bytes: &[u8]) -> Result<ModelBundle, BundleError> {
        let mut r = ByteReader::new(bytes);
        if r.line()? != BUNDLE_MAGIC {
            return Err(BundleError::Parse(format!("missing {BUNDLE_MAGIC} magic")));
        }

        let cfg_line = r.line()?;
        let mut parts = cfg_line.split_whitespace();
        let cfg = (|| {
            if parts.next()? != "cfg" {
                return None;
            }
            let hidden: usize = parts.next()?.parse().ok()?;
            let attn: usize = parts.next()?.parse().ok()?;
            let max_name_len: usize = parts.next()?.parse().ok()?;
            let ablation = Ablation::from_name(parts.next()?)?;
            Some(LigerConfig { hidden, attn, max_name_len, ablation })
        })()
        .ok_or_else(|| BundleError::Parse(format!("bad cfg line {cfg_line:?}")))?;

        let (_, tokens) = read_section(&mut r, &["vocab"])?;
        let mut vocab = Vocab::new();
        check_ids("vocab", &tokens, |t| vocab.add(t))?;
        let head = match read_section(&mut r, &["head namer", "head classifier"])? {
            (0, tokens) => {
                let mut out = OutVocab::new();
                check_ids("out-vocab", &tokens, |t| out.add(t))?;
                BundleHead::Namer(out)
            }
            (_, labels) => BundleHead::Classifier(labels),
        };

        let (_, nbytes) = read_title(&mut r, &["params"])?;
        if r.remaining() != nbytes {
            return Err(BundleError::Parse(format!(
                "params blob is {} bytes, header declares {nbytes}",
                r.remaining()
            )));
        }
        let store = load_store_binary(r.take(nbytes)?)?;
        Ok(ModelBundle { cfg, vocab, head, store })
    }

    /// Writes the bundle to `path`, atomically: a crash mid-save leaves
    /// the previous file intact.
    ///
    /// # Errors
    ///
    /// Returns the underlying filesystem error.
    pub fn save_to_path(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        write_atomic(path.as_ref(), &self.to_bytes())
    }

    /// Reads a bundle from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`BundleError`] on I/O failure or malformed contents.
    pub fn load_from_path(path: impl AsRef<Path>) -> Result<ModelBundle, BundleError> {
        ModelBundle::from_bytes(&std::fs::read(path)?)
    }

    /// Rebuilds the model structs for this bundle and returns them with a
    /// copy of the trained parameters.
    ///
    /// Parameter registration is deterministic, so re-running it against
    /// a scratch store recreates the exact [`tensor::ParamId`] layout the
    /// checkpoint was trained with; every registered name and shape is
    /// verified against the checkpoint before the trained values are
    /// handed out.
    ///
    /// # Errors
    ///
    /// Returns [`BundleError::Mismatch`] when the checkpoint does not fit
    /// the declared architecture.
    pub fn instantiate(&self) -> Result<(LigerTask, ParamStore), BundleError> {
        // The RNG only fills initial values that are immediately replaced
        // by the checkpoint; any seed works.
        let mut rng = StdRng::seed_from_u64(0);
        let mut scratch = ParamStore::new();
        let task = match &self.head {
            BundleHead::Namer(out) => {
                let namer =
                    LigerNamer::new(&mut scratch, self.vocab.len(), out.len(), self.cfg, &mut rng);
                LigerTask::Namer { namer, out: out.clone() }
            }
            BundleHead::Classifier(labels) => {
                let model = LigerModel::new(&mut scratch, self.vocab.len(), self.cfg, &mut rng);
                let cls = LigerClassifier::new(&mut scratch, model, labels.len(), &mut rng);
                LigerTask::Classifier { cls, labels: labels.clone() }
            }
        };
        if scratch.len() != self.store.len() {
            return Err(BundleError::Mismatch(format!(
                "architecture registers {} parameters, checkpoint holds {}",
                scratch.len(),
                self.store.len()
            )));
        }
        for i in 0..scratch.len() {
            let id = tensor::ParamId(i);
            let (want, got) = (scratch.get(id), self.store.get(id));
            if want.name != got.name
                || want.value.rows() != got.value.rows()
                || want.value.cols() != got.value.cols()
            {
                return Err(BundleError::Mismatch(format!(
                    "parameter {i}: expected {} [{}×{}], checkpoint has {} [{}×{}]",
                    want.name,
                    want.value.rows(),
                    want.value.cols(),
                    got.name,
                    got.value.rows(),
                    got.value.cols()
                )));
            }
        }
        Ok((task, self.store.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{EncBlended, EncState, EncStep, EncTree, EncVar, EncodedProgram};
    use crate::train::{train_namer, NameSample, TrainConfig};
    use crate::vocab::EOS;

    fn prog(token: usize) -> EncodedProgram {
        EncodedProgram::from_traces(vec![EncBlended {
            steps: vec![EncStep {
                tree: EncTree { token, children: vec![] },
                states: vec![EncState { vars: vec![EncVar::Primitive(token + 1)] }],
            }],
        }])
    }

    fn trained_namer_bundle() -> (ModelBundle, Vec<crate::vocab::TokenId>) {
        let mut vocab = Vocab::new();
        for t in ["a", "b", "c", "d", "e", "f %odd", "g"] {
            vocab.add(t);
        }
        let mut out = OutVocab::new();
        out.add("find");
        out.add("max");
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(9);
        let cfg = LigerConfig { hidden: 6, attn: 6, ..LigerConfig::default() };
        let namer = LigerNamer::new(&mut store, vocab.len(), out.len(), cfg, &mut rng);
        let samples = vec![NameSample { program: prog(1), target: vec![3, EOS] }];
        train_namer(
            &namer,
            &mut store,
            &samples,
            &TrainConfig { epochs: 5, lr: 0.03, batch_size: 1 },
            &mut rng,
        );
        let prediction = namer.predict(&store, &prog(1));
        (ModelBundle::for_namer(cfg, vocab, out, store), prediction)
    }

    #[test]
    fn namer_bundle_roundtrips_with_identical_predictions() {
        let (bundle, want) = trained_namer_bundle();
        let loaded = ModelBundle::from_bytes(&bundle.to_bytes()).unwrap();
        assert_eq!(loaded.vocab.len(), bundle.vocab.len());
        assert_eq!(loaded.vocab.token(6), "f %odd");
        assert_eq!(loaded.cfg, bundle.cfg);

        let (task, store) = loaded.instantiate().unwrap();
        let LigerTask::Namer { namer, .. } = &task else { panic!("expected namer") };
        assert_eq!(namer.predict(&store, &prog(1)), want);

        // Values are bitwise the trained ones.
        for i in 0..store.len() {
            let id = tensor::ParamId(i);
            assert_eq!(store.get(id).value, bundle.store.get(id).value);
        }
    }

    #[test]
    fn classifier_bundle_roundtrips() {
        let mut vocab = Vocab::new();
        vocab.add("tok");
        vocab.add("one");
        vocab.add("two");
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = LigerConfig { hidden: 5, attn: 5, ..LigerConfig::default() };
        let model = LigerModel::new(&mut store, vocab.len(), cfg, &mut rng);
        let _cls = LigerClassifier::new(&mut store, model, 3, &mut rng);
        let bundle = ModelBundle::for_classifier(
            cfg,
            vocab,
            vec!["sort".into(), "search line 2\n".into(), "gcd".into()],
            store,
        );
        let loaded = ModelBundle::from_bytes(&bundle.to_bytes()).unwrap();
        let BundleHead::Classifier(labels) = &loaded.head else { panic!("expected classifier") };
        assert_eq!(labels[1], "search line 2\n");
        let inf = crate::Inferencer::from_bundle(&loaded).unwrap();
        let (class, label) = inf.classify(&prog(1)).unwrap();
        assert!(class < 3);
        assert!(!label.is_empty());
    }

    #[test]
    fn corrupt_bundles_are_rejected_with_typed_errors() {
        let (bundle, _) = trained_namer_bundle();
        let bytes = bundle.to_bytes();

        assert!(matches!(
            ModelBundle::from_bytes(b"WRONG\n").unwrap_err(),
            BundleError::Parse(_)
        ));
        // Truncated params blob.
        assert!(matches!(
            ModelBundle::from_bytes(&bytes[..bytes.len() - 3]).unwrap_err(),
            BundleError::Parse(_)
        ));
        // Reserved tokens out of place: <UNK> must open the vocab and
        // <SOS> follow it in the out-vocab.
        let swap = |from: &[u8], to: &[u8]| {
            let at = bytes.windows(from.len()).position(|w| w == from).unwrap();
            [&bytes[..at], to, &bytes[at + from.len()..]].concat()
        };
        for corrupt in [swap(b"<UNK>\n", b"<UNX>\n"), swap(b"<SOS>\n", b"<EOS>\n")] {
            assert!(matches!(ModelBundle::from_bytes(&corrupt), Err(BundleError::Parse(_))));
        }

        // Architecture mismatch: declare a different hidden size.
        let mut wrong = bundle.clone();
        wrong.cfg.hidden = 7;
        let reparsed = ModelBundle::from_bytes(&wrong.to_bytes()).unwrap();
        assert!(matches!(reparsed.instantiate().unwrap_err(), BundleError::Mismatch(_)));
    }

    #[test]
    fn bundle_survives_a_file_roundtrip() {
        let (bundle, want) = trained_namer_bundle();
        let path = std::env::temp_dir()
            .join(format!("liger_bundle_test_{}.lgrb", std::process::id()));
        bundle.save_to_path(&path).unwrap();
        let loaded = ModelBundle::load_from_path(&path).unwrap();
        let (task, store) = loaded.instantiate().unwrap();
        let LigerTask::Namer { namer, .. } = &task else { panic!("expected namer") };
        assert_eq!(namer.predict(&store, &prog(1)), want);
        std::fs::remove_file(&path).ok();
    }
}
