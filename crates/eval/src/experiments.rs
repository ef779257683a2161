//! Experiment drivers — one entry point per table/figure of §6 (Fig. 11
//! summarizes cells of Figs. 6 and 8–10, so it needs none).
//!
//! Every driver reads its trained models from one [`Cells`] memo per
//! [`Scale`], so each distinct configuration trains once, and is
//! deterministic given the scale (which fixes the seed, corpus size, and
//! model size). Absolute numbers differ from the paper
//! (synthetic corpus, small models, CPU — see EXPERIMENTS.md); the
//! *shapes* are the reproduction target: model ordering in Table 2/3,
//! LIGER's flatness under concrete-trace reduction, its resilience under
//! line-coverage-preserving path reduction, and the ablation orderings of
//! Figures 8–11.

use crate::baseline_train::{
    train_code2seq, train_code2vec, train_dypro_classifier, train_dypro_namer,
    BaselineTrainConfig,
};
use crate::metrics::{Accuracy, ClassF1, PrecisionRecallF1};
use crate::pipeline::{
    coset_at, method_at_paths, prepare_coset_dataset, prepare_method_dataset, CosetDataset,
    MethodDataset, PrepareOptions,
};
use baselines::{Code2Seq, Code2Vec, DyproClassifier, DyproNamer};
use datagen::{generate_coset_corpus, generate_method_corpus, Corpus, CorpusConfig, FilterStats};
use liger::{
    Ablation, ClassSample, EncodeOptions, LigerClassifier, LigerConfig, LigerModel, LigerNamer,
    NameSample, TrainConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use randgen::GenConfig;
use std::cell::{OnceCell, RefCell};
use tensor::ParamStore;

/// The size of one experimental run: corpus scale + model scale + seeds.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Display name ("med", "large", …).
    pub name: String,
    /// Variants generated per behaviour family.
    pub variants_per_family: usize,
    /// Model hidden size.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Paths collected per program (the paper's U ≈ 20).
    pub target_paths: usize,
    /// Concrete executions per path (the paper's Nε = 5).
    pub concrete_per_path: usize,
    /// Maximum trace steps encoded.
    pub max_steps: usize,
    /// Maximum paths encoded.
    pub max_traces: usize,
    /// Master seed.
    pub seed: u64,
}

impl Scale {
    /// Minimal scale for unit tests (seconds).
    pub fn tiny() -> Scale {
        Scale {
            name: "tiny".into(),
            variants_per_family: 2,
            hidden: 10,
            epochs: 4,
            lr: 0.02,
            target_paths: 4,
            concrete_per_path: 3,
            max_steps: 15,
            max_traces: 4,
            seed: 1,
        }
    }

    /// Default bench scale: large enough for the paper's shapes to be
    /// visible, small enough to finish in minutes on a laptop CPU.
    pub fn bench() -> Scale {
        Scale {
            name: "bench".into(),
            variants_per_family: 8,
            hidden: 16,
            epochs: 16,
            lr: 0.015,
            target_paths: 6,
            concrete_per_path: 4,
            max_steps: 18,
            max_traces: 6,
            seed: 5,
        }
    }

    /// Resolves a scale by name (`tiny`/`bench`/`med`/`large`), e.g. from
    /// the `LIGER_SCALE` environment variable used by the bench harness.
    pub fn by_name(name: &str) -> Option<Scale> {
        match name {
            "tiny" => Some(Scale::tiny()),
            "bench" => Some(Scale::bench()),
            "med" => Some(Scale::med()),
            "large" => Some(Scale::large()),
            _ => None,
        }
    }

    /// The scale named by the `LIGER_SCALE` environment variable, or
    /// `default()` when it is unset.
    ///
    /// # Panics
    ///
    /// If `LIGER_SCALE` is set to a name [`Scale::by_name`] does not know.
    pub fn from_env_or(default: impl FnOnce() -> Scale) -> Scale {
        Scale::named_or(std::env::var("LIGER_SCALE").ok().as_deref(), default)
    }

    fn named_or(name: Option<&str>, default: impl FnOnce() -> Scale) -> Scale {
        match name {
            None => default(),
            Some(name) => Scale::by_name(name).unwrap_or_else(|| {
                panic!("LIGER_SCALE={name:?} names no scale; valid names: tiny, bench, med, large")
            }),
        }
    }

    /// The Java-med analogue (bench scale; minutes).
    pub fn med() -> Scale {
        Scale {
            name: "med".into(),
            variants_per_family: 6,
            hidden: 16,
            epochs: 12,
            lr: 0.015,
            target_paths: 8,
            concrete_per_path: 5,
            max_steps: 22,
            max_traces: 8,
            seed: 7,
        }
    }

    /// The Java-large analogue (more variants and paths than `med`).
    pub fn large() -> Scale {
        Scale {
            name: "large".into(),
            variants_per_family: 10,
            hidden: 16,
            epochs: 12,
            lr: 0.015,
            target_paths: 10,
            concrete_per_path: 5,
            max_steps: 22,
            max_traces: 10,
            seed: 11,
        }
    }

    fn corpus_config(&self) -> CorpusConfig {
        CorpusConfig {
            variants_per_family: self.variants_per_family,
            gen: GenConfig {
                target_paths: self.target_paths,
                concrete_per_path: self.concrete_per_path,
                max_attempts: 600,
                ..GenConfig::default()
            },
            ..CorpusConfig::default()
        }
    }

    fn prepare_options(&self) -> PrepareOptions {
        PrepareOptions {
            encode: EncodeOptions { max_steps: self.max_steps, max_traces: self.max_traces },
            ..PrepareOptions::default()
        }
    }

    fn liger_config(&self, ablation: Ablation) -> LigerConfig {
        LigerConfig { hidden: self.hidden, attn: self.hidden, max_name_len: 5, ablation }
    }

    fn train_config(&self) -> TrainConfig {
        TrainConfig { epochs: self.epochs * 2, lr: self.lr, batch_size: 2 }
    }

    fn dypro_config(&self) -> BaselineTrainConfig {
        BaselineTrainConfig { epochs: self.epochs * 2, lr: self.lr, batch_size: 2 }
    }

    fn baseline_config(&self) -> BaselineTrainConfig {
        BaselineTrainConfig { epochs: self.epochs, lr: self.lr, batch_size: 2 }
    }
}

/// Builds the method-name dataset for a scale (Table 1 numbers included),
/// through `store` when one is given: a warm store serves every
/// program's filter verdict and traces without executing anything, and
/// the dataset is bitwise the same with a cold store or none.
///
/// # Errors
///
/// Typed [`store::StoreError`] when a cached outcome is corrupt.
pub fn build_method_dataset(
    scale: &Scale,
    store: Option<&store::Store>,
) -> Result<(MethodDataset, FilterStats), store::StoreError> {
    build_dataset(scale, scale.seed, store, generate_method_corpus, prepare_method_dataset)
}

/// Builds the COSET-like dataset for a scale; see [`build_method_dataset`].
///
/// # Errors
///
/// Typed [`store::StoreError`] when a cached outcome is corrupt.
pub fn build_coset_dataset(
    scale: &Scale,
    store: Option<&store::Store>,
) -> Result<(CosetDataset, FilterStats), store::StoreError> {
    let seed = scale.seed.wrapping_add(1000);
    build_dataset(scale, seed, store, generate_coset_corpus, prepare_coset_dataset)
}

/// The one dataset-builder body: generate a corpus from `seed`, then
/// prepare it with the same RNG stream.
fn build_dataset<S, D>(
    scale: &Scale,
    seed: u64,
    store: Option<&store::Store>,
    generate: impl FnOnce(
        &CorpusConfig,
        &mut StdRng,
        Option<&store::Store>,
    ) -> Result<Corpus<S>, store::StoreError>,
    prepare: impl FnOnce(&Corpus<S>, &PrepareOptions, usize, &mut StdRng) -> D,
) -> Result<(D, FilterStats), store::StoreError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let corpus = generate(&scale.corpus_config(), &mut rng, store)?;
    let ds = prepare(&corpus, &scale.prepare_options(), scale.concrete_per_path, &mut rng);
    Ok((ds, corpus.stats))
}

/// **Table 1** — dataset statistics before/after filtering.
pub fn table1(scale: &Scale) -> FilterStats {
    let mut rng = StdRng::seed_from_u64(scale.seed);
    generate_method_corpus(&scale.corpus_config(), &mut rng, None)
        .expect("no store, no store error")
        .stats
}

/// Sub-token scores of one model on one dataset.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NameScores {
    /// Precision (%).
    pub precision: f64,
    /// Recall (%).
    pub recall: f64,
    /// F1 (%).
    pub f1: f64,
}

impl From<PrecisionRecallF1> for NameScores {
    fn from(m: PrecisionRecallF1) -> NameScores {
        NameScores { precision: m.precision(), recall: m.recall(), f1: m.f1() }
    }
}

/// How many symbolic traces (paths) a reduction level keeps, per sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PathLevel {
    /// All collected paths.
    Full,
    /// `max(min_cover, ceil(fraction × total))` — removes only paths
    /// outside the minimum line-cover, as in §6.1.2.
    Fraction(f64),
    /// Exactly the minimum line-covering set.
    MinCover,
    /// A fixed count (used for the single-trace extreme).
    Count(usize),
}

impl PathLevel {
    /// Resolves the level to a path count for one sample. A sample with
    /// no paths at all resolves to 0.
    pub fn resolve(&self, total: usize, min_cover: usize) -> usize {
        if total == 0 {
            return 0;
        }
        match *self {
            PathLevel::Full => total,
            PathLevel::Fraction(f) => {
                ((total as f64 * f).ceil() as usize).max(min_cover).min(total).max(1)
            }
            PathLevel::MinCover => min_cover.clamp(1, total),
            PathLevel::Count(k) => k.clamp(1, total),
        }
    }

    /// Display label for result rows.
    pub fn label(&self) -> String {
        match *self {
            PathLevel::Full => "full".into(),
            PathLevel::Fraction(f) => format!("{:.0}%", f * 100.0),
            PathLevel::MinCover => "min-cover".into(),
            PathLevel::Count(k) => format!("{k}"),
        }
    }
}

/// Trains LIGER's namer on `ds.train` at the given reduction levels and
/// returns the trained model with its parameters — checkpoint them with
/// [`tensor::ParamStore::save_to_path`] and restore with
/// [`load_method_namer`].
pub fn train_method_namer(
    ds: &MethodDataset,
    scale: &Scale,
    ablation: Ablation,
    paths: PathLevel,
    concrete: usize,
) -> (LigerNamer, ParamStore) {
    let mut rng = StdRng::seed_from_u64(scale.seed.wrapping_add(42));
    let opts = scale.prepare_options().encode;
    let at = |s: &crate::pipeline::PreparedMethod| {
        let keep = paths.resolve(s.blended.len(), s.min_cover);
        method_at_paths(s, &ds.vocabs.input, &opts, keep, concrete).0
    };
    let samples: Vec<NameSample> = ds
        .train
        .iter()
        .map(|s| NameSample { program: at(s), target: s.target.clone() })
        .collect();

    let mut store = ParamStore::new();
    let namer = LigerNamer::new(
        &mut store,
        ds.vocabs.input.len(),
        ds.vocabs.output.len(),
        scale.liger_config(ablation),
        &mut rng,
    );
    liger::train_namer(&namer, &mut store, &samples, &scale.train_config(), &mut rng);
    (namer, store)
}

/// Restores a namer checkpoint saved from [`train_method_namer`]:
/// re-registers the parameter layout for `ds`+`scale`+`ablation` and
/// validates the loaded values against it name-by-name, shape-by-shape.
///
/// # Errors
///
/// Returns a description of the I/O or format failure, or of the first
/// parameter that does not fit the architecture.
pub fn load_method_namer(
    ds: &MethodDataset,
    scale: &Scale,
    ablation: Ablation,
    path: impl AsRef<std::path::Path>,
) -> Result<(LigerNamer, ParamStore), String> {
    let mut rng = StdRng::seed_from_u64(0); // layout only; values are replaced
    let mut skeleton = ParamStore::new();
    let namer = LigerNamer::new(
        &mut skeleton,
        ds.vocabs.input.len(),
        ds.vocabs.output.len(),
        scale.liger_config(ablation),
        &mut rng,
    );
    let store = checked_load(&skeleton, path)?;
    Ok((namer, store))
}

/// Evaluates a trained namer on `ds.test`; returns scores and the mean
/// static-feature attention (the §6.1.2 measurement).
pub fn eval_method_namer(
    namer: &LigerNamer,
    store: &ParamStore,
    ds: &MethodDataset,
    scale: &Scale,
    paths: PathLevel,
    concrete: usize,
) -> (NameScores, Option<f64>) {
    let opts = scale.prepare_options().encode;
    let at = |s: &crate::pipeline::PreparedMethod| {
        let keep = paths.resolve(s.blended.len(), s.min_cover);
        method_at_paths(s, &ds.vocabs.input, &opts, keep, concrete).0
    };
    // Batched prediction: each test program re-encodes and decodes
    // independently against the frozen parameters, on a persistent
    // per-worker workspace (graph arena + embedding memo).
    let mut workspaces: Vec<liger::Workspace> = Vec::new();
    let _span = obs::span!("eval.predict");
    let predictions =
        par::par_map_ordered_with(&ds.test, &mut workspaces, liger::Workspace::new, |ws, _, s| {
            let prog = at(s);
            let predicted = ds.vocabs.output.decode_name(&namer.predict_in(ws, store, &prog));
            (predicted, namer.static_attention_in(ws, store, &prog))
        });
    let mut metric = PrecisionRecallF1::default();
    let mut attn_sum = 0.0f64;
    let mut attn_count = 0usize;
    for (s, (predicted, attention)) in ds.test.iter().zip(&predictions) {
        metric.add(predicted, &s.subtokens);
        if let Some(a) = attention {
            attn_sum += f64::from(*a);
            attn_count += 1;
        }
    }
    let attn = if attn_count == 0 { None } else { Some(attn_sum / attn_count as f64) };
    (metric.into(), attn)
}

/// Trains and evaluates LIGER on the method-name task at the given
/// reduction levels; returns scores and the mean static-feature attention
/// at convergence (the §6.1.2 measurement).
pub fn liger_method_scores(
    ds: &MethodDataset,
    scale: &Scale,
    ablation: Ablation,
    paths: PathLevel,
    concrete: usize,
) -> (NameScores, Option<f64>) {
    let (namer, store) = train_method_namer(ds, scale, ablation, paths, concrete);
    eval_method_namer(&namer, &store, ds, scale, paths, concrete)
}

/// Loads a checkpoint and verifies it fits the layout `skeleton`
/// registered (same parameters, names, and shapes, in order).
fn checked_load(
    skeleton: &ParamStore,
    path: impl AsRef<std::path::Path>,
) -> Result<ParamStore, String> {
    let path = path.as_ref();
    let store =
        ParamStore::load_from_path(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if store.len() != skeleton.len() {
        return Err(format!(
            "{}: checkpoint holds {} parameters, architecture registers {}",
            path.display(),
            store.len(),
            skeleton.len()
        ));
    }
    for i in 0..skeleton.len() {
        let id = tensor::ParamId(i);
        let (want, got) = (skeleton.get(id), store.get(id));
        if want.name != got.name
            || want.value.rows() != got.value.rows()
            || want.value.cols() != got.value.cols()
        {
            return Err(format!(
                "{}: parameter {i} is {} [{}×{}], architecture expects {} [{}×{}]",
                path.display(),
                got.name,
                got.value.rows(),
                got.value.cols(),
                want.name,
                want.value.rows(),
                want.value.cols()
            ));
        }
    }
    Ok(store)
}

/// Trains and evaluates DYPRO on the method-name task at the given
/// reduction levels (it consumes the concrete traces out of the same
/// blended set, as in §6.1.2).
pub fn dypro_method_scores(
    ds: &MethodDataset,
    scale: &Scale,
    paths: PathLevel,
    concrete: usize,
) -> NameScores {
    let mut rng = StdRng::seed_from_u64(scale.seed.wrapping_add(43));
    let opts = scale.prepare_options().encode;
    let at = |s: &crate::pipeline::PreparedMethod| {
        let keep = paths.resolve(s.blended.len(), s.min_cover);
        method_at_paths(s, &ds.vocabs.input, &opts, keep, concrete).1
    };
    let samples: Vec<(baselines::DyproProgram, Vec<liger::TokenId>)> =
        ds.train.iter().map(|s| (at(s), s.target.clone())).collect();

    let mut store = ParamStore::new();
    let namer = DyproNamer::new(
        &mut store,
        ds.vocabs.input.len(),
        ds.vocabs.output.len(),
        scale.hidden,
        &mut rng,
    );
    train_dypro_namer(&namer, &mut store, &samples, &scale.dypro_config(), &mut rng);

    let _span = obs::span!("eval.predict");
    let predictions = par::par_map_ordered(&ds.test, |_, s| {
        ds.vocabs.output.decode_name(&namer.predict(&store, &at(s), 5))
    });
    let mut metric = PrecisionRecallF1::default();
    for (s, predicted) in ds.test.iter().zip(&predictions) {
        metric.add(predicted, &s.subtokens);
    }
    metric.into()
}

fn code2vec_scores(ds: &MethodDataset, scale: &Scale) -> NameScores {
    let mut rng = StdRng::seed_from_u64(scale.seed.wrapping_add(44));
    let samples: Vec<(baselines::Code2VecInput, usize)> =
        ds.train.iter().map(|s| (s.c2v.clone(), s.name_label)).collect();
    let mut store = ParamStore::new();
    let model = Code2Vec::new(
        &mut store,
        ds.vocabs.terms.len(),
        ds.vocabs.paths.len(),
        ds.vocabs.name_labels.len(),
        scale.hidden,
        &mut rng,
    );
    train_code2vec(&model, &mut store, &samples, &scale.baseline_config(), &mut rng);
    let _span = obs::span!("eval.predict");
    let predictions = par::par_map_ordered(&ds.test, |_, s| {
        let label = model.predict(&store, &s.c2v);
        minilang::subtokens(ds.vocabs.name_labels.token(label))
    });
    let mut metric = PrecisionRecallF1::default();
    for (s, predicted) in ds.test.iter().zip(&predictions) {
        metric.add(predicted, &s.subtokens);
    }
    metric.into()
}

fn code2seq_scores(ds: &MethodDataset, scale: &Scale) -> NameScores {
    let mut rng = StdRng::seed_from_u64(scale.seed.wrapping_add(45));
    let samples: Vec<(baselines::Code2SeqInput, Vec<liger::TokenId>)> =
        ds.train.iter().map(|s| (s.c2s.clone(), s.target.clone())).collect();
    let mut store = ParamStore::new();
    let model = Code2Seq::new(
        &mut store,
        ds.vocabs.subtokens.len(),
        ds.vocabs.nodes.len(),
        ds.vocabs.output.len(),
        scale.hidden,
        &mut rng,
    );
    train_code2seq(&model, &mut store, &samples, &scale.baseline_config(), &mut rng);
    let _span = obs::span!("eval.predict");
    let predictions = par::par_map_ordered(&ds.test, |_, s| {
        ds.vocabs.output.decode_name(&model.predict(&store, &s.c2s, 5))
    });
    let mut metric = PrecisionRecallF1::default();
    for (s, predicted) in ds.test.iter().zip(&predictions) {
        metric.add(predicted, &s.subtokens);
    }
    metric.into()
}

/// A model of the §6 comparisons; LIGER carries its §6.3 ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// code2vec (method names only).
    Code2Vec,
    /// code2seq (method names only).
    Code2Seq,
    /// DYPRO, on the concrete traces out of the blended ones.
    Dypro,
    /// LIGER under one ablation.
    Liger(Ablation),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Task {
    MethodName,
    Coset,
}

/// One cell: a model trained and tested at one reduction level.
type CellKey = (Task, Model, PathLevel, usize);

#[derive(Debug, Clone, Copy)]
enum CellScores {
    Name(NameScores, Option<f64>),
    Class(ClassScores),
}

/// The §6 experiments over one [`Scale`]: its two datasets, each built
/// on first use, and a memo of every trained-and-evaluated cell keyed
/// by (task, model, ablation, path level, concrete count). Every table
/// and figure driver reads its cells from here, so a configuration that
/// several of them show — DYPRO at full data, Fig. 11's summary of the
/// ablation figures — trains once.
pub struct Cells {
    scale: Scale,
    method: OnceCell<(MethodDataset, FilterStats)>,
    coset: OnceCell<(CosetDataset, FilterStats)>,
    requests: RefCell<Vec<CellKey>>,
    memo: RefCell<Vec<(CellKey, CellScores)>>,
}

impl Cells {
    /// Experiments at `scale`; nothing is built or trained yet.
    pub fn new(scale: Scale) -> Cells {
        Cells {
            scale,
            method: OnceCell::new(),
            coset: OnceCell::new(),
            requests: RefCell::default(),
            memo: RefCell::default(),
        }
    }

    /// The scale every cell runs at.
    pub fn scale(&self) -> &Scale {
        &self.scale
    }

    /// The method-name dataset and its Table 1 filter statistics.
    pub fn method(&self) -> &(MethodDataset, FilterStats) {
        self.method.get_or_init(|| {
            build_method_dataset(&self.scale, None).expect("no store, no store error")
        })
    }

    /// The COSET-like dataset and its filter statistics.
    pub fn coset(&self) -> &(CosetDataset, FilterStats) {
        self.coset.get_or_init(|| {
            build_coset_dataset(&self.scale, None).expect("no store, no store error")
        })
    }

    /// How many cells the drivers asked for, repeats included.
    pub fn requested(&self) -> usize {
        self.requests.borrow().len()
    }

    /// How many distinct cells the drivers asked for.
    pub fn distinct(&self) -> usize {
        let requests = self.requests.borrow();
        (0..requests.len()).filter(|&i| !requests[..i].contains(&requests[i])).count()
    }

    /// How many models were trained: one per distinct cell.
    pub fn trainings(&self) -> usize {
        self.memo.borrow().len()
    }

    fn cell(&self, key: CellKey, train: impl FnOnce() -> CellScores) -> CellScores {
        self.requests.borrow_mut().push(key);
        if let Some(&(_, scores)) = self.memo.borrow().iter().find(|(k, _)| *k == key) {
            return scores;
        }
        let scores = train();
        self.memo.borrow_mut().push((key, scores));
        scores
    }

    /// Method-name scores of `model` trained and tested at `paths` ×
    /// `concrete`, with LIGER's mean static-feature attention (the
    /// §6.1.2 measurement; `None` for the other models). The static
    /// baselines see neither trace dimension, so they ignore both levels.
    pub fn name_scores(
        &self,
        model: Model,
        paths: PathLevel,
        concrete: usize,
    ) -> (NameScores, Option<f64>) {
        let (ds, scale) = (&self.method().0, &self.scale);
        let scores = self.cell((Task::MethodName, model, paths, concrete), || {
            let (scores, attention) = match model {
                Model::Code2Vec => (code2vec_scores(ds, scale), None),
                Model::Code2Seq => (code2seq_scores(ds, scale), None),
                Model::Dypro => (dypro_method_scores(ds, scale, paths, concrete), None),
                Model::Liger(ablation) => liger_method_scores(ds, scale, ablation, paths, concrete),
            };
            CellScores::Name(scores, attention)
        });
        let CellScores::Name(scores, attention) = scores else {
            unreachable!("method-name cells hold name scores")
        };
        (scores, attention)
    }

    /// COSET classification scores of `model` trained and tested at
    /// `paths` × `concrete`.
    ///
    /// # Panics
    ///
    /// For code2vec and code2seq, which have no classification head.
    pub fn class_scores(&self, model: Model, paths: PathLevel, concrete: usize) -> ClassScores {
        let (ds, scale) = (&self.coset().0, &self.scale);
        let scores = self.cell((Task::Coset, model, paths, concrete), || {
            CellScores::Class(match model {
                Model::Dypro => dypro_coset_scores(ds, scale, paths, concrete),
                Model::Liger(ablation) => liger_coset_scores(ds, scale, ablation, paths, concrete),
                Model::Code2Vec | Model::Code2Seq => {
                    panic!("{model:?} has no classification head")
                }
            })
        });
        let CellScores::Class(scores) = scores else {
            unreachable!("COSET cells hold class scores")
        };
        scores
    }
}

/// **Table 2** — method-name prediction: all four models on one dataset
/// scale. Rows in the paper's order.
pub fn table2(cells: &Cells) -> Vec<(String, NameScores)> {
    let concrete = cells.scale.concrete_per_path;
    [
        ("code2vec", Model::Code2Vec),
        ("code2seq", Model::Code2Seq),
        ("DYPRO", Model::Dypro),
        ("LIGER", Model::Liger(Ablation::Full)),
    ]
    .into_iter()
    .map(|(name, model)| (name.into(), cells.name_scores(model, PathLevel::Full, concrete).0))
    .collect()
}

/// One row of a concrete-trace reduction figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConcreteRow {
    /// Concrete traces per blended trace.
    pub concrete: usize,
    /// LIGER F1 (%).
    pub liger_f1: f64,
    /// DYPRO F1 (%).
    pub dypro_f1: f64,
    /// Mean fusion attention on the static dimension (None under
    /// ablations that remove a dimension).
    pub liger_static_attention: Option<f64>,
}

/// **Figure 6a/6b** (and Figure 8's concrete half under an ablation) —
/// F1 as concrete traces per blended trace are reduced, symbolic traces
/// constant.
pub fn fig6_concrete(cells: &Cells, ablation: Ablation) -> Vec<ConcreteRow> {
    (1..=cells.scale.concrete_per_path)
        .rev()
        .map(|concrete| {
            let (liger, attn) =
                cells.name_scores(Model::Liger(ablation), PathLevel::Full, concrete);
            let (dypro, _) = cells.name_scores(Model::Dypro, PathLevel::Full, concrete);
            ConcreteRow {
                concrete,
                liger_f1: liger.f1,
                dypro_f1: dypro.f1,
                liger_static_attention: attn,
            }
        })
        .collect()
}

/// One row of a symbolic-trace reduction figure.
#[derive(Debug, Clone, PartialEq)]
pub struct SymbolicRow {
    /// The reduction level label.
    pub level: String,
    /// LIGER F1 (%).
    pub liger_f1: f64,
    /// DYPRO F1 (%).
    pub dypro_f1: f64,
}

/// The §6.1.2 symbolic-reduction ladder: full → 75% → 50% → minimum
/// line-cover → a single trace.
pub fn symbolic_levels() -> Vec<PathLevel> {
    vec![
        PathLevel::Full,
        PathLevel::Fraction(0.75),
        PathLevel::Fraction(0.5),
        PathLevel::MinCover,
        PathLevel::Count(1),
    ]
}

/// Concrete traces per path under the symbolic reduction (three, per
/// §6.1.2, or fewer when the scale collects fewer).
pub fn symbolic_concrete(scale: &Scale) -> usize {
    3.min(scale.concrete_per_path)
}

/// **Figure 6c/6d** (and Figures 9/10's symbolic halves under ablations)
/// — F1 as symbolic traces are removed while line coverage is preserved
/// (three concrete traces per path, per §6.1.2).
pub fn fig6_symbolic(cells: &Cells, ablation: Ablation) -> Vec<SymbolicRow> {
    let concrete = symbolic_concrete(&cells.scale);
    symbolic_levels()
        .into_iter()
        .map(|level| {
            let (liger, _) = cells.name_scores(Model::Liger(ablation), level, concrete);
            let (dypro, _) = cells.name_scores(Model::Dypro, level, concrete);
            SymbolicRow { level: level.label(), liger_f1: liger.f1, dypro_f1: dypro.f1 }
        })
        .collect()
}

/// Classification scores (Table 3's columns).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClassScores {
    /// Accuracy (%).
    pub accuracy: f64,
    /// Macro F1 in [0, 1].
    pub f1: f64,
}

/// Trains and evaluates LIGER's classifier on COSET at the given levels.
pub fn liger_coset_scores(
    ds: &CosetDataset,
    scale: &Scale,
    ablation: Ablation,
    paths: PathLevel,
    concrete: usize,
) -> ClassScores {
    let (cls, store) = train_coset_classifier(ds, scale, ablation, paths, concrete);
    eval_coset_classifier(&cls, &store, ds, scale, paths, concrete)
}

/// Trains LIGER's classifier on `ds.train` at the given reduction levels
/// and returns the trained model with its parameters — checkpoint them
/// with [`tensor::ParamStore::save_to_path`] and restore with
/// [`load_coset_classifier`].
pub fn train_coset_classifier(
    ds: &CosetDataset,
    scale: &Scale,
    ablation: Ablation,
    paths: PathLevel,
    concrete: usize,
) -> (LigerClassifier, ParamStore) {
    let mut rng = StdRng::seed_from_u64(scale.seed.wrapping_add(46));
    let opts = scale.prepare_options().encode;
    let at = |s: &crate::pipeline::PreparedCoset| {
        let keep = paths.resolve(s.blended.len(), s.min_cover);
        coset_at(s, &ds.vocab, &opts, keep, concrete).0
    };
    let samples: Vec<ClassSample> =
        ds.train.iter().map(|s| ClassSample { program: at(s), label: s.label }).collect();
    let mut store = ParamStore::new();
    let model = LigerModel::new(
        &mut store,
        ds.vocab.len(),
        scale.liger_config(ablation),
        &mut rng,
    );
    let cls = LigerClassifier::new(&mut store, model, ds.num_classes, &mut rng);
    liger::train_classifier(&cls, &mut store, &samples, &scale.train_config(), &mut rng);
    (cls, store)
}

/// Restores a classifier checkpoint saved from [`train_coset_classifier`],
/// validating the loaded parameters against the architecture layout.
///
/// # Errors
///
/// Returns a description of the I/O or format failure, or of the first
/// parameter that does not fit the architecture.
pub fn load_coset_classifier(
    ds: &CosetDataset,
    scale: &Scale,
    ablation: Ablation,
    path: impl AsRef<std::path::Path>,
) -> Result<(LigerClassifier, ParamStore), String> {
    let mut rng = StdRng::seed_from_u64(0); // layout only; values are replaced
    let mut skeleton = ParamStore::new();
    let model =
        LigerModel::new(&mut skeleton, ds.vocab.len(), scale.liger_config(ablation), &mut rng);
    let cls = LigerClassifier::new(&mut skeleton, model, ds.num_classes, &mut rng);
    let store = checked_load(&skeleton, path)?;
    Ok((cls, store))
}

/// Evaluates a trained classifier on `ds.test`.
pub fn eval_coset_classifier(
    cls: &LigerClassifier,
    store: &ParamStore,
    ds: &CosetDataset,
    scale: &Scale,
    paths: PathLevel,
    concrete: usize,
) -> ClassScores {
    let opts = scale.prepare_options().encode;
    let at = |s: &crate::pipeline::PreparedCoset| {
        let keep = paths.resolve(s.blended.len(), s.min_cover);
        coset_at(s, &ds.vocab, &opts, keep, concrete).0
    };
    let mut workspaces: Vec<liger::Workspace> = Vec::new();
    let _span = obs::span!("eval.predict");
    let predictions = par::par_map_ordered_with(
        &ds.test,
        &mut workspaces,
        liger::Workspace::new,
        |ws, _, s| cls.predict_in(ws, store, &at(s)),
    );
    let mut acc = Accuracy::default();
    let mut f1 = ClassF1::default();
    for (s, &predicted) in ds.test.iter().zip(&predictions) {
        acc.add(predicted, s.label);
        f1.add(predicted, s.label);
    }
    ClassScores { accuracy: acc.percent(), f1: f1.macro_f1() }
}

/// Trains and evaluates DYPRO's classifier on COSET at the given levels.
pub fn dypro_coset_scores(
    ds: &CosetDataset,
    scale: &Scale,
    paths: PathLevel,
    concrete: usize,
) -> ClassScores {
    let mut rng = StdRng::seed_from_u64(scale.seed.wrapping_add(47));
    let opts = scale.prepare_options().encode;
    let at = |s: &crate::pipeline::PreparedCoset| {
        let keep = paths.resolve(s.blended.len(), s.min_cover);
        coset_at(s, &ds.vocab, &opts, keep, concrete).1
    };
    let samples: Vec<(baselines::DyproProgram, usize)> =
        ds.train.iter().map(|s| (at(s), s.label)).collect();
    let mut store = ParamStore::new();
    let cls =
        DyproClassifier::new(&mut store, ds.vocab.len(), ds.num_classes, scale.hidden, &mut rng);
    train_dypro_classifier(&cls, &mut store, &samples, &scale.dypro_config(), &mut rng);

    let _span = obs::span!("eval.predict");
    let predictions = par::par_map_ordered(&ds.test, |_, s| cls.predict(&store, &at(s)));
    let mut acc = Accuracy::default();
    let mut f1 = ClassF1::default();
    for (s, &predicted) in ds.test.iter().zip(&predictions) {
        acc.add(predicted, s.label);
        f1.add(predicted, s.label);
    }
    ClassScores { accuracy: acc.percent(), f1: f1.macro_f1() }
}

/// **Table 3** — COSET semantics classification, DYPRO vs LIGER.
pub fn table3(cells: &Cells) -> Vec<(String, ClassScores)> {
    let concrete = cells.scale.concrete_per_path;
    [("DYPRO", Model::Dypro), ("LIGER", Model::Liger(Ablation::Full))]
        .into_iter()
        .map(|(name, model)| (name.into(), cells.class_scores(model, PathLevel::Full, concrete)))
        .collect()
}

/// One row of Figure 7 (COSET down-sampling).
#[derive(Debug, Clone, PartialEq)]
pub struct CosetReductionRow {
    /// Level label (e.g. "concrete=2" or "paths=min-cover").
    pub level: String,
    /// LIGER accuracy (%).
    pub liger_acc: f64,
    /// DYPRO accuracy (%).
    pub dypro_acc: f64,
}

/// **Figure 7** — COSET accuracy under concrete- and symbolic-trace
/// down-sampling.
pub fn fig7(cells: &Cells) -> Vec<CosetReductionRow> {
    let liger = Model::Liger(Ablation::Full);
    let row = |level: String, paths: PathLevel, concrete: usize| CosetReductionRow {
        level,
        liger_acc: cells.class_scores(liger, paths, concrete).accuracy,
        dypro_acc: cells.class_scores(Model::Dypro, paths, concrete).accuracy,
    };
    let mut rows: Vec<CosetReductionRow> = (1..=cells.scale.concrete_per_path)
        .rev()
        .map(|concrete| row(format!("concrete={concrete}"), PathLevel::Full, concrete))
        .collect();
    let concrete = 2.min(cells.scale.concrete_per_path);
    for level in symbolic_levels() {
        rows.push(row(format!("paths={}", level.label()), level, concrete));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_level_resolution() {
        assert_eq!(PathLevel::Full.resolve(8, 3), 8);
        assert_eq!(PathLevel::Fraction(0.5).resolve(8, 3), 4);
        // Fraction never goes below the min cover.
        assert_eq!(PathLevel::Fraction(0.25).resolve(8, 3), 3);
        assert_eq!(PathLevel::MinCover.resolve(8, 3), 3);
        assert_eq!(PathLevel::Count(1).resolve(8, 3), 1);
        assert_eq!(PathLevel::Count(99).resolve(8, 3), 8);
        // Degenerate sample with no paths at all.
        assert_eq!(PathLevel::MinCover.resolve(0, 0), 0);
        assert_eq!(PathLevel::Full.resolve(0, 0), 0);
    }

    #[test]
    fn table1_reports_consistent_totals() {
        let stats = table1(&Scale::tiny());
        assert_eq!(
            stats.original,
            stats.kept + stats.no_compile + stats.no_exec + stats.timeout + stats.too_small
        );
        assert!(stats.kept > 0);
    }

    fn tokens(len: usize, token: impl Fn(usize) -> String) -> Vec<String> {
        (0..len).map(token).collect()
    }

    fn vocab_tokens(v: &liger::Vocab) -> Vec<String> {
        tokens(v.len(), |i| v.token(i).to_string())
    }

    fn assert_same_method(a: &MethodDataset, b: &MethodDataset) {
        let vocabs = |d: &MethodDataset| {
            let v = &d.vocabs;
            let inputs = [&v.input, &v.terms, &v.paths, &v.subtokens, &v.nodes, &v.name_labels];
            (inputs.map(vocab_tokens), tokens(v.output.len(), |i| v.output.token(i).to_string()))
        };
        assert_eq!(vocabs(a), vocabs(b));
        assert!(a.train == b.train && a.test == b.test, "method samples differ");
    }

    fn assert_same_coset(a: &CosetDataset, b: &CosetDataset) {
        assert_eq!(vocab_tokens(&a.vocab), vocab_tokens(&b.vocab));
        assert_eq!(a.num_classes, b.num_classes);
        assert!(a.train == b.train && a.test == b.test, "COSET samples differ");
    }

    /// The datasets every paper cell trains on are the ones the artifact
    /// store caches: a cold and a warm store-backed build equal `Cells`'
    /// no-store build, and the warm build traces no program.
    #[test]
    fn cells_datasets_equal_cold_and_warm_store_builds() {
        let scale = Scale::tiny();
        let cells = Cells::new(scale.clone());
        let dir = std::env::temp_dir().join(format!("lgrs-eval-cells-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let st = store::Store::open(&dir).unwrap();
        for pass in ["cold", "warm"] {
            let before = store::StoreStats::snapshot();
            let (method, method_stats) = build_method_dataset(&scale, Some(&st)).unwrap();
            let (coset, coset_stats) = build_coset_dataset(&scale, Some(&st)).unwrap();
            let delta = store::StoreStats::snapshot().since(&before);
            assert_eq!((method_stats, coset_stats), (cells.method().1, cells.coset().1));
            assert_same_method(&method, &cells.method().0);
            assert_same_coset(&coset, &cells.coset().0);
            if pass == "warm" {
                assert_eq!(delta.misses, 0, "warm build traced {} program(s)", delta.misses);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Diagnostic (run with `--ignored --nocapture`): train-set fit of the
    /// dynamic models at bench scale — separates optimization failures
    /// from generalization gaps.
    #[test]
    #[ignore]
    fn diag_trainset_fit() {
        let scale = Scale::bench();
        let (mut ds, _) = build_method_dataset(&scale, None).unwrap();
        ds.test = ds.train.clone();
        let (liger, attn) = liger_method_scores(
            &ds,
            &scale,
            Ablation::Full,
            PathLevel::Full,
            scale.concrete_per_path,
        );
        eprintln!("LIGER train-set fit: {liger:?}, attn {attn:?}");
        let dypro =
            dypro_method_scores(&ds, &scale, PathLevel::Full, scale.concrete_per_path);
        eprintln!("DYPRO train-set fit: {dypro:?}");
    }

    #[test]
    fn unknown_scale_names_are_rejected() {
        assert_eq!(Scale::named_or(None, Scale::tiny).name, "tiny");
        assert_eq!(Scale::named_or(Some("med"), Scale::tiny).name, "med");
        let fig = std::panic::catch_unwind(|| Scale::named_or(Some("fig"), Scale::bench));
        let message = fig.expect_err("`fig` is no scale name");
        let message = message.downcast_ref::<String>().expect("formatted panic");
        assert!(message.contains("\"fig\"") && message.contains("tiny, bench, med, large"));
    }

    #[test]
    fn tiny_table2_runs_end_to_end() {
        let cells = Cells::new(Scale::tiny());
        let rows = table2(&cells);
        assert_eq!(rows.len(), 4);
        for (name, scores) in &rows {
            assert!(
                scores.f1 >= 0.0 && scores.f1 <= 100.0,
                "{name} F1 out of range: {scores:?}"
            );
        }
        // Asking again is served from the memo, bit for bit.
        assert_eq!(table2(&cells), rows);
        assert_eq!((cells.requested(), cells.distinct(), cells.trainings()), (8, 4, 4));
    }

    #[test]
    fn tiny_table3_runs_end_to_end() {
        let rows = table3(&Cells::new(Scale::tiny()));
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|(_, s)| s.accuracy >= 0.0 && s.accuracy <= 100.0));
    }
}
