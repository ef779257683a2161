//! The LIGER encoder (Figure 5, §5.1.1).
//!
//! Four layers, exactly as the paper describes:
//!
//! 1. **Vocabulary embedding** — every token of 𝒟ₛ ∪ 𝒟_d has a vector.
//! 2. **Fusion** — per ordered pair θⱼ = ⟨eⱼ, Sⱼ⟩: a Child-Sum TreeLSTM
//!    embeds the statement AST (h_sta); each program state is embedded by
//!    an RNN over its variables (f₂), with object values pre-embedded by a
//!    value RNN (f₁, Equation 3); an attention network a₁ (queried by the
//!    running trace embedding Hᵉ_{j−1}) allocates weights across the
//!    feature vectors, which are combined into one step embedding h_j.
//!    At the first ordered pair weights are distributed evenly, as in the
//!    paper.
//! 3. **Executions embedding** — a third RNN (f₃) models the flow of the
//!    blended trace: Hᵉ_j = f₃(Hᵉ_{j−1}, h_j).
//! 4. **Programs embedding** — max-pooling over the per-trace embeddings
//!    Hᵉ₁ … Hᵉ_U yields the program embedding 𝓗_P.
//!
//! The ablation switches of §6.3 (no static / no dynamic / no attention)
//! are first-class configuration.
//!
//! ## Embedding memoization
//!
//! Within one forward pass the same interned statement tree is embedded
//! once per blended trace (U times) and recurring states once per
//! occurrence. [`LigerModel::encode_memo`] eliminates that recomputation:
//! the first occurrence of an interned id runs normally, the second runs
//! normally while its graph-node span is recorded, and every later
//! occurrence replays the recorded span via `Graph::replay_span` — a
//! memcpy of ops and values instead of TreeLSTM/RNN kernel evaluations.
//! Because the replayed span is node-for-node the tape an uncached pass
//! would have pushed, forward values, gradient flow, and parameter
//! updates are **bitwise identical** to [`LigerModel::encode`]
//! (DESIGN.md §2b; proven by the equivalence tests below and the training
//! proptest in `tests/autodiff_properties.rs`).

use crate::encode::{EncPool, EncStepRef, EncodedProgram, PoolVar, StateId, TreeId};
use nn::{AttentionScorer, ChildSumTreeLstm, Embedding, RnnCell};
use rand::Rng;
use std::collections::HashMap;
use tensor::{Graph, ParamId, ParamStore, VarId};

/// Which fusion-layer component to ablate (§6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Ablation {
    /// The full blended model.
    #[default]
    Full,
    /// §6.3.1 — remove the symbolic (static) feature dimension.
    NoStatic,
    /// §6.3.2 — remove the concrete (dynamic) feature dimension.
    NoDynamic,
    /// §6.3.3 — remove the attention mechanism (uniform fusion weights).
    NoAttention,
}

impl Ablation {
    /// Stable serialization name (used by checkpoint bundles).
    pub fn name(self) -> &'static str {
        match self {
            Ablation::Full => "full",
            Ablation::NoStatic => "no-static",
            Ablation::NoDynamic => "no-dynamic",
            Ablation::NoAttention => "no-attention",
        }
    }

    /// Inverse of [`Ablation::name`].
    pub fn from_name(name: &str) -> Option<Ablation> {
        match name {
            "full" => Some(Ablation::Full),
            "no-static" => Some(Ablation::NoStatic),
            "no-dynamic" => Some(Ablation::NoDynamic),
            "no-attention" => Some(Ablation::NoAttention),
            _ => None,
        }
    }
}

/// Model hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LigerConfig {
    /// Hidden size of every RNN and of the embeddings (the paper uses
    /// 100; the reproduction defaults to a laptop-friendly 24).
    pub hidden: usize,
    /// Internal width of the attention scorers.
    pub attn: usize,
    /// Maximum sub-tokens generated per method name.
    pub max_name_len: usize,
    /// Fusion ablation switch.
    pub ablation: Ablation,
}

impl Default for LigerConfig {
    fn default() -> Self {
        LigerConfig { hidden: 24, attn: 24, max_name_len: 6, ablation: Ablation::Full }
    }
}

/// The outputs of the encoder for one program.
#[derive(Debug, Clone)]
pub struct EncoderOutput {
    /// The program embedding 𝓗_P.
    pub program: VarId,
    /// The flow states Hᵉ_{i,j} for every trace i and step j — the
    /// decoder's attention memory.
    pub flow: Vec<Vec<VarId>>,
    /// The fusion attention weight given to the static feature at each
    /// step (empty under `NoStatic`/`NoDynamic`); feeds the §6.1.2
    /// attention-weight analysis.
    pub static_attention: Vec<f32>,
}

impl EncoderOutput {
    /// All flow states flattened (what the decoder attends over).
    pub fn all_flow_states(&self) -> Vec<VarId> {
        self.flow.iter().flatten().copied().collect()
    }

    /// Mean fusion attention on the static dimension, if measured.
    pub fn mean_static_attention(&self) -> Option<f32> {
        if self.static_attention.is_empty() {
            None
        } else {
            Some(self.static_attention.iter().sum::<f32>() / self.static_attention.len() as f32)
        }
    }
}

/// The LIGER encoder.
#[derive(Debug, Clone, Copy)]
pub struct LigerModel {
    /// Hyperparameters.
    pub cfg: LigerConfig,
    pub(crate) emb: Embedding,
    pub(crate) tree: ChildSumTreeLstm,
    pub(crate) f1: RnnCell,
    pub(crate) f2: RnnCell,
    pub(crate) f3: RnnCell,
    pub(crate) a1: AttentionScorer,
}

impl LigerModel {
    /// Registers all encoder parameters in `store`.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        vocab_size: usize,
        cfg: LigerConfig,
        rng: &mut R,
    ) -> LigerModel {
        let h = cfg.hidden;
        LigerModel {
            cfg,
            emb: Embedding::new(store, "liger.emb", vocab_size, h, rng),
            tree: ChildSumTreeLstm::new(store, "liger.tree", h, h, rng),
            f1: RnnCell::new(store, "liger.f1", h, h, rng),
            f2: RnnCell::new(store, "liger.f2", h, h, rng),
            f3: RnnCell::new(store, "liger.f3", h, h, rng),
            a1: AttentionScorer::new(store, "liger.a1", h, h, cfg.attn, rng),
        }
    }

    /// The token-embedding table (shared by tests and introspection).
    pub fn embedding(&self) -> &Embedding {
        &self.emb
    }

    /// All encoder parameter ids.
    pub fn params(&self) -> Vec<ParamId> {
        let mut out = vec![self.emb.param()];
        out.extend(self.tree.params());
        out.extend(self.f1.params());
        out.extend(self.f2.params());
        out.extend(self.f3.params());
        out.extend(self.a1.params());
        out
    }

    /// Embeds a statement AST with the TreeLSTM, returning the root's
    /// hidden state h_sta.
    pub fn embed_tree(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        pool: &EncPool,
        id: TreeId,
    ) -> VarId {
        let state = self.embed_tree_rec(g, store, pool, id);
        state.h
    }

    fn embed_tree_rec(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        pool: &EncPool,
        id: TreeId,
    ) -> nn::LstmState {
        let node = pool.tree(id);
        let children: Vec<nn::LstmState> =
            node.children.iter().map(|&c| self.embed_tree_rec(g, store, pool, c)).collect();
        let x = self.emb.lookup(g, store, node.token);
        self.tree.node(g, store, x, &children)
    }

    /// Embeds one program state: per-variable embeddings (f₁ for objects,
    /// direct for primitives) threaded through the state RNN f₂.
    pub fn embed_state(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        pool: &EncPool,
        id: StateId,
    ) -> VarId {
        let node = pool.state(id);
        let var_vecs: Vec<VarId> = node
            .vars
            .iter()
            .map(|v| match v {
                PoolVar::Primitive(t) => self.emb.lookup(g, store, *t),
                PoolVar::Object(o) => {
                    let xs = self.emb.lookup_seq(g, store, pool.object(*o));
                    self.f1.encode(g, store, &xs)
                }
            })
            .collect();
        self.f2.encode(g, store, &var_vecs)
    }

    /// Memoized [`LigerModel::embed_tree`]: occurrence 1 of an interned id
    /// computes normally, occurrence 2 computes normally while recording
    /// its node span, occurrence 3+ replays the span. Recording the
    /// *second* occurrence guarantees the span contains no
    /// first-occurrence `param_row` leaves (occurrence 1 filled the row
    /// cache), which is exactly the `Graph::replay_span` precondition —
    /// and it makes the memoized tape node-for-node identical to the
    /// uncached one.
    fn embed_tree_memo(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        pool: &EncPool,
        id: TreeId,
        memo: Option<&mut EmbedMemo>,
    ) -> VarId {
        let _span = obs::span!("encode.tree");
        let Some(memo) = memo else {
            return self.embed_tree(g, store, pool, id);
        };
        match memo.trees.get(&id).copied() {
            Some(MemoEntry::Ready { start, len, result_rel }) => {
                obs::counter!("encode.tree_hits").inc();
                memo.replays += 1;
                let new_start = g.replay_span(start, len);
                g.var(new_start + result_rel)
            }
            Some(MemoEntry::Once) => {
                obs::counter!("encode.tree_misses").inc();
                let start = g.len();
                let h = self.embed_tree(g, store, pool, id);
                let entry = MemoEntry::Ready {
                    start,
                    len: g.len() - start,
                    result_rel: h.index() - start,
                };
                memo.trees.insert(id, entry);
                h
            }
            None => {
                obs::counter!("encode.tree_misses").inc();
                memo.trees.insert(id, MemoEntry::Once);
                self.embed_tree(g, store, pool, id)
            }
        }
    }

    /// Memoized [`LigerModel::embed_state`] (same protocol as
    /// [`LigerModel::embed_tree_memo`]).
    fn embed_state_memo(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        pool: &EncPool,
        id: StateId,
        memo: Option<&mut EmbedMemo>,
    ) -> VarId {
        let _span = obs::span!("encode.state");
        let Some(memo) = memo else {
            return self.embed_state(g, store, pool, id);
        };
        match memo.states.get(&id).copied() {
            Some(MemoEntry::Ready { start, len, result_rel }) => {
                obs::counter!("encode.state_hits").inc();
                memo.replays += 1;
                let new_start = g.replay_span(start, len);
                g.var(new_start + result_rel)
            }
            Some(MemoEntry::Once) => {
                obs::counter!("encode.state_misses").inc();
                let start = g.len();
                let h = self.embed_state(g, store, pool, id);
                let entry = MemoEntry::Ready {
                    start,
                    len: g.len() - start,
                    result_rel: h.index() - start,
                };
                memo.states.insert(id, entry);
                h
            }
            None => {
                obs::counter!("encode.state_misses").inc();
                memo.states.insert(id, MemoEntry::Once);
                self.embed_state(g, store, pool, id)
            }
        }
    }

    /// Encodes a whole program (all blended traces) per Figure 5.
    pub fn encode(&self, g: &mut Graph, store: &ParamStore, prog: &EncodedProgram) -> EncoderOutput {
        self.encode_impl(g, store, prog, None)
    }

    /// [`LigerModel::encode`] with per-pass embedding memoization against
    /// a reusable [`Workspace`]. Produces a bitwise-identical tape — same
    /// values, same gradients — while skipping every repeated
    /// statement/state embedding. Call [`Workspace::reset`] between
    /// examples.
    pub fn encode_memo(
        &self,
        ws: &mut Workspace,
        store: &ParamStore,
        prog: &EncodedProgram,
    ) -> EncoderOutput {
        let Workspace { graph, memo } = ws;
        self.encode_impl(graph, store, prog, Some(memo))
    }

    fn encode_impl(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        prog: &EncodedProgram,
        mut memo: Option<&mut EmbedMemo>,
    ) -> EncoderOutput {
        let _span = obs::span!("encode.program");
        obs::counter!("encode.programs").inc();
        let mut flow: Vec<Vec<VarId>> = Vec::new();
        let mut trace_embeddings: Vec<VarId> = Vec::new();
        let mut static_attention: Vec<f32> = Vec::new();

        for blended in &prog.traces {
            if blended.steps.is_empty() {
                continue;
            }
            let mut h_prev = self.f3.zero_state(g);
            let mut states = Vec::with_capacity(blended.steps.len());
            for (j, step) in blended.steps.iter().enumerate() {
                let h_j = self.fuse_step(
                    g,
                    store,
                    &prog.pool,
                    step,
                    h_prev,
                    j,
                    memo.as_deref_mut(),
                    &mut static_attention,
                );
                h_prev = self.f3.step(g, store, h_j, h_prev);
                states.push(h_prev);
            }
            trace_embeddings
                .push(*states.last().expect("non-empty trace has a final state"));
            flow.push(states);
        }

        let program = if trace_embeddings.is_empty() {
            g.zeros(self.cfg.hidden, 1)
        } else {
            g.max_pool(&trace_embeddings)
        };
        EncoderOutput { program, flow, static_attention }
    }

    /// The fusion layer for one ordered pair (step `j` of a blended
    /// trace): statement/state feature embeddings combined under a₁
    /// attention weights (even at `j == 0` or under ablations).
    #[allow(clippy::too_many_arguments)]
    fn fuse_step(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        pool: &EncPool,
        step: &EncStepRef,
        h_prev: VarId,
        j: usize,
        mut memo: Option<&mut EmbedMemo>,
        static_attention: &mut Vec<f32>,
    ) -> VarId {
        let mut features: Vec<VarId> = Vec::new();
        let has_static = self.cfg.ablation != Ablation::NoStatic;
        if has_static {
            features.push(self.embed_tree_memo(g, store, pool, step.tree, memo.as_deref_mut()));
        }
        if self.cfg.ablation != Ablation::NoDynamic {
            for &s in &step.states {
                features.push(self.embed_state_memo(g, store, pool, s, memo.as_deref_mut()));
            }
        }
        debug_assert!(!features.is_empty(), "fusion layer needs at least one feature");

        if features.len() == 1 {
            if has_static && self.cfg.ablation != Ablation::NoDynamic {
                static_attention.push(1.0);
            }
            features[0]
        } else if j == 0 || self.cfg.ablation == Ablation::NoAttention {
            // Even weights: first ordered pair (paper §5.1.1) or the
            // no-attention ablation (§6.3.3).
            let w = 1.0 / features.len() as f32;
            let sum = g.sum_vecs(&features);
            if has_static {
                static_attention.push(w);
            }
            g.scale(sum, w)
        } else {
            let (ctx, weights) = self.a1.attend(g, store, h_prev, &features, None);
            if has_static {
                static_attention.push(g.value(weights).data()[0]);
            }
            ctx
        }
    }
}

/// One occurrence-tracking entry of an [`EmbedMemo`].
#[derive(Debug, Clone, Copy)]
enum MemoEntry {
    /// Seen once; computed normally, not yet recorded.
    Once,
    /// Seen at least twice; the recorded graph-node span of the second
    /// occurrence, ready for `Graph::replay_span`.
    Ready { start: usize, len: usize, result_rel: usize },
}

/// The per-pass embedding memo: interned-id → recorded span. Valid only
/// for the graph it was built against; [`Workspace::reset`] clears both
/// together.
#[derive(Debug, Default)]
struct EmbedMemo {
    trees: HashMap<TreeId, MemoEntry>,
    states: HashMap<StateId, MemoEntry>,
    replays: u64,
}

/// A reusable per-worker encoding arena: one long-lived [`Graph`] (whose
/// buffer pool serves each example's tensors from recycled storage) plus
/// the embedding memo keyed on interned ids. Hold one per `par` worker
/// and [`Workspace::reset`] it between examples.
#[derive(Debug, Default)]
pub struct Workspace {
    /// The graph arena; exposed so callers can read values and run
    /// backward on it.
    pub graph: Graph,
    memo: EmbedMemo,
}

impl Workspace {
    /// An empty workspace.
    pub fn new() -> Workspace {
        Workspace::default()
    }

    /// Clears the graph (retaining arena capacity) and the embedding memo
    /// — the memo's recorded spans are positions in the cleared tape, so
    /// the two must never be reset separately.
    pub fn reset(&mut self) {
        self.graph.reset();
        self.memo.trees.clear();
        self.memo.states.clear();
    }

    /// Number of span replays served by the memo since construction (a
    /// diagnostic: each one is a skipped statement/state re-embedding).
    pub fn replays(&self) -> u64 {
        self.memo.replays
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{EncBlended, EncState, EncStep, EncTree, EncVar};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn leaf(token: usize) -> EncTree {
        EncTree { token, children: Vec::new() }
    }

    fn tiny_program(n_traces: usize, n_steps: usize, n_states: usize) -> EncodedProgram {
        let step = EncStep {
            tree: EncTree { token: 1, children: vec![leaf(2), leaf(3)] },
            states: (0..n_states)
                .map(|k| EncState {
                    vars: vec![EncVar::Primitive(4 + k), EncVar::Object(vec![2, 3])],
                })
                .collect(),
        };
        EncodedProgram::from_traces(
            (0..n_traces).map(|_| EncBlended { steps: vec![step.clone(); n_steps] }).collect(),
        )
    }

    fn model(ablation: Ablation) -> (ParamStore, LigerModel) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(42);
        let cfg = LigerConfig { hidden: 6, attn: 6, ablation, ..LigerConfig::default() };
        let m = LigerModel::new(&mut store, 10, cfg, &mut rng);
        (store, m)
    }

    #[test]
    fn encode_shapes() {
        let (store, m) = model(Ablation::Full);
        let prog = tiny_program(3, 4, 2);
        let mut g = Graph::new();
        let out = m.encode(&mut g, &store, &prog);
        assert_eq!(g.value(out.program).rows(), 6);
        assert_eq!(out.flow.len(), 3);
        assert_eq!(out.flow[0].len(), 4);
        assert_eq!(out.all_flow_states().len(), 12);
        // Static attention measured for steps 2..4 of each trace (step 1
        // uses even weights but still reports it) = 4 per trace.
        assert_eq!(out.static_attention.len(), 12);
    }

    #[test]
    fn fusion_weights_are_probabilities() {
        let (store, m) = model(Ablation::Full);
        let prog = tiny_program(1, 5, 3);
        let mut g = Graph::new();
        let out = m.encode(&mut g, &store, &prog);
        for &w in &out.static_attention {
            assert!((0.0..=1.0).contains(&w), "weight {w} out of range");
        }
        assert!(out.mean_static_attention().is_some());
    }

    #[test]
    fn no_static_reports_no_static_attention() {
        let (store, m) = model(Ablation::NoStatic);
        let prog = tiny_program(2, 3, 2);
        let mut g = Graph::new();
        let out = m.encode(&mut g, &store, &prog);
        assert!(out.static_attention.is_empty());
        assert!(out.mean_static_attention().is_none());
    }

    #[test]
    fn no_dynamic_uses_full_static_weight() {
        let (store, m) = model(Ablation::NoDynamic);
        let prog = tiny_program(2, 3, 2);
        let mut g = Graph::new();
        let out = m.encode(&mut g, &store, &prog);
        // Single feature per step: no attention weights recorded.
        assert!(out.static_attention.is_empty());
        assert_eq!(g.value(out.program).rows(), 6);
    }

    #[test]
    fn no_attention_uses_uniform_weights() {
        let (store, m) = model(Ablation::NoAttention);
        let prog = tiny_program(1, 4, 2);
        let mut g = Graph::new();
        let out = m.encode(&mut g, &store, &prog);
        // 3 features per step (1 static + 2 dynamic) → weight 1/3 always.
        for &w in &out.static_attention {
            assert!((w - 1.0 / 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn empty_program_encodes_to_zero() {
        let (store, m) = model(Ablation::Full);
        let prog = EncodedProgram::default();
        let mut g = Graph::new();
        let out = m.encode(&mut g, &store, &prog);
        assert_eq!(g.value(out.program).data(), &[0.0; 6]);
        assert!(out.all_flow_states().is_empty());
    }

    #[test]
    fn gradients_flow_through_full_encoder() {
        let (mut store, m) = model(Ablation::Full);
        let prog = tiny_program(2, 3, 2);
        let mut g = Graph::new();
        let out = m.encode(&mut g, &store, &prog);
        let loss = g.cross_entropy(out.program, 0);
        g.backward(loss, &mut store);
        assert!(store.grad_norm() > 0.0, "no gradient reached the parameters");
    }

    #[test]
    fn memoized_encode_is_bitwise_identical_to_uncached() {
        for ablation in
            [Ablation::Full, Ablation::NoStatic, Ablation::NoDynamic, Ablation::NoAttention]
        {
            let (store, m) = model(ablation);
            // Repeated trees (3 traces of the same steps) and repeated
            // states — the memo's whole purpose.
            let prog = tiny_program(3, 4, 2);

            let mut g = Graph::new();
            let plain = m.encode(&mut g, &store, &prog);
            let plain_len = g.len();
            let (_, plain_grads) = {
                let loss = g.cross_entropy(plain.program, 0);
                g.backward_grads(loss, &store)
            };

            let mut ws = Workspace::new();
            // Two passes through the same workspace: the second exercises
            // reset() + warm arena.
            for pass in 0..2 {
                ws.reset();
                let memo = m.encode_memo(&mut ws, &store, &prog);
                assert_eq!(
                    ws.graph.len(),
                    plain_len,
                    "{ablation:?} pass {pass}: memoized tape must be node-for-node identical"
                );
                let bits = |t: &tensor::Tensor| {
                    t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                };
                assert_eq!(
                    bits(ws.graph.value(memo.program)),
                    bits(g.value(plain.program)),
                    "{ablation:?} pass {pass}: program embedding diverged"
                );
                assert_eq!(memo.static_attention, plain.static_attention);
                assert_eq!(memo.flow.len(), plain.flow.len());
                let loss = ws.graph.cross_entropy(memo.program, 0);
                let memo_grads = ws.graph.backward_into(loss, &store);
                let grad_bits = |pg: &tensor::ParamGrads| -> Vec<(usize, Vec<u32>)> {
                    pg.iter()
                        .map(|(id, t)| (id.0, t.data().iter().map(|v| v.to_bits()).collect()))
                        .collect()
                };
                assert_eq!(
                    grad_bits(&plain_grads),
                    grad_bits(&memo_grads),
                    "{ablation:?} pass {pass}: gradients diverged"
                );
            }
            // Any program with this much repetition must hit the memo.
            assert!(ws.replays() > 0, "{ablation:?}: memo never replayed");
        }
    }
}
