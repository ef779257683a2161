//! The tape-free inference engine: every forward-only request runs here
//! (DESIGN.md §2f). The autodiff tape is for training.
//!
//! This module mirrors the Figure 5 forward pass — TreeLSTM statement
//! embeddings, f₁/f₂ state embeddings, a₁ fusion attention, the f₃ flow
//! recurrence, max-pooling, plus the decoder/classifier heads — over plain
//! `Vec<f32>` activations read from a borrowed [`ParamStore`]. The pass is
//! batch-major: one program is a batch of one. [`Engine::encode_batch`]
//! merges every program's pool (so structurally identical
//! statements/states memoize *across* programs), makes every blended
//! trace a lane, and advances the f₃ flow recurrence for all live lanes in
//! lockstep — one panel product per weight matrix per step.
//!
//! Every product runs through [`tensor::gemm_batch`], whose output rows are
//! bitwise equal to the tape's blocked matvec, with the same per-element
//! combine order at every step — so the engine's outputs are **bitwise
//! identical** to `LigerModel::encode` on the tape, for any batch
//! composition.

use crate::classifier::{argmax, LigerClassifier};
use crate::encode::{EncPool, EncStepRef, EncodedProgram, PoolVar, StateId, TreeId};
use crate::model::{Ablation, LigerModel};
use crate::train::LigerNamer;
use crate::vocab::{TokenId, EOS, SOS};
use nn::{AttentionScorer, RnnCell};
use std::collections::HashMap;
use tensor::{ParamId, ParamStore};

/// The encoder outputs of a tape-free engine (plain activations instead
/// of tape [`tensor::VarId`]s).
#[derive(Debug, Clone)]
pub struct Encoding {
    /// The program embedding 𝓗_P.
    pub program: Vec<f32>,
    /// The flow states Hᵉ_{i,j} per trace and step (decoder memory).
    pub flow: Vec<Vec<Vec<f32>>>,
}

impl Encoding {
    /// All flow states flattened, in trace order.
    pub fn all_flow_states(&self) -> Vec<Vec<f32>> {
        self.flow.iter().flatten().cloned().collect()
    }
}

/// Memo of statement/state embeddings keyed by interned pool ids. Spans
/// one [`Engine::encode_batch`] call over its merged pool, where
/// structurally identical trees across *different* programs intern to the
/// same id and hit.
#[derive(Default)]
struct EngineMemo {
    trees: HashMap<TreeId, (Vec<f32>, Vec<f32>)>,
    states: HashMap<StateId, Vec<f32>>,
}

/// The tape-free inference engine over borrowed f32 parameters. Engines
/// borrow their weights, so building one per call is free.
#[derive(Debug)]
pub struct Engine<'a> {
    store: &'a ParamStore,
}

impl<'a> Engine<'a> {
    /// Wraps a borrowed f32 parameter store (no copies are made).
    pub fn new(store: &'a ParamStore) -> Engine<'a> {
        Engine { store }
    }

    /// The panel product `W·xⱼ (+ b)` for each of the `k` rows packed in
    /// `xs`, written to the matching rows of `out` (`k × rows(w)`).
    fn panel(&self, w: ParamId, xs: &[f32], k: usize, bias: Option<ParamId>, out: &mut [f32]) {
        obs::counter!("tensor.gemm.dispatch_f32").inc();
        obs::counter!("tensor.gemm.batched_rows").add(k as u64);
        let m = &self.store.get(w).value;
        let b = bias.map(|id| self.store.get(id).value.data());
        tensor::gemm_batch(m.data(), m.rows(), m.cols(), xs, k, b, out);
    }

    /// The values of parameter `id` (a bias or attention probe), borrowed
    /// from the store rather than the engine.
    fn values(&self, id: ParamId) -> &'a [f32] {
        self.store.get(id).value.data()
    }

    /// One weight product `W·x (+ b)`: a panel of one row.
    fn matvec(&mut self, w: ParamId, x: &[f32], bias: Option<ParamId>) -> Vec<f32> {
        let mut out = vec![0.0; self.store.get(w).value.rows()];
        self.panel(w, x, 1, bias, &mut out);
        out
    }

    /// `act(W·x + V·h + b)` — the tape-free analogue of the fused gate
    /// node, with the same per-element combine order `(wx + vh) + b`.
    fn gate(&mut self, w: ParamId, x: &[f32], v: ParamId, h: &[f32], b: ParamId, act: Act) -> Vec<f32> {
        let mut wx = self.matvec(w, x, None);
        let vh = self.matvec(v, h, None);
        let bias = self.values(b);
        for ((o, &vhv), &bv) in wx.iter_mut().zip(&vh).zip(bias) {
            *o = act.apply((*o + vhv) + bv);
        }
        wx
    }

    /// Runs `cell` over `xs`, returning the final hidden state (zeros for
    /// an empty sequence).
    fn rnn_encode(&mut self, cell: &RnnCell, xs: &[Vec<f32>]) -> Vec<f32> {
        let mut h = vec![0.0; cell.hidden];
        for x in xs {
            h = self.gate(cell.w, x, cell.v, &h, cell.b, Act::Tanh);
        }
        h
    }

    /// Additive attention: softmax-normalised scores of `keys` against
    /// `query`, returning (context, weights). Mirrors the tape's batched
    /// `attend` kernel-for-kernel: one affine panel over every
    /// `[key; query]` row (bias folded into the accumulator), tanh·probe
    /// reduction in index order, max-subtracted softmax with a division,
    /// and the weighted sum accumulated key-ascending from zeros.
    fn attend(&mut self, attn: &AttentionScorer, query: &[f32], keys: &[Vec<f32>]) -> (Vec<f32>, Vec<f32>) {
        let mut cat = Vec::with_capacity(keys.len() * (keys[0].len() + query.len()));
        for k in keys {
            cat.extend_from_slice(k);
            cat.extend_from_slice(query);
        }
        let m = self.store.get(attn.proj.w).value.rows();
        let mut t = vec![0.0; keys.len() * m];
        self.panel(attn.proj.w, &cat, keys.len(), Some(attn.proj.b), &mut t);
        let probe = self.values(attn.v);
        let scores: Vec<f32> = t
            .chunks_exact(m)
            .map(|row| row.iter().zip(probe).map(|(a, b)| a.tanh() * b).sum::<f32>())
            .collect();
        let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        let mut weights: Vec<f32> = scores
            .iter()
            .map(|&s| {
                let e = (s - max).exp();
                sum += e;
                e
            })
            .collect();
        weights.iter_mut().for_each(|w| *w /= sum);
        let mut ctx = vec![0.0; keys[0].len()];
        for (w, k) in weights.iter().zip(keys) {
            for (c, &kv) in ctx.iter_mut().zip(k) {
                *c += w * kv;
            }
        }
        (ctx, weights)
    }

    /// One embedding-table row.
    fn emb_row(&self, table: ParamId, token: usize) -> Vec<f32> {
        let t = &self.store.get(table).value;
        t.data()[token * t.cols()..(token + 1) * t.cols()].to_vec()
    }

    /// Child-Sum TreeLSTM over one interned statement AST. The child-h
    /// sum starts from the first child (like the tape's `sum_vecs`) and
    /// the cell update accumulates `c += f_k ⊙ c_k` child-ascending (like
    /// `fma_rows`), keeping the fold order bitwise-aligned with the tape.
    fn tree_rec(
        &mut self,
        model: &LigerModel,
        pool: &EncPool,
        id: TreeId,
        memo: &mut EngineMemo,
    ) -> (Vec<f32>, Vec<f32>) {
        if let Some(hc) = memo.trees.get(&id) {
            return hc.clone();
        }
        let node = pool.tree(id);
        let children: Vec<(Vec<f32>, Vec<f32>)> =
            node.children.iter().map(|&c| self.tree_rec(model, pool, c, memo)).collect();
        let x = self.emb_row(model.emb.param(), node.token);
        let h_sum = match children.split_first() {
            None => vec![0.0; model.cfg.hidden],
            Some(((h0, _), rest)) => {
                let mut s = h0.clone();
                for (hk, _) in rest {
                    for (sv, &v) in s.iter_mut().zip(hk) {
                        *sv += v;
                    }
                }
                s
            }
        };
        let t = &model.tree;
        let i = self.gate(t.wi, &x, t.ui, &h_sum, t.bi, Act::Sigmoid);
        let o = self.gate(t.wo, &x, t.uo, &h_sum, t.bo, Act::Sigmoid);
        let u = self.gate(t.wu, &x, t.uu, &h_sum, t.bu, Act::Tanh);
        let mut c: Vec<f32> = i.iter().zip(&u).map(|(a, b)| a * b).collect();
        for (hk, ck) in &children {
            let f = self.gate(t.wf, &x, t.uf, hk, t.bf, Act::Sigmoid);
            for ((cv, fv), &ckv) in c.iter_mut().zip(&f).zip(ck) {
                *cv += fv * ckv;
            }
        }
        let h: Vec<f32> = o.iter().zip(&c).map(|(ov, cv)| ov * cv.tanh()).collect();
        memo.trees.insert(id, (h.clone(), c.clone()));
        (h, c)
    }

    /// One interned program state: f₁ per object variable, f₂ across the
    /// variable embeddings.
    fn embed_state(
        &mut self,
        model: &LigerModel,
        pool: &EncPool,
        id: StateId,
        memo: &mut EngineMemo,
    ) -> Vec<f32> {
        if let Some(h) = memo.states.get(&id) {
            return h.clone();
        }
        let vars: Vec<Vec<f32>> = pool
            .state(id)
            .vars
            .iter()
            .map(|v| match v {
                PoolVar::Primitive(t) => self.emb_row(model.emb.param(), *t),
                PoolVar::Object(o) => {
                    let xs: Vec<Vec<f32>> = pool
                        .object(*o)
                        .iter()
                        .map(|&t| self.emb_row(model.emb.param(), t))
                        .collect();
                    self.rnn_encode(&model.f1, &xs)
                }
            })
            .collect();
        let h = self.rnn_encode(&model.f2, &vars);
        memo.states.insert(id, h.clone());
        h
    }

    /// The fusion layer for one ordered pair (mirrors
    /// `LigerModel::fuse_step`, including the even-weight rules; the even
    /// sum folds feature-ascending from the first like `sum_vecs`).
    fn fuse_step(
        &mut self,
        model: &LigerModel,
        pool: &EncPool,
        step: &EncStepRef,
        h_prev: &[f32],
        j: usize,
        memo: &mut EngineMemo,
    ) -> Vec<f32> {
        let mut features: Vec<Vec<f32>> = Vec::new();
        if model.cfg.ablation != Ablation::NoStatic {
            features.push(self.tree_rec(model, pool, step.tree, memo).0);
        }
        if model.cfg.ablation != Ablation::NoDynamic {
            for &s in &step.states {
                features.push(self.embed_state(model, pool, s, memo));
            }
        }
        if features.len() == 1 {
            features.pop().expect("one feature")
        } else if j == 0 || model.cfg.ablation == Ablation::NoAttention {
            let w = 1.0 / features.len() as f32;
            let (first, rest) = features.split_first().expect("at least one feature");
            let mut sum = first.clone();
            for f in rest {
                for (s, &v) in sum.iter_mut().zip(f) {
                    *s += v;
                }
            }
            sum.iter_mut().for_each(|v| *v *= w);
            sum
        } else {
            self.attend(&model.a1, h_prev, &features).0
        }
    }

    /// Encodes a minibatch of programs (all blended traces each) through
    /// the tape-free Figure 5 pipeline. Every program's pool is merged
    /// into one, every blended trace becomes a lane, and the f₃ flow
    /// recurrence advances all live lanes in lockstep: two panels (`W·X`
    /// and `V·H`) per step, combined as `tanh((wx + vh) + b)` — the fused
    /// gate's per-element order. Each program's encoding is independent
    /// of the rest of the batch.
    pub fn encode_batch(&mut self, model: &LigerModel, progs: &[&EncodedProgram]) -> Vec<Encoding> {
        let _span = obs::span!("encode.engine");
        let hidden = model.cfg.hidden;

        struct Lane {
            prog: usize,
            steps: Vec<EncStepRef>,
            h: Vec<f32>,
            states: Vec<Vec<f32>>,
        }

        let mut pool = EncPool::new();
        let mut memo = EngineMemo::default();
        let mut lanes: Vec<Lane> = Vec::new();
        for (pi, prog) in progs.iter().enumerate() {
            obs::counter!("encode.f32_programs").inc();
            let (tree_map, state_map) = pool.absorb(&prog.pool);
            for trace in &prog.traces {
                if trace.steps.is_empty() {
                    continue;
                }
                let steps = trace
                    .steps
                    .iter()
                    .map(|s| EncStepRef {
                        tree: tree_map[s.tree.0 as usize],
                        states: s.states.iter().map(|st| state_map[st.0 as usize]).collect(),
                    })
                    .collect();
                lanes.push(Lane { prog: pi, steps, h: vec![0.0; hidden], states: Vec::new() });
            }
        }

        let max_len = lanes.iter().map(|l| l.steps.len()).max().unwrap_or(0);
        let (mut xs, mut hs) = (Vec::new(), Vec::new());
        let (mut wx, mut vh) = (Vec::new(), Vec::new());
        for j in 0..max_len {
            let live: Vec<usize> =
                (0..lanes.len()).filter(|&li| j < lanes[li].steps.len()).collect();
            // Fusion layer per lane (memoized against the merged pool),
            // packed as the rows of the step's input panel.
            xs.clear();
            hs.clear();
            for &li in &live {
                let lane = &lanes[li];
                let h_j = self.fuse_step(model, &pool, &lane.steps[j], &lane.h, j, &mut memo);
                xs.extend_from_slice(&h_j);
                hs.extend_from_slice(&lane.h);
            }
            let k = live.len();
            wx.resize(k * hidden, 0.0);
            vh.resize(k * hidden, 0.0);
            self.panel(model.f3.w, &xs, k, None, &mut wx);
            self.panel(model.f3.v, &hs, k, None, &mut vh);
            let b = self.values(model.f3.b);
            for (r, &li) in live.iter().enumerate() {
                let lane = &mut lanes[li];
                for (i, hv) in lane.h.iter_mut().enumerate() {
                    *hv = ((wx[r * hidden + i] + vh[r * hidden + i]) + b[i]).tanh();
                }
                lane.states.push(lane.h.clone());
            }
        }

        // Reassemble per program: flow states per trace, program embedding
        // as the elementwise max over its traces' final states (the same
        // fold as the tape's max_pool: keep the incumbent on ties, take
        // the challenger only when strictly greater).
        let mut out: Vec<Encoding> = progs
            .iter()
            .map(|_| Encoding { program: Vec::new(), flow: Vec::new() })
            .collect();
        for lane in lanes {
            let enc = &mut out[lane.prog];
            let h_final = lane.states.last().expect("non-empty lane has a final state");
            if enc.program.is_empty() {
                enc.program = h_final.clone();
            } else {
                for (o, &x) in enc.program.iter_mut().zip(h_final) {
                    if x > *o {
                        *o = x;
                    }
                }
            }
            enc.flow.push(lane.states);
        }
        for enc in &mut out {
            if enc.program.is_empty() {
                enc.program = vec![0.0; hidden];
            }
        }
        out
    }

    /// [`Engine::encode_batch`] of one program.
    pub fn encode(&mut self, model: &LigerModel, prog: &EncodedProgram) -> Encoding {
        self.encode_batch(model, &[prog]).pop().expect("one encoding per program")
    }

    /// The program embeddings 𝓗_P of a minibatch.
    pub fn embed_batch(&mut self, model: &LigerModel, progs: &[&EncodedProgram]) -> Vec<Vec<f32>> {
        self.encode_batch(model, progs).into_iter().map(|e| e.program).collect()
    }

    /// The program embedding 𝓗_P alone.
    pub fn embed(&mut self, model: &LigerModel, prog: &EncodedProgram) -> Vec<f32> {
        self.encode(model, prog).program
    }

    /// Greedy method-name prediction (tape-free analogue of
    /// `NameDecoder::greedy`).
    pub fn name(&mut self, namer: &LigerNamer, prog: &EncodedProgram) -> Vec<TokenId> {
        let enc = self.encode(&namer.model, prog);
        let dec = &namer.decoder;
        let memory = enc.all_flow_states();
        let hidden = namer.model.cfg.hidden;
        let mut h = enc.program;
        let mut prev = SOS;
        let mut out = Vec::new();
        for _ in 0..namer.model.cfg.max_name_len {
            let x = self.emb_row(dec.out_emb.param(), prev);
            let h_next = self.gate(dec.rnn.w, &x, dec.rnn.v, &h, dec.rnn.b, Act::Tanh);
            let ctx = if memory.is_empty() {
                vec![0.0; hidden]
            } else {
                self.attend(&dec.a2, &h_next, &memory).0
            };
            let mut cat = h_next.clone();
            cat.extend_from_slice(&ctx);
            let logits = self.matvec(dec.out.w, &cat, Some(dec.out.b));
            let (best, _) = logits
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != 0 && *i != SOS)
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("logits are finite"))
                .expect("output vocabulary is non-empty");
            if best == EOS {
                break;
            }
            out.push(best);
            h = h_next;
            prev = best;
        }
        out
    }

    /// Argmax class prediction (tape-free analogue of
    /// `LigerClassifier::predict`).
    pub fn classify(&mut self, cls: &LigerClassifier, prog: &EncodedProgram) -> usize {
        let enc = self.encode(&cls.model, prog);
        let logits = self.matvec(cls.head.w, &enc.program, Some(cls.head.b));
        argmax(&logits)
    }
}

/// Activation selector for the tape-free gate (same formulas as the f32
/// tape's `Act`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Act {
    Tanh,
    Sigmoid,
}

impl Act {
    fn apply(self, v: f32) -> f32 {
        match self {
            Act::Tanh => v.tanh(),
            Act::Sigmoid => 1.0 / (1.0 + (-v).exp()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    // The engine under test, named for the f32 weights it reads.
    use super::Engine as FloatEngine;
    use crate::encode::{EncBlended, EncState, EncStep, EncTree, EncVar};
    use crate::model::LigerConfig;
    use crate::train::{train_namer, NameSample, TrainConfig};
    use crate::vocab::EOS;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tensor::Graph;

    const ABLATIONS: [Ablation; 4] =
        [Ablation::Full, Ablation::NoStatic, Ablation::NoDynamic, Ablation::NoAttention];

    fn blended(token: usize) -> EncBlended {
        EncBlended {
            steps: vec![
                EncStep {
                    tree: EncTree {
                        token,
                        children: vec![EncTree { token: token + 1, children: vec![] }],
                    },
                    states: vec![EncState {
                        vars: vec![EncVar::Primitive(token + 2), EncVar::Object(vec![1, 2, 3])],
                    }],
                },
                EncStep {
                    tree: EncTree { token: token + 3, children: vec![] },
                    states: vec![EncState { vars: vec![EncVar::Primitive(token)] }],
                },
            ],
        }
    }

    fn prog(token: usize) -> EncodedProgram {
        EncodedProgram::from_traces(vec![blended(token)])
    }

    /// Ragged batch: different step and trace counts, a shared-structure
    /// repeat, and an empty program in the middle.
    fn ragged_batch() -> Vec<EncodedProgram> {
        let mut short = blended(3);
        short.steps.truncate(1);
        let two_traces = EncodedProgram::from_traces(vec![blended(5), short]);
        vec![prog(1), two_traces, EncodedProgram::default(), prog(1), prog(14)]
    }

    fn model(seed: u64, vocab: usize, ablation: Ablation) -> (ParamStore, LigerModel) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = LigerConfig { hidden: 12, attn: 12, ablation, ..LigerConfig::default() };
        let model = LigerModel::new(&mut store, vocab, cfg, &mut rng);
        (store, model)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn encoding_bits(enc: &Encoding) -> (Vec<u32>, Vec<Vec<Vec<u32>>>) {
        let flow = enc.flow.iter().map(|tr| tr.iter().map(|s| bits(s)).collect()).collect();
        (bits(&enc.program), flow)
    }

    #[test]
    fn f32_engine_is_bitwise_identical_to_tape() {
        for ablation in ABLATIONS {
            let (store, model) = model(31, 16, ablation);
            let mut engine = FloatEngine::new(&store);
            for t in [1usize, 4, 7] {
                let p = prog(t);
                let mut g = Graph::new();
                let tape = model.encode(&mut g, &store, &p);
                let tape_flow: Vec<Vec<Vec<u32>>> = tape
                    .flow
                    .iter()
                    .map(|tr| tr.iter().map(|&s| bits(g.value(s).data())).collect())
                    .collect();
                assert_eq!(
                    encoding_bits(&engine.encode(&model, &p)),
                    (bits(g.value(tape.program).data()), tape_flow),
                    "{ablation:?}: program {t} diverged from the tape"
                );
            }
        }
    }

    #[test]
    fn f32_engine_batch_matches_per_program_bitwise() {
        for ablation in ABLATIONS {
            let (store, model) = model(32, 24, ablation);
            let progs = ragged_batch();
            let refs: Vec<&EncodedProgram> = progs.iter().collect();
            let mut engine = FloatEngine::new(&store);
            let batched = engine.encode_batch(&model, &refs);
            assert_eq!(batched.len(), progs.len());
            for (i, (p, enc_b)) in progs.iter().zip(&batched).enumerate() {
                assert_eq!(
                    encoding_bits(&engine.encode(&model, p)),
                    encoding_bits(enc_b),
                    "{ablation:?}: program {i} depends on its batch"
                );
            }
        }
    }

    fn trained_namer(seed: u64) -> (ParamStore, LigerNamer, Vec<NameSample>) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = LigerConfig { hidden: 10, attn: 10, ..LigerConfig::default() };
        let namer = LigerNamer::new(&mut store, 16, 8, cfg, &mut rng);
        let samples = vec![
            NameSample { program: prog(1), target: vec![4, 5, EOS] },
            NameSample { program: prog(6), target: vec![6, EOS] },
        ];
        train_namer(
            &namer,
            &mut store,
            &samples,
            &TrainConfig { epochs: 40, lr: 0.03, batch_size: 2 },
            &mut rng,
        );
        (store, namer, samples)
    }

    fn trained_classifier() -> (ParamStore, LigerClassifier) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(24);
        let cfg = LigerConfig { hidden: 8, attn: 8, ..LigerConfig::default() };
        let model = LigerModel::new(&mut store, 16, cfg, &mut rng);
        let cls = LigerClassifier::new(&mut store, model, 3, &mut rng);
        let mut adam = nn::Adam::new(0.05);
        for _ in 0..40 {
            for (p, label) in [(prog(1), 0usize), (prog(6), 2usize)] {
                let mut g = Graph::new();
                let loss = cls.loss(&mut g, &store, &p, label);
                g.backward(loss, &mut store);
                adam.step(&mut store);
            }
        }
        (store, cls)
    }

    #[test]
    fn f32_engine_namer_and_classifier_match_tape_predictions() {
        let (store, namer, samples) = trained_namer(33);
        let mut engine = FloatEngine::new(&store);
        for s in &samples {
            assert_eq!(engine.name(&namer, &s.program), namer.predict(&store, &s.program));
        }
        let (store, cls) = trained_classifier();
        let mut engine = FloatEngine::new(&store);
        for p in [prog(1), prog(6), prog(9)] {
            assert_eq!(engine.classify(&cls, &p), cls.predict(&store, &p));
        }
    }

    #[test]
    fn empty_program_embeds_to_zeros() {
        let (store, model) = model(22, 8, Ablation::Full);
        assert_eq!(FloatEngine::new(&store).embed(&model, &EncodedProgram::default()), vec![0.0; 12]);
    }
}
