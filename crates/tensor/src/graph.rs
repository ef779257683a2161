//! The computation graph with reverse-mode automatic differentiation.
//!
//! A [`Graph`] is built per example (define-by-run, like the
//! TensorFlow-eager/PyTorch style the paper's models would use today).
//! Leaves are constants ([`Graph::input`]), whole parameters
//! ([`Graph::param`]) or single embedding rows ([`Graph::param_row`]);
//! interior nodes are the operators the paper's architecture needs: affine
//! maps, pointwise nonlinearities, concatenation, softmax/attention
//! weighting, max-pooling over path embeddings, and cross-entropy loss.
//!
//! ## Arena reuse
//!
//! Rather than constructing a fresh graph per example, the hot paths hold
//! one long-lived `Graph` per worker and call [`Graph::reset`] between
//! examples: node and value storage keep their capacity, every value
//! buffer is parked in an internal [`BufferPool`], and the next example's
//! forward and backward passes are served from that pool — near-zero heap
//! allocation in steady state (DESIGN.md §2b).
//!
//! ## Differentiation
//!
//! Three entry points share one reverse sweep: [`Graph::backward_into`]
//! computes a detached [`ParamGrads`] against a shared `&ParamStore` with
//! all intermediate gradient storage drawn from the pool (the form the
//! data-parallel training engine uses), [`Graph::backward_grads`] is the
//! borrow-friendly `&self` variant that allocates its scratch, and
//! [`Graph::backward`] immediately folds the gradients into a
//! `&mut ParamStore`. All three produce bitwise-identical gradients.

use crate::pool::BufferPool;
use crate::store::{ParamGrads, ParamId, ParamStore};
use crate::tensor::Tensor;
use std::collections::HashMap;

/// Identifier of a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(usize);

impl VarId {
    /// The node's position in its graph (nodes are numbered in push
    /// order; spans of consecutive indices are what [`Graph::replay_span`]
    /// copies).
    pub fn index(self) -> usize {
        self.0
    }
}

/// The pointwise nonlinearity a fused gate applies, chosen so the fused
/// kernels compute exactly the same scalar expressions as the standalone
/// [`Graph::tanh`] / [`Graph::sigmoid`] nodes they replace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Act {
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Act {
    #[inline]
    fn apply(self, v: f32) -> f32 {
        match self {
            Act::Tanh => v.tanh(),
            Act::Sigmoid => 1.0 / (1.0 + (-v).exp()),
        }
    }

    /// Derivative expressed through the activation's own output `y`, the
    /// same expressions the standalone Tanh/Sigmoid backward arms use.
    #[inline]
    fn dfdy(self, gv: f32, yv: f32) -> f32 {
        match self {
            Act::Tanh => gv * (1.0 - yv * yv),
            Act::Sigmoid => gv * yv * (1.0 - yv),
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Input,
    Param(ParamId),
    ParamRow(ParamId, usize),
    MatVec(VarId, VarId),
    Affine(VarId, VarId, VarId),
    Add(VarId, VarId),
    Sub(VarId, VarId),
    Mul(VarId, VarId),
    Scale(VarId, f32),
    MulScalar(VarId, VarId),
    Tanh(VarId),
    Sigmoid(VarId),
    Relu(VarId),
    Concat(Vec<VarId>),
    Dot(VarId, VarId),
    StackScalars(Vec<VarId>),
    Softmax(VarId),
    Sum(VarId),
    Mean(VarId),
    SumVecs(Vec<VarId>),
    MaxPool(Vec<VarId>),
    WeightedSum { items: Vec<VarId>, weights: VarId },
    CrossEntropy { logits: VarId, target: usize },
    /// Fused recurrent gate `act((w·x + u·h) + b)` — one node for the
    /// five-node matvec/matvec/add/add/activation chain every RNN step and
    /// TreeLSTM gate used to push.
    Gate { w: VarId, x: VarId, u: VarId, h: VarId, b: VarId, act: Act },
    /// [`Op::Gate`] over a shared `w·x` and one hidden vector per row:
    /// row `j` is `act((w·x + u·hs[j]) + b)` (TreeLSTM child forget gates).
    GateBatch { w: VarId, x: VarId, u: VarId, hs: Vec<VarId>, b: VarId, act: Act },
    /// `base + Σⱼ scales[j,·] ⊙ items[j]` in ascending-`j` order — the
    /// TreeLSTM cell-state accumulation, fused across children.
    FmaRows { base: VarId, scales: VarId, items: Vec<VarId> },
    /// `k` equal-length vectors packed as the rows of a `k × n` panel.
    Pack(Vec<VarId>),
    /// Batch-major fused GEMM: row `j` of the `k × m` result is
    /// `w · xs[j,·] (+ b)`, all computed in one packed kernel call
    /// ([`crate::tensor::gemm_batch`]).
    AffineBatch { w: VarId, xs: VarId, b: Option<VarId> },
    /// Per-row dot products of a `k × n` panel with an `n`-vector.
    RowDots(VarId, VarId),
    /// Extracts row `j` of a panel as a column vector.
    BatchItem(VarId, usize),
}

/// A define-by-run computation graph.
#[derive(Debug, Default)]
pub struct Graph {
    ops: Vec<Op>,
    values: Vec<Tensor>,
    /// Memo for [`Graph::param_row`]: repeated lookups of the same
    /// embedding row (ubiquitous in trace encodings — the same variable
    /// or opcode appears many times per example) reuse one node instead
    /// of cloning the row again. Invalidated by [`Graph::reset`], since
    /// parameter values change between examples (optimizer steps).
    row_cache: HashMap<(ParamId, usize), VarId>,
    /// Memo for [`Graph::param`]: the same weight matrix is used by every
    /// gate of every step, so caching the leaf node removes both the
    /// duplicate nodes and the per-use whole-matrix copy (historically the
    /// single largest memcpy source on the tape). Invalidated by
    /// [`Graph::reset`] for the same reason as `row_cache`. Caching is
    /// gradient-exact: each use's contribution accumulates into the shared
    /// node's slot in the same reverse-tape order the per-use nodes would
    /// have been visited, so the final parameter gradient is bitwise
    /// unchanged.
    param_cache: HashMap<ParamId, VarId>,
    /// Recycled storage for node values and backward temporaries.
    pool: BufferPool,
    /// Reusable per-node gradient table for [`Graph::backward_into`].
    grads: Vec<Option<Tensor>>,
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Graph {
        Graph::default()
    }

    /// Clears the graph for the next example while retaining capacity:
    /// every node value's storage is parked in the internal buffer pool,
    /// and the `param_row` memo is invalidated (parameter values may have
    /// changed since the rows were cached).
    pub fn reset(&mut self) {
        for t in self.values.drain(..) {
            self.pool.put(t.into_data());
        }
        self.ops.clear();
        self.row_cache.clear();
        self.param_cache.clear();
        for g in self.grads.drain(..).flatten() {
            self.pool.put(g.into_data());
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The forward value of `id`.
    pub fn value(&self, id: VarId) -> &Tensor {
        &self.values[id.0]
    }

    /// The [`VarId`] at node position `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn var(&self, index: usize) -> VarId {
        assert!(index < self.ops.len(), "node index {index} out of {}", self.ops.len());
        VarId(index)
    }

    /// Number of buffers currently parked in the internal pool (a
    /// diagnostic for arena-reuse tests and benches).
    pub fn pooled_buffers(&self) -> usize {
        self.pool.buffers()
    }

    /// Pool takes that fell back to a fresh heap allocation (a
    /// diagnostic: in steady state this stops growing).
    pub fn pool_misses(&self) -> u64 {
        self.pool.misses()
    }

    fn push(&mut self, op: Op, value: Tensor) -> VarId {
        self.ops.push(op);
        self.values.push(value);
        VarId(self.ops.len() - 1)
    }

    /// A pooled buffer with unspecified contents; every caller overwrites
    /// all `len` elements before the tensor is published.
    fn buf(&mut self, len: usize) -> Vec<f32> {
        self.pool.take(len)
    }

    /// A constant leaf (no gradient flows into it).
    pub fn input(&mut self, value: Tensor) -> VarId {
        self.push(Op::Input, value)
    }

    /// A constant all-zero leaf served from the pool — the allocation-free
    /// way to build RNN zero states and padding vectors.
    pub fn zeros(&mut self, rows: usize, cols: usize) -> VarId {
        let data = self.pool.take_zeroed(rows * cols);
        self.push(Op::Input, Tensor::from_vec(rows, cols, data))
    }

    /// A leaf bound to a whole parameter; its gradient accumulates into
    /// the store on [`Graph::backward`]. Repeated lookups within one graph
    /// return the same node (parameters are constant within a forward
    /// pass; the cache is invalidated by [`Graph::reset`]).
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> VarId {
        if let Some(&cached) = self.param_cache.get(&id) {
            return cached;
        }
        let p = &store.get(id).value;
        let (rows, cols) = (p.rows(), p.cols());
        let mut data = self.buf(p.len());
        data.copy_from_slice(p.data());
        let var = self.push(Op::Param(id), Tensor::from_vec(rows, cols, data));
        self.param_cache.insert(id, var);
        var
    }

    /// A leaf bound to one row of a parameter matrix, as a column vector —
    /// the embedding-lookup primitive.
    ///
    /// # Panics
    ///
    /// Panics when `row` is out of range.
    pub fn param_row(&mut self, store: &ParamStore, id: ParamId, row: usize) -> VarId {
        if let Some(&cached) = self.row_cache.get(&(id, row)) {
            return cached;
        }
        let p = &store.get(id).value;
        assert!(row < p.rows(), "param_row {row} out of {} rows", p.rows());
        let d = p.cols();
        let mut data = self.pool.take(d);
        data.copy_from_slice(&store.get(id).value.data()[row * d..(row + 1) * d]);
        let var = self.push(Op::ParamRow(id, row), Tensor::vector(data));
        self.row_cache.insert((id, row), var);
        var
    }

    /// Matrix–vector product.
    pub fn matvec(&mut self, w: VarId, x: VarId) -> VarId {
        let mut out = self.buf(self.values[w.0].rows());
        self.values[w.0].matvec_into(&self.values[x.0], &mut out);
        let value = Tensor::vector(out);
        self.push(Op::MatVec(w, x), value)
    }

    /// Fused affine map `w · x + b` (one kernel pass, no intermediate
    /// product node) — the workhorse of every linear/GRU/LSTM layer.
    pub fn affine(&mut self, w: VarId, x: VarId, b: VarId) -> VarId {
        let mut out = self.buf(self.values[w.0].rows());
        self.values[w.0].affine_into(&self.values[x.0], &self.values[b.0], &mut out);
        let value = Tensor::vector(out);
        self.push(Op::Affine(w, x, b), value)
    }

    /// Elementwise addition.
    pub fn add(&mut self, a: VarId, b: VarId) -> VarId {
        let mut data = self.buf(self.values[a.0].len());
        let (av, bv) = (&self.values[a.0], &self.values[b.0]);
        assert_eq!(av.len(), bv.len(), "add shape mismatch");
        for ((d, x), y) in data.iter_mut().zip(av.data()).zip(bv.data()) {
            *d = x + y;
        }
        let value = Tensor::from_vec(av.rows(), av.cols(), data);
        self.push(Op::Add(a, b), value)
    }

    /// Elementwise subtraction.
    pub fn sub(&mut self, a: VarId, b: VarId) -> VarId {
        let mut data = self.buf(self.values[a.0].len());
        let (av, bv) = (&self.values[a.0], &self.values[b.0]);
        assert_eq!(av.len(), bv.len(), "sub shape mismatch");
        for ((d, x), y) in data.iter_mut().zip(av.data()).zip(bv.data()) {
            *d = x - y;
        }
        let value = Tensor::from_vec(av.rows(), av.cols(), data);
        self.push(Op::Sub(a, b), value)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&mut self, a: VarId, b: VarId) -> VarId {
        let mut data = self.buf(self.values[a.0].len());
        let (av, bv) = (&self.values[a.0], &self.values[b.0]);
        assert_eq!(av.len(), bv.len(), "mul shape mismatch");
        for ((d, x), y) in data.iter_mut().zip(av.data()).zip(bv.data()) {
            *d = x * y;
        }
        let value = Tensor::from_vec(av.rows(), av.cols(), data);
        self.push(Op::Mul(a, b), value)
    }

    /// Multiplication by a compile-time constant.
    pub fn scale(&mut self, a: VarId, c: f32) -> VarId {
        let mut data = self.buf(self.values[a.0].len());
        let av = &self.values[a.0];
        for (d, x) in data.iter_mut().zip(av.data()) {
            *d = x * c;
        }
        let value = Tensor::from_vec(av.rows(), av.cols(), data);
        self.push(Op::Scale(a, c), value)
    }

    /// Multiplication of a vector by a 1×1 graph scalar.
    pub fn mul_scalar(&mut self, v: VarId, s: VarId) -> VarId {
        let mut data = self.buf(self.values[v.0].len());
        let sv = self.values[s.0].item();
        let vv = &self.values[v.0];
        for (d, x) in data.iter_mut().zip(vv.data()) {
            *d = x * sv;
        }
        let value = Tensor::from_vec(vv.rows(), vv.cols(), data);
        self.push(Op::MulScalar(v, s), value)
    }

    /// Pointwise `tanh`.
    pub fn tanh(&mut self, a: VarId) -> VarId {
        let mut data = self.buf(self.values[a.0].len());
        let av = &self.values[a.0];
        for (d, x) in data.iter_mut().zip(av.data()) {
            *d = x.tanh();
        }
        let value = Tensor::from_vec(av.rows(), av.cols(), data);
        self.push(Op::Tanh(a), value)
    }

    /// Pointwise logistic sigmoid.
    pub fn sigmoid(&mut self, a: VarId) -> VarId {
        let mut data = self.buf(self.values[a.0].len());
        let av = &self.values[a.0];
        for (d, x) in data.iter_mut().zip(av.data()) {
            *d = 1.0 / (1.0 + (-x).exp());
        }
        let value = Tensor::from_vec(av.rows(), av.cols(), data);
        self.push(Op::Sigmoid(a), value)
    }

    /// Pointwise rectifier.
    pub fn relu(&mut self, a: VarId) -> VarId {
        let mut data = self.buf(self.values[a.0].len());
        let av = &self.values[a.0];
        for (d, x) in data.iter_mut().zip(av.data()) {
            *d = x.max(0.0);
        }
        let value = Tensor::from_vec(av.rows(), av.cols(), data);
        self.push(Op::Relu(a), value)
    }

    /// Concatenation of column vectors.
    ///
    /// # Panics
    ///
    /// Panics when `parts` is empty or a part is not a vector.
    pub fn concat(&mut self, parts: &[VarId]) -> VarId {
        assert!(!parts.is_empty(), "concat of zero vectors");
        let total: usize = parts.iter().map(|p| self.values[p.0].len()).sum();
        let mut data = self.buf(total);
        let mut offset = 0;
        for p in parts {
            let v = &self.values[p.0];
            assert!(v.is_vector(), "concat parts must be vectors");
            data[offset..offset + v.len()].copy_from_slice(v.data());
            offset += v.len();
        }
        self.push(Op::Concat(parts.to_vec()), Tensor::vector(data))
    }

    /// Dot product of two equal-length vectors, as a 1×1 tensor.
    pub fn dot(&mut self, a: VarId, b: VarId) -> VarId {
        let mut data = self.buf(1);
        data[0] = self.values[a.0].dot(&self.values[b.0]);
        self.push(Op::Dot(a, b), Tensor::from_vec(1, 1, data))
    }

    /// Stacks 1×1 scalars into a vector.
    ///
    /// # Panics
    ///
    /// Panics when `parts` is empty or an entry is not 1×1.
    pub fn stack_scalars(&mut self, parts: &[VarId]) -> VarId {
        assert!(!parts.is_empty(), "stack of zero scalars");
        let mut data = self.buf(parts.len());
        for (d, p) in data.iter_mut().zip(parts) {
            *d = self.values[p.0].item();
        }
        self.push(Op::StackScalars(parts.to_vec()), Tensor::vector(data))
    }

    /// Numerically-stable softmax over a vector.
    pub fn softmax(&mut self, a: VarId) -> VarId {
        let mut data = self.buf(self.values[a.0].len());
        let av = &self.values[a.0];
        softmax_into(av.data(), &mut data);
        let value = Tensor::from_vec(av.rows(), av.cols(), data);
        self.push(Op::Softmax(a), value)
    }

    /// Sum of all elements, as a 1×1 tensor.
    pub fn sum(&mut self, a: VarId) -> VarId {
        let mut data = self.buf(1);
        data[0] = self.values[a.0].data().iter().sum();
        self.push(Op::Sum(a), Tensor::from_vec(1, 1, data))
    }

    /// Mean of all elements, as a 1×1 tensor.
    pub fn mean(&mut self, a: VarId) -> VarId {
        let mut data = self.buf(1);
        let av = &self.values[a.0];
        data[0] = av.data().iter().sum::<f32>() / av.len() as f32;
        self.push(Op::Mean(a), Tensor::from_vec(1, 1, data))
    }

    /// Elementwise sum of same-shaped vectors (e.g. TreeLSTM child sums).
    ///
    /// # Panics
    ///
    /// Panics when `parts` is empty or shapes differ.
    pub fn sum_vecs(&mut self, parts: &[VarId]) -> VarId {
        assert!(!parts.is_empty(), "sum of zero vectors");
        let mut data = self.buf(self.values[parts[0].0].len());
        let first = &self.values[parts[0].0];
        data.copy_from_slice(first.data());
        let (rows, cols) = (first.rows(), first.cols());
        for p in &parts[1..] {
            let v = &self.values[p.0];
            assert_eq!(v.len(), data.len(), "sum_vecs shape mismatch");
            for (d, x) in data.iter_mut().zip(v.data()) {
                *d += x;
            }
        }
        self.push(Op::SumVecs(parts.to_vec()), Tensor::from_vec(rows, cols, data))
    }

    /// Elementwise max over same-shaped vectors — the paper's
    /// programs-embedding pooling layer.
    ///
    /// # Panics
    ///
    /// Panics when `parts` is empty or shapes differ.
    pub fn max_pool(&mut self, parts: &[VarId]) -> VarId {
        assert!(!parts.is_empty(), "max_pool of zero vectors");
        let mut data = self.buf(self.values[parts[0].0].len());
        let first = &self.values[parts[0].0];
        data.copy_from_slice(first.data());
        let (rows, cols) = (first.rows(), first.cols());
        for p in &parts[1..] {
            let v = &self.values[p.0];
            assert_eq!(v.len(), data.len(), "max_pool shape mismatch");
            for (d, x) in data.iter_mut().zip(v.data()) {
                if *x > *d {
                    *d = *x;
                }
            }
        }
        self.push(Op::MaxPool(parts.to_vec()), Tensor::from_vec(rows, cols, data))
    }

    /// `Σᵢ weights[i] · items[i]` — the attention-weighted combination used
    /// by the fusion layer and the decoder context vector.
    ///
    /// # Panics
    ///
    /// Panics when `items` is empty or `weights` is not an `items.len()`
    /// vector.
    pub fn weighted_sum(&mut self, items: &[VarId], weights: VarId) -> VarId {
        assert!(!items.is_empty(), "weighted_sum of zero items");
        let len = self.values[items[0].0].len();
        let mut data = self.pool.take_zeroed(len);
        let wv = &self.values[weights.0];
        assert_eq!(wv.len(), items.len(), "weights/items length mismatch");
        let (rows, cols) = (self.values[items[0].0].rows(), self.values[items[0].0].cols());
        for (i, item) in items.iter().enumerate() {
            let alpha = wv.data()[i];
            let v = &self.values[item.0];
            assert_eq!(v.len(), len, "weighted_sum shape mismatch");
            for (d, x) in data.iter_mut().zip(v.data()) {
                *d += alpha * x;
            }
        }
        let value = Tensor::from_vec(rows, cols, data);
        self.push(Op::WeightedSum { items: items.to_vec(), weights }, value)
    }

    /// Cross-entropy loss `-log softmax(logits)[target]`, as a 1×1 tensor.
    ///
    /// # Panics
    ///
    /// Panics when `target` is out of range.
    pub fn cross_entropy(&mut self, logits: VarId, target: usize) -> VarId {
        let lv = &self.values[logits.0];
        assert!(target < lv.len(), "cross_entropy target out of range");
        let mut probs = self.buf(self.values[logits.0].len());
        softmax_into(self.values[logits.0].data(), &mut probs);
        let loss = -(probs[target].max(1e-12)).ln();
        self.pool.put(probs);
        let mut data = self.buf(1);
        data[0] = loss;
        self.push(Op::CrossEntropy { logits, target }, Tensor::from_vec(1, 1, data))
    }

    /// Fused recurrent gate `act((w·x + u·h) + b)`: one node (and one
    /// value buffer) for the matvec/matvec/add/add/activation chain that
    /// every RNN step and TreeLSTM gate is made of. The two products use
    /// the same blocked kernel as [`Graph::matvec`] and the combine runs
    /// `(wx + uh) + b` per element, so the result is bitwise identical to
    /// the composed five-node form — the tape just carries 5× fewer nodes
    /// through it.
    pub fn gate(&mut self, w: VarId, x: VarId, u: VarId, h: VarId, b: VarId, act: Act) -> VarId {
        let m = self.values[w.0].rows();
        let mut wx = self.buf(m);
        self.values[w.0].matvec_into(&self.values[x.0], &mut wx);
        let mut uh = self.buf(m);
        self.values[u.0].matvec_into(&self.values[h.0], &mut uh);
        let mut out = self.buf(m);
        {
            let bv = self.values[b.0].data();
            assert_eq!(bv.len(), m, "gate bias length mismatch");
            for (o, ((a, c), bb)) in out.iter_mut().zip(wx.iter().zip(&uh).zip(bv)) {
                *o = act.apply((a + c) + bb);
            }
        }
        self.pool.put(wx);
        self.pool.put(uh);
        self.push(Op::Gate { w, x, u, h, b, act }, Tensor::vector(out))
    }

    /// [`Graph::gate`] batched over hidden vectors: row `j` of the
    /// `hs.len() × m` result is `act((w·x + u·hs[j]) + b)`, with `w·x`
    /// computed once. Each row is bitwise identical to the corresponding
    /// single [`Graph::gate`] node (same kernels, same combine order).
    /// This is the TreeLSTM child-forget-gate layer in one node.
    ///
    /// # Panics
    ///
    /// Panics when `hs` is empty.
    pub fn gate_batch(
        &mut self,
        w: VarId,
        x: VarId,
        u: VarId,
        hs: &[VarId],
        b: VarId,
        act: Act,
    ) -> VarId {
        assert!(!hs.is_empty(), "gate_batch over zero hidden vectors");
        let (k, m) = (hs.len(), self.values[w.0].rows());
        let mut wx = self.buf(m);
        self.values[w.0].matvec_into(&self.values[x.0], &mut wx);
        let mut uh = self.buf(m);
        let mut out = self.buf(k * m);
        for (j, hj) in hs.iter().enumerate() {
            self.values[u.0].matvec_into(&self.values[hj.0], &mut uh);
            let bv = self.values[b.0].data();
            for (o, ((a, c), bb)) in
                out[j * m..(j + 1) * m].iter_mut().zip(wx.iter().zip(&uh).zip(bv))
            {
                *o = act.apply((a + c) + bb);
            }
        }
        self.pool.put(wx);
        self.pool.put(uh);
        self.push(
            Op::GateBatch { w, x, u, hs: hs.to_vec(), b, act },
            Tensor::from_vec(k, m, out),
        )
    }

    /// `base + Σⱼ scales[j,·] ⊙ items[j]`, accumulating in ascending `j` —
    /// the TreeLSTM cell state `c = i⊙u + Σₖ fₖ⊙cₖ` in one node, with the
    /// forget activations taken from a [`Graph::gate_batch`] panel. The
    /// per-element operation sequence (`acc = acc + s·v`, one rounded
    /// product then one add per child) matches the mul/add chain it
    /// replaces bitwise.
    ///
    /// # Panics
    ///
    /// Panics when `scales` is not an `items.len() × base.len()` panel.
    pub fn fma_rows(&mut self, base: VarId, scales: VarId, items: &[VarId]) -> VarId {
        let m = self.values[base.0].len();
        let sv = &self.values[scales.0];
        assert_eq!(sv.rows(), items.len(), "fma_rows scale rows mismatch");
        assert_eq!(sv.cols(), m, "fma_rows scale cols mismatch");
        let mut out = self.buf(m);
        out.copy_from_slice(self.values[base.0].data());
        for (j, item) in items.iter().enumerate() {
            let iv = &self.values[item.0];
            assert_eq!(iv.len(), m, "fma_rows item shape mismatch");
            let srow = &self.values[scales.0].data()[j * m..(j + 1) * m];
            for ((o, s), v) in out.iter_mut().zip(srow).zip(iv.data()) {
                *o += s * v;
            }
        }
        let (rows, cols) = (self.values[base.0].rows(), self.values[base.0].cols());
        self.push(
            Op::FmaRows { base, scales, items: items.to_vec() },
            Tensor::from_vec(rows, cols, out),
        )
    }

    /// Packs `k` equal-length vectors as the rows of a `k × n` panel —
    /// the input-marshalling step in front of [`Graph::affine_batch`].
    ///
    /// # Panics
    ///
    /// Panics when `parts` is empty or shapes differ.
    pub fn pack(&mut self, parts: &[VarId]) -> VarId {
        assert!(!parts.is_empty(), "pack of zero vectors");
        let n = self.values[parts[0].0].len();
        let mut data = self.buf(parts.len() * n);
        for (j, p) in parts.iter().enumerate() {
            let v = &self.values[p.0];
            assert_eq!(v.len(), n, "pack shape mismatch");
            data[j * n..(j + 1) * n].copy_from_slice(v.data());
        }
        self.push(Op::Pack(parts.to_vec()), Tensor::from_vec(parts.len(), n, data))
    }

    /// Batch-major fused GEMM node: one packed kernel call computes
    /// `w · xs[j,·] (+ b)` for every row `j` of the `xs` panel. Each output
    /// row is bitwise identical to the per-program [`Graph::affine`] /
    /// [`Graph::matvec`] it replaces (see [`crate::tensor::gemm_batch`]).
    pub fn affine_batch(&mut self, w: VarId, xs: VarId, b: Option<VarId>) -> VarId {
        let _span = obs::span!("tensor.gemm");
        let (m, k) = (self.values[w.0].rows(), self.values[xs.0].rows());
        obs::counter!("tensor.gemm.dispatch_f32").inc();
        obs::counter!("tensor.gemm.batched_rows").add(k as u64);
        let mut out = self.buf(k * m);
        {
            let wv = &self.values[w.0];
            let xsv = &self.values[xs.0];
            let bias = b.map(|bv| self.values[bv.0].data());
            crate::tensor::gemm_batch(
                wv.data(),
                wv.rows(),
                wv.cols(),
                xsv.data(),
                k,
                bias,
                &mut out,
            );
        }
        self.push(Op::AffineBatch { w, xs, b }, Tensor::from_vec(k, m, out))
    }

    /// Per-row dot products of a panel with a vector, as a `k × 1`
    /// column — the batched attention-score reduction. Each row uses the
    /// same serial reduction as [`Graph::dot`].
    pub fn row_dots(&mut self, m: VarId, v: VarId) -> VarId {
        let (rows, cols) = (self.values[m.0].rows(), self.values[m.0].cols());
        assert_eq!(self.values[v.0].len(), cols, "row_dots vector length mismatch");
        let mut data = self.buf(rows);
        {
            let mv = self.values[m.0].data();
            let vv = self.values[v.0].data();
            for (j, d) in data.iter_mut().enumerate() {
                *d = mv[j * cols..(j + 1) * cols].iter().zip(vv).map(|(a, b)| a * b).sum();
            }
        }
        self.push(Op::RowDots(m, v), Tensor::vector(data))
    }

    /// Extracts row `row` of a panel as a column vector (the per-program
    /// view back out of a batched step).
    ///
    /// # Panics
    ///
    /// Panics when `row` is out of range.
    pub fn batch_item(&mut self, src: VarId, row: usize) -> VarId {
        let (rows, cols) = (self.values[src.0].rows(), self.values[src.0].cols());
        assert!(row < rows, "batch_item row {row} out of {rows}");
        let mut data = self.buf(cols);
        data.copy_from_slice(&self.values[src.0].data()[row * cols..(row + 1) * cols]);
        self.push(Op::BatchItem(src, row), Tensor::vector(data))
    }

    /// Re-appends a bitwise copy of the recorded node span
    /// `[start, start + len)` at the end of the graph and returns the new
    /// span's starting index. Operands inside the span are shifted to
    /// their copies; operands before the span (stable leaves such as
    /// cached `param_row` nodes) are kept as-is.
    ///
    /// This is the embedding-memoization primitive (DESIGN.md §2b): when
    /// a statement or state recurs within one forward pass, the ops its
    /// embedding *would* push are structurally identical to a previously
    /// recorded occurrence and their values are bitwise equal (the kernels
    /// are deterministic and all leaves are unchanged within a pass), so
    /// copying the span reproduces the exact uncached tape while skipping
    /// every kernel evaluation.
    ///
    /// The span must be self-contained up to stable leaves: in particular
    /// it must not contain first-occurrence `param_row` nodes (record the
    /// *second* occurrence, whose row lookups all hit the cache).
    ///
    /// # Panics
    ///
    /// Panics when the span is out of range.
    pub fn replay_span(&mut self, start: usize, len: usize) -> usize {
        let end = start + len;
        assert!(end <= self.ops.len(), "replay span {start}..{end} out of {}", self.ops.len());
        let new_start = self.ops.len();
        let delta = new_start - start;
        let shift = |v: VarId| {
            if v.0 >= start {
                debug_assert!(v.0 < end, "forward reference inside replay span");
                VarId(v.0 + delta)
            } else {
                v
            }
        };
        for i in start..end {
            let op = match &self.ops[i] {
                Op::Input => Op::Input,
                Op::Param(pid) => Op::Param(*pid),
                Op::ParamRow(..) => {
                    unreachable!("replay span contains a first-occurrence param_row leaf")
                }
                Op::MatVec(w, x) => Op::MatVec(shift(*w), shift(*x)),
                Op::Affine(w, x, b) => Op::Affine(shift(*w), shift(*x), shift(*b)),
                Op::Add(a, b) => Op::Add(shift(*a), shift(*b)),
                Op::Sub(a, b) => Op::Sub(shift(*a), shift(*b)),
                Op::Mul(a, b) => Op::Mul(shift(*a), shift(*b)),
                Op::Scale(a, c) => Op::Scale(shift(*a), *c),
                Op::MulScalar(v, s) => Op::MulScalar(shift(*v), shift(*s)),
                Op::Tanh(a) => Op::Tanh(shift(*a)),
                Op::Sigmoid(a) => Op::Sigmoid(shift(*a)),
                Op::Relu(a) => Op::Relu(shift(*a)),
                Op::Concat(parts) => Op::Concat(parts.iter().map(|&v| shift(v)).collect()),
                Op::Dot(a, b) => Op::Dot(shift(*a), shift(*b)),
                Op::StackScalars(parts) => {
                    Op::StackScalars(parts.iter().map(|&v| shift(v)).collect())
                }
                Op::Softmax(a) => Op::Softmax(shift(*a)),
                Op::Sum(a) => Op::Sum(shift(*a)),
                Op::Mean(a) => Op::Mean(shift(*a)),
                Op::SumVecs(parts) => Op::SumVecs(parts.iter().map(|&v| shift(v)).collect()),
                Op::MaxPool(parts) => Op::MaxPool(parts.iter().map(|&v| shift(v)).collect()),
                Op::WeightedSum { items, weights } => Op::WeightedSum {
                    items: items.iter().map(|&v| shift(v)).collect(),
                    weights: shift(*weights),
                },
                Op::CrossEntropy { logits, target } => {
                    Op::CrossEntropy { logits: shift(*logits), target: *target }
                }
                Op::Gate { w, x, u, h, b, act } => Op::Gate {
                    w: shift(*w),
                    x: shift(*x),
                    u: shift(*u),
                    h: shift(*h),
                    b: shift(*b),
                    act: *act,
                },
                Op::GateBatch { w, x, u, hs, b, act } => Op::GateBatch {
                    w: shift(*w),
                    x: shift(*x),
                    u: shift(*u),
                    hs: hs.iter().map(|&v| shift(v)).collect(),
                    b: shift(*b),
                    act: *act,
                },
                Op::FmaRows { base, scales, items } => Op::FmaRows {
                    base: shift(*base),
                    scales: shift(*scales),
                    items: items.iter().map(|&v| shift(v)).collect(),
                },
                Op::Pack(parts) => Op::Pack(parts.iter().map(|&v| shift(v)).collect()),
                Op::AffineBatch { w, xs, b } => Op::AffineBatch {
                    w: shift(*w),
                    xs: shift(*xs),
                    b: b.map(shift),
                },
                Op::RowDots(m, v) => Op::RowDots(shift(*m), shift(*v)),
                Op::BatchItem(src, row) => Op::BatchItem(shift(*src), *row),
            };
            let (rows, cols, n) = {
                let src = &self.values[i];
                (src.rows(), src.cols(), src.len())
            };
            let mut data = self.pool.take(n);
            data.copy_from_slice(self.values[i].data());
            self.ops.push(op);
            self.values.push(Tensor::from_vec(rows, cols, data));
        }
        new_start
    }

    /// Runs reverse-mode differentiation from the scalar `loss`,
    /// accumulating parameter gradients into `store`. Returns the full
    /// per-node gradient table (useful for tests and for inspecting
    /// attention weights).
    ///
    /// # Panics
    ///
    /// Panics when `loss` is not a 1×1 node.
    pub fn backward(&self, loss: VarId, store: &mut ParamStore) -> Vec<Option<Tensor>> {
        let (grads, param_grads) = self.backward_grads(loss, store);
        store.accumulate_grads(&param_grads);
        grads
    }

    /// Runs reverse-mode differentiation from the scalar `loss` without
    /// mutating the store: parameter gradients are returned as a detached
    /// [`ParamGrads`], alongside the per-node gradient table.
    ///
    /// Prefer [`Graph::backward_into`] on hot paths — it produces the same
    /// gradients bit-for-bit while drawing all scratch storage from the
    /// graph's buffer pool.
    ///
    /// # Panics
    ///
    /// Panics when `loss` is not a 1×1 node.
    pub fn backward_grads(
        &self,
        loss: VarId,
        store: &ParamStore,
    ) -> (Vec<Option<Tensor>>, ParamGrads) {
        let mut grads: Vec<Option<Tensor>> = vec![None; self.ops.len()];
        let mut table = GradTable { grads: &mut grads, pool: None };
        let param_grads = backward_sweep(&self.ops, &self.values, store, &mut table, loss);
        (grads, param_grads)
    }

    /// The hot-path backward: reverse-mode differentiation from the scalar
    /// `loss` against a shared `&ParamStore`, with the per-node gradient
    /// table and every temporary drawn from (and returned to) the graph's
    /// buffer pool. Only the returned [`ParamGrads`] is freshly allocated
    /// — it must outlive the graph and cross back to the reducing thread.
    ///
    /// # Panics
    ///
    /// Panics when `loss` is not a 1×1 node.
    pub fn backward_into(&mut self, loss: VarId, store: &ParamStore) -> ParamGrads {
        self.grads.clear();
        self.grads.resize(self.ops.len(), None);
        let mut table = GradTable { grads: &mut self.grads, pool: Some(&mut self.pool) };
        backward_sweep(&self.ops, &self.values, store, &mut table, loss)
    }
}

/// Scratch state of one reverse sweep: the per-node gradient table plus an
/// optional buffer pool. With a pool, every tensor the sweep creates comes
/// from recycled storage and is returned as soon as the sweep is done with
/// it; without one, behaviour matches plain allocation. The arithmetic —
/// including the zero-initialise-then-accumulate order — is identical
/// either way, so both modes produce bitwise-equal gradients.
struct GradTable<'a> {
    grads: &'a mut [Option<Tensor>],
    pool: Option<&'a mut BufferPool>,
}

impl GradTable<'_> {
    /// A tensor with unspecified contents; the caller overwrites every
    /// element.
    fn fresh(&mut self, rows: usize, cols: usize) -> Tensor {
        match &mut self.pool {
            Some(p) => Tensor::from_vec(rows, cols, p.take(rows * cols)),
            None => Tensor::zeros(rows, cols),
        }
    }

    fn fresh_zeroed(&mut self, rows: usize, cols: usize) -> Tensor {
        match &mut self.pool {
            Some(p) => Tensor::from_vec(rows, cols, p.take_zeroed(rows * cols)),
            None => Tensor::zeros(rows, cols),
        }
    }

    fn fresh_copy(&mut self, src: &Tensor) -> Tensor {
        let mut t = self.fresh(src.rows(), src.cols());
        t.data_mut().copy_from_slice(src.data());
        t
    }

    fn fresh_scalar(&mut self, v: f32) -> Tensor {
        let mut t = self.fresh(1, 1);
        t.data_mut()[0] = v;
        t
    }

    /// Returns a tensor's storage to the pool (a no-op without one).
    fn recycle(&mut self, t: Tensor) {
        if let Some(p) = &mut self.pool {
            p.put(t.into_data());
        }
    }

    fn take(&mut self, i: usize) -> Option<Tensor> {
        self.grads[i].take()
    }

    /// `grads[id] += delta`.
    fn acc(&mut self, id: VarId, delta: &Tensor) {
        match &mut self.grads[id.0] {
            Some(g) => g.axpy(1.0, delta),
            None => self.grads[id.0] = Some(self.fresh_copy(delta)),
        }
    }

    /// `grads[id] += alpha · delta` (zero-initialising an empty slot first,
    /// exactly like the allocating path, so signed zeros match bitwise).
    fn acc_scaled(&mut self, id: VarId, alpha: f32, delta: &Tensor) {
        if self.grads[id.0].is_none() {
            self.grads[id.0] = Some(self.fresh_zeroed(delta.rows(), delta.cols()));
        }
        self.grads[id.0].as_mut().expect("just initialized").axpy(alpha, delta);
    }

    /// `grads[id] += t`, consuming `t` (moved into an empty slot, recycled
    /// otherwise).
    fn acc_owned(&mut self, id: VarId, t: Tensor) {
        match &mut self.grads[id.0] {
            Some(g) => {
                g.axpy(1.0, &t);
                self.recycle(t);
            }
            None => self.grads[id.0] = Some(t),
        }
    }

    /// Accumulates into a (rows×cols) gradient through a closure (used for
    /// the outer-product update of matrix gradients).
    fn acc_with(&mut self, id: VarId, rows: usize, cols: usize, f: impl FnOnce(&mut Tensor)) {
        if self.grads[id.0].is_none() {
            self.grads[id.0] = Some(self.fresh_zeroed(rows, cols));
        }
        f(self.grads[id.0].as_mut().expect("just initialized"));
    }
}

/// The shared reverse sweep behind [`Graph::backward`],
/// [`Graph::backward_grads`] and [`Graph::backward_into`].
fn backward_sweep(
    ops: &[Op],
    values: &[Tensor],
    store: &ParamStore,
    table: &mut GradTable<'_>,
    loss: VarId,
) -> ParamGrads {
    assert_eq!(values[loss.0].len(), 1, "backward source must be scalar");
    let _span = obs::span!("graph.backward");
    let mut param_grads = ParamGrads::new();
    let seed = table.fresh_scalar(1.0);
    table.grads[loss.0] = Some(seed);

    for i in (0..ops.len()).rev() {
        let Some(g) = table.take(i) else { continue };
        match &ops[i] {
            Op::Input => {}
            Op::Param(pid) => {
                param_grads.accumulate(*pid, &g);
            }
            Op::ParamRow(pid, row) => {
                let p = &store.get(*pid).value;
                param_grads.accumulate_row(*pid, *row, p.rows(), p.cols(), &g);
            }
            Op::Affine(w, x, b) => {
                let xv = &values[x.0];
                let wv = &values[w.0];
                table.acc_with(*w, wv.rows(), wv.cols(), |t| t.add_outer(1.0, &g, xv));
                let mut dx = table.fresh(wv.cols(), 1);
                wv.matvec_t_into(&g, dx.data_mut());
                table.acc_owned(*x, dx);
                table.acc(*b, &g);
            }
            Op::MatVec(w, x) => {
                let xv = &values[x.0];
                let wv = &values[w.0];
                table.acc_with(*w, wv.rows(), wv.cols(), |t| t.add_outer(1.0, &g, xv));
                let mut dx = table.fresh(wv.cols(), 1);
                wv.matvec_t_into(&g, dx.data_mut());
                table.acc_owned(*x, dx);
            }
            Op::Add(a, b) => {
                table.acc(*a, &g);
                table.acc(*b, &g);
            }
            Op::Sub(a, b) => {
                table.acc(*a, &g);
                table.acc_scaled(*b, -1.0, &g);
            }
            Op::Mul(a, b) => {
                let mut ga = table.fresh(g.rows(), g.cols());
                for ((d, gv), y) in
                    ga.data_mut().iter_mut().zip(g.data()).zip(values[b.0].data())
                {
                    *d = gv * y;
                }
                let mut gb = table.fresh(g.rows(), g.cols());
                for ((d, gv), y) in
                    gb.data_mut().iter_mut().zip(g.data()).zip(values[a.0].data())
                {
                    *d = gv * y;
                }
                table.acc_owned(*a, ga);
                table.acc_owned(*b, gb);
            }
            Op::Scale(a, c) => table.acc_scaled(*a, *c, &g),
            Op::MulScalar(v, s) => {
                let sv = values[s.0].item();
                table.acc_scaled(*v, sv, &g);
                let ds = table.fresh_scalar(g.dot(&values[v.0]));
                table.acc_owned(*s, ds);
            }
            Op::Tanh(a) => {
                let y = &values[i];
                let mut d = table.fresh(g.rows(), g.cols());
                for ((dv, gv), yv) in d.data_mut().iter_mut().zip(g.data()).zip(y.data()) {
                    *dv = gv * (1.0 - yv * yv);
                }
                table.acc_owned(*a, d);
            }
            Op::Sigmoid(a) => {
                let y = &values[i];
                let mut d = table.fresh(g.rows(), g.cols());
                for ((dv, gv), yv) in d.data_mut().iter_mut().zip(g.data()).zip(y.data()) {
                    *dv = gv * yv * (1.0 - yv);
                }
                table.acc_owned(*a, d);
            }
            Op::Relu(a) => {
                let x = &values[a.0];
                let mut d = table.fresh(g.rows(), g.cols());
                for ((dv, gv), xv) in d.data_mut().iter_mut().zip(g.data()).zip(x.data()) {
                    *dv = if *xv > 0.0 { *gv } else { 0.0 };
                }
                table.acc_owned(*a, d);
            }
            Op::Concat(parts) => {
                let mut offset = 0;
                for p in parts {
                    let n = values[p.0].len();
                    let mut slice = table.fresh(n, 1);
                    slice.data_mut().copy_from_slice(&g.data()[offset..offset + n]);
                    table.acc_owned(*p, slice);
                    offset += n;
                }
            }
            Op::Dot(a, b) => {
                let g0 = g.item();
                table.acc_scaled(*a, g0, &values[b.0]);
                table.acc_scaled(*b, g0, &values[a.0]);
            }
            Op::StackScalars(parts) => {
                for (k, p) in parts.iter().enumerate() {
                    let d = table.fresh_scalar(g.data()[k]);
                    table.acc_owned(*p, d);
                }
            }
            Op::Softmax(a) => {
                // dx = y ⊙ (g − ⟨g, y⟩)
                let y = &values[i];
                let gy: f32 = g.dot(y);
                let mut d = table.fresh(g.rows(), g.cols());
                for ((dv, yv), gv) in d.data_mut().iter_mut().zip(y.data()).zip(g.data()) {
                    *dv = yv * (gv - gy);
                }
                table.acc_owned(*a, d);
            }
            Op::Sum(a) => {
                let g0 = g.item();
                let av = &values[a.0];
                let mut d = table.fresh(av.rows(), av.cols());
                d.data_mut().iter_mut().for_each(|v| *v = g0);
                table.acc_owned(*a, d);
            }
            Op::Mean(a) => {
                let av = &values[a.0];
                let g0 = g.item() / av.len() as f32;
                let mut d = table.fresh(av.rows(), av.cols());
                d.data_mut().iter_mut().for_each(|v| *v = g0);
                table.acc_owned(*a, d);
            }
            Op::SumVecs(parts) => {
                for p in parts {
                    table.acc(*p, &g);
                }
            }
            Op::MaxPool(parts) => {
                // Route gradient to the argmax contributor per element;
                // ties go to the earliest part (deterministic).
                let y = &values[i];
                for p in parts {
                    let v = &values[p.0];
                    let mut d = table.fresh(v.rows(), v.cols());
                    for (((dv, xv), yv), gv) in
                        d.data_mut().iter_mut().zip(v.data()).zip(y.data()).zip(g.data())
                    {
                        *dv = if xv == yv { *gv } else { 0.0 };
                    }
                    table.acc_owned(*p, d);
                    // Note: exact float ties across different parts are
                    // measure-zero with real activations; duplicating
                    // the gradient there is harmless for training.
                }
            }
            Op::WeightedSum { items, weights } => {
                let mut dw = table.fresh(items.len(), 1);
                for (k, item) in items.iter().enumerate() {
                    let alpha = values[weights.0].data()[k];
                    table.acc_scaled(*item, alpha, &g);
                    dw.data_mut()[k] = g.dot(&values[item.0]);
                }
                table.acc_owned(*weights, dw);
            }
            Op::CrossEntropy { logits, target } => {
                let g0 = g.item();
                let lv = &values[logits.0];
                let mut d = table.fresh(lv.rows(), lv.cols());
                softmax_into(lv.data(), d.data_mut());
                {
                    let data = d.data_mut();
                    data[*target] -= 1.0;
                    data.iter_mut().for_each(|v| *v *= g0);
                }
                table.acc_owned(*logits, d);
            }
            Op::Gate { w, x, u, h, b, act } => {
                // d_pre = g ⊙ act'(y), then the four linear pullbacks in
                // the same order the composed chain's reverse sweep ran
                // them: b, then u/h (the later matvec), then w/x.
                let y = &values[i];
                let mut d = table.fresh(g.rows(), g.cols());
                for ((dv, gv), yv) in d.data_mut().iter_mut().zip(g.data()).zip(y.data()) {
                    *dv = act.dfdy(*gv, *yv);
                }
                table.acc(*b, &d);
                let uv = &values[u.0];
                let hv = &values[h.0];
                table.acc_with(*u, uv.rows(), uv.cols(), |t| t.add_outer(1.0, &d, hv));
                let mut dh = table.fresh(uv.cols(), 1);
                uv.matvec_t_into(&d, dh.data_mut());
                table.acc_owned(*h, dh);
                let wv = &values[w.0];
                let xv = &values[x.0];
                table.acc_with(*w, wv.rows(), wv.cols(), |t| t.add_outer(1.0, &d, xv));
                let mut dx = table.fresh(wv.cols(), 1);
                wv.matvec_t_into(&d, dx.data_mut());
                table.acc_owned(*x, dx);
                table.recycle(d);
            }
            Op::GateBatch { w, x, u, hs, b, act } => {
                // One row at a time, in descending j — the reverse-tape
                // order of the per-child gate nodes this op fuses — so
                // every shared accumulation (b, u, w, x) sees the same
                // floating-point addition sequence.
                let y = &values[i];
                let m = y.cols();
                let uv = &values[u.0];
                let wv = &values[w.0];
                let xv = &values[x.0];
                for j in (0..hs.len()).rev() {
                    let mut d = table.fresh(m, 1);
                    for ((dv, gv), yv) in d
                        .data_mut()
                        .iter_mut()
                        .zip(&g.data()[j * m..(j + 1) * m])
                        .zip(&y.data()[j * m..(j + 1) * m])
                    {
                        *dv = act.dfdy(*gv, *yv);
                    }
                    table.acc(*b, &d);
                    let hv = &values[hs[j].0];
                    table.acc_with(*u, uv.rows(), uv.cols(), |t| t.add_outer(1.0, &d, hv));
                    let mut dh = table.fresh(uv.cols(), 1);
                    uv.matvec_t_into(&d, dh.data_mut());
                    table.acc_owned(hs[j], dh);
                    table.acc_with(*w, wv.rows(), wv.cols(), |t| t.add_outer(1.0, &d, xv));
                    let mut dx = table.fresh(wv.cols(), 1);
                    wv.matvec_t_into(&d, dx.data_mut());
                    table.acc_owned(*x, dx);
                    table.recycle(d);
                }
            }
            Op::FmaRows { base, scales, items } => {
                // d_scales[j,·] = g ⊙ items[j]; d_items[j] = g ⊙ scales[j,·]
                // — the Mul backward expressions, rows written directly so
                // the panel gradient equals the moved per-node tensors of
                // the chain it replaces.
                let m = g.len();
                let mut ds = table.fresh(items.len(), m);
                for (j, item) in items.iter().enumerate() {
                    for ((dv, gv), cv) in ds.data_mut()[j * m..(j + 1) * m]
                        .iter_mut()
                        .zip(g.data())
                        .zip(values[item.0].data())
                    {
                        *dv = gv * cv;
                    }
                }
                for j in (0..items.len()).rev() {
                    let mut di = table.fresh(m, 1);
                    for ((dv, gv), sv) in di
                        .data_mut()
                        .iter_mut()
                        .zip(g.data())
                        .zip(&values[scales.0].data()[j * m..(j + 1) * m])
                    {
                        *dv = gv * sv;
                    }
                    table.acc_owned(items[j], di);
                }
                table.acc(*base, &g);
                table.acc_owned(*scales, ds);
            }
            Op::Pack(parts) => {
                let n = values[i].cols();
                for (j, p) in parts.iter().enumerate() {
                    let mut slice = table.fresh(n, 1);
                    slice.data_mut().copy_from_slice(&g.data()[j * n..(j + 1) * n]);
                    table.acc_owned(*p, slice);
                }
            }
            Op::AffineBatch { w, xs, b } => {
                let wv = &values[w.0];
                let xsv = &values[xs.0];
                let (k, m, n) = (xsv.rows(), wv.rows(), wv.cols());
                let mut dxs = table.fresh(k, n);
                // Descending item order: the reverse-tape order of the k
                // per-program affine nodes this GEMM fuses, so dW/db see
                // the same accumulation sequence.
                for j in (0..k).rev() {
                    let mut gj = table.fresh(m, 1);
                    gj.data_mut().copy_from_slice(&g.data()[j * m..(j + 1) * m]);
                    let mut xj = table.fresh(n, 1);
                    xj.data_mut().copy_from_slice(&xsv.data()[j * n..(j + 1) * n]);
                    table.acc_with(*w, m, n, |t| t.add_outer(1.0, &gj, &xj));
                    wv.matvec_t_into(&gj, &mut dxs.data_mut()[j * n..(j + 1) * n]);
                    if let Some(bv) = b {
                        table.acc(*bv, &gj);
                    }
                    table.recycle(xj);
                    table.recycle(gj);
                }
                table.acc_owned(*xs, dxs);
            }
            Op::RowDots(mv, v) => {
                let vv = &values[v.0];
                let (k, n) = (values[mv.0].rows(), values[mv.0].cols());
                let mut dm = table.fresh(k, n);
                for j in 0..k {
                    let gj = g.data()[j];
                    // `0.0 +` mirrors the zero-init-then-axpy path of the
                    // per-feature Dot backward this op replaces bitwise.
                    for (dv, xv) in
                        dm.data_mut()[j * n..(j + 1) * n].iter_mut().zip(vv.data())
                    {
                        *dv = 0.0 + gj * xv;
                    }
                }
                for j in (0..k).rev() {
                    let mut row = table.fresh(n, 1);
                    row.data_mut()
                        .copy_from_slice(&values[mv.0].data()[j * n..(j + 1) * n]);
                    table.acc_scaled(*v, g.data()[j], &row);
                    table.recycle(row);
                }
                table.acc_owned(*mv, dm);
            }
            Op::BatchItem(src, row) => {
                let cols = values[src.0].cols();
                let (r, k) = (*row, values[src.0].rows());
                table.acc_with(*src, k, cols, |t| {
                    for (dv, gv) in
                        t.data_mut()[r * cols..(r + 1) * cols].iter_mut().zip(g.data())
                    {
                        *dv += gv;
                    }
                });
            }
        }
        table.recycle(g);
    }
    param_grads
}

/// Numerically-stable softmax into a caller-provided buffer (every element
/// is overwritten).
fn softmax_into(x: &[f32], out: &mut [f32]) {
    let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for (o, v) in out.iter_mut().zip(x) {
        *o = (v - max).exp();
        sum += *o;
    }
    out.iter_mut().for_each(|v| *v /= sum);
}

#[cfg(test)]
fn softmax_vec(x: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(x.rows(), x.cols());
    softmax_into(x.data(), out.data_mut());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one() {
        let mut g = Graph::new();
        let x = g.input(Tensor::vector(vec![1.0, 2.0, 3.0]));
        let y = g.softmax(x);
        let sum: f32 = g.value(y).data().iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        // Monotone in inputs.
        let d = g.value(y).data();
        assert!(d[0] < d[1] && d[1] < d[2]);
    }

    #[test]
    fn simple_chain_gradient() {
        // loss = sum(tanh(W x)); check dW numerically.
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(2, 2, vec![0.1, -0.2, 0.3, 0.4]));

        let loss_of = |store: &ParamStore| {
            let mut g = Graph::new();
            let wv = g.param(store, w);
            let x = g.input(Tensor::vector(vec![0.5, -1.0]));
            let h = g.matvec(wv, x);
            let t = g.tanh(h);
            let l = g.sum(t);
            (g, l)
        };

        let (g, l) = loss_of(&store);
        g.backward(l, &mut store);

        let eps = 1e-3f32;
        for k in 0..4 {
            let analytic = store.get(w).grad.data()[k];
            let mut plus = store.clone();
            plus.get_mut(w).value.data_mut()[k] += eps;
            let (gp, lp) = loss_of(&plus);
            let mut minus = store.clone();
            minus.get_mut(w).value.data_mut()[k] -= eps;
            let (gm, lm) = loss_of(&minus);
            let numeric = (gp.value(lp).item() - gm.value(lm).item()) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 1e-2,
                "dW[{k}]: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn cross_entropy_gradient_is_softmax_minus_onehot() {
        let mut store = ParamStore::new();
        let p = store.add("logits", Tensor::vector(vec![0.5, -0.5, 1.0]));
        let mut g = Graph::new();
        let logits = g.param(&store, p);
        let loss = g.cross_entropy(logits, 2);
        g.backward(loss, &mut store);
        let probs = softmax_vec(&store.get(p).value);
        let grad = &store.get(p).grad;
        for k in 0..3 {
            let expected = probs.data()[k] - if k == 2 { 1.0 } else { 0.0 };
            assert!((grad.data()[k] - expected).abs() < 1e-6);
        }
    }

    #[test]
    fn affine_matches_matvec_plus_bias_forward_and_backward() {
        let mut store_a = ParamStore::new();
        let w_a = store_a.add("w", Tensor::from_vec(3, 2, vec![0.1, -0.2, 0.3, 0.4, -0.5, 0.6]));
        let b_a = store_a.add("b", Tensor::vector(vec![0.05, -0.1, 0.2]));
        let mut store_b = store_a.clone();
        let (w_b, b_b) = (w_a, b_a);

        let x_data = vec![0.7, -1.3];

        let mut ga = Graph::new();
        let wv = ga.param(&store_a, w_a);
        let bv = ga.param(&store_a, b_a);
        let xv = ga.input(Tensor::vector(x_data.clone()));
        let fused = ga.affine(wv, xv, bv);
        let la = ga.sum(fused);
        ga.backward(la, &mut store_a);

        let mut gb = Graph::new();
        let wv = gb.param(&store_b, w_b);
        let bv = gb.param(&store_b, b_b);
        let xv = gb.input(Tensor::vector(x_data));
        let mv = gb.matvec(wv, xv);
        let unfused = gb.add(mv, bv);
        let lb = gb.sum(unfused);
        gb.backward(lb, &mut store_b);

        for (f, u) in ga.value(fused).data().iter().zip(gb.value(unfused).data()) {
            assert!((f - u).abs() < 1e-6, "forward mismatch: {f} vs {u}");
        }
        for (f, u) in store_a.get(w_a).grad.data().iter().zip(store_b.get(w_b).grad.data()) {
            assert!((f - u).abs() < 1e-6, "dW mismatch: {f} vs {u}");
        }
        for (f, u) in store_a.get(b_a).grad.data().iter().zip(store_b.get(b_b).grad.data()) {
            assert!((f - u).abs() < 1e-6, "db mismatch: {f} vs {u}");
        }
    }

    #[test]
    fn backward_grads_leaves_store_untouched() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::vector(vec![1.0, 2.0]));
        let mut g = Graph::new();
        let wv = g.param(&store, w);
        let l = g.sum(wv);
        let (node_grads, param_grads) = g.backward_grads(l, &store);
        assert_eq!(store.get(w).grad.data(), &[0.0, 0.0], "store must stay clean");
        assert_eq!(node_grads.len(), g.len());
        assert_eq!(node_grads[wv.0].as_ref().map(|t| t.data().to_vec()), None,
            "leaf grads are moved into param_grads, not left in the table");
        store.accumulate_grads(&param_grads);
        assert_eq!(store.get(w).grad.data(), &[1.0, 1.0]);
    }

    #[test]
    fn backward_into_matches_backward_grads_bitwise() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(3, 2, vec![0.1, -0.2, 0.3, 0.4, -0.5, 0.6]));
        let b = store.add("b", Tensor::vector(vec![0.05, -0.1, 0.2]));
        let emb = store.add("emb", Tensor::from_vec(4, 2, vec![0.1; 8]));

        let build = |g: &mut Graph, s: &ParamStore| {
            let wv = g.param(s, w);
            let bv = g.param(s, b);
            let x = g.param_row(s, emb, 2);
            let h = g.affine(wv, x, bv);
            let t = g.tanh(h);
            let sm = g.softmax(t);
            let row2 = g.param_row(s, emb, 2); // cache hit
            let d = g.dot(x, row2);
            let ssum = g.sum(sm);
            let l2 = g.add(ssum, d);
            g.cross_entropy(l2, 0)
        };

        let mut ga = Graph::new();
        let la = build(&mut ga, &store);
        let (_, pga) = ga.backward_grads(la, &store);

        let mut gb = Graph::new();
        let lb = build(&mut gb, &store);
        let pgb = gb.backward_into(lb, &store);

        let bits = |pg: &ParamGrads| -> Vec<(usize, Vec<u32>)> {
            pg.iter()
                .map(|(id, t)| (id.0, t.data().iter().map(|v| v.to_bits()).collect()))
                .collect()
        };
        assert_eq!(bits(&pga), bits(&pgb));
    }

    #[test]
    fn reset_retains_capacity_and_recycles_buffers() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(4, 4, vec![0.01; 16]));
        let mut g = Graph::new();

        let run = |g: &mut Graph, s: &ParamStore| {
            let wv = g.param(s, w);
            let x = g.input(Tensor::vector(vec![1.0, -1.0, 0.5, 0.25]));
            let h = g.matvec(wv, x);
            let t = g.tanh(h);
            let l = g.sum(t);
            g.backward_into(l, s)
        };

        let _ = run(&mut g, &store);
        let misses_after_cold = g.pool_misses();
        assert!(misses_after_cold > 0, "cold pass must populate the pool");

        g.reset();
        assert!(g.is_empty());
        assert!(g.pooled_buffers() > 0, "reset parks value buffers in the pool");

        let _ = run(&mut g, &store);
        assert_eq!(
            g.pool_misses(),
            misses_after_cold,
            "steady-state pass must be served entirely from the pool"
        );
    }

    #[test]
    fn reset_runs_produce_bitwise_identical_results() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(3, 3, vec![0.3, -0.1, 0.2, 0.5, 0.4, -0.6, 0.7, 0.1, -0.2]));
        let run = |g: &mut Graph, s: &ParamStore| {
            let wv = g.param(s, w);
            let x = g.input(Tensor::vector(vec![0.2, -0.4, 0.6]));
            let h = g.matvec(wv, x);
            let t = g.sigmoid(h);
            let l = g.cross_entropy(t, 1);
            let pg = g.backward_into(l, s);
            let loss_bits = g.value(l).item().to_bits();
            let grad_bits: Vec<u32> = pg
                .iter()
                .flat_map(|(_, t)| t.data().iter().map(|v| v.to_bits()))
                .collect();
            (loss_bits, grad_bits)
        };
        let mut fresh = Graph::new();
        let want = run(&mut fresh, &store);
        let mut reused = Graph::new();
        for _ in 0..3 {
            reused.reset();
            assert_eq!(run(&mut reused, &store), want, "reused graph diverged");
        }
    }

    #[test]
    fn param_row_lookups_are_cached_per_graph() {
        let mut store = ParamStore::new();
        let emb = store.add("emb", Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let mut g = Graph::new();
        let a = g.param_row(&store, emb, 1);
        let b = g.param_row(&store, emb, 1);
        assert_eq!(a, b, "repeated lookup must reuse the node");
        let c = g.param_row(&store, emb, 0);
        assert_ne!(a, c);
        // Gradient still accumulates once per use of the shared node.
        let s = g.sum_vecs(&[a, b]);
        let l = g.sum(s);
        g.backward(l, &mut store);
        assert_eq!(store.get(emb).grad.data(), &[0.0, 0.0, 2.0, 2.0]);
    }

    #[test]
    fn param_row_cache_is_invalidated_by_reset() {
        // Regression test: a stale row cache surviving reset() would hand
        // out dangling VarIds and pre-update parameter values.
        let mut store = ParamStore::new();
        let emb = store.add("emb", Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let mut g = Graph::new();
        let before = g.param_row(&store, emb, 1);
        assert_eq!(g.value(before).data(), &[3.0, 4.0]);

        // An optimizer step changes the parameter between examples.
        store.get_mut(emb).value.data_mut()[2] = 30.0;
        g.reset();

        let after = g.param_row(&store, emb, 1);
        assert_eq!(after.index(), 0, "reset graph must hand out fresh node ids");
        assert_eq!(
            g.value(after).data(),
            &[30.0, 4.0],
            "stale cached row value survived reset"
        );
    }

    #[test]
    fn replay_span_copies_values_and_gradients_bitwise() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(2, 2, vec![0.4, -0.3, 0.2, 0.1]));
        let emb = store.add("emb", Tensor::from_vec(3, 2, vec![0.5, -0.5, 0.25, 0.75, -0.1, 0.9]));

        // Reference: the same sub-expression built twice, as an uncached
        // pass would (the row leaf is cached, everything else re-pushed).
        let build_once = |g: &mut Graph, s: &ParamStore| {
            let x = g.param_row(s, emb, 1);
            let wv = g.param(s, w);
            let h = g.matvec(wv, x);
            g.tanh(h)
        };
        let mut reference = Graph::new();
        let r1 = build_once(&mut reference, &store);
        let r2 = build_once(&mut reference, &store);
        let rsum = reference.sum_vecs(&[r1, r2]);
        let rloss = reference.sum(rsum);
        let (_, ref_grads) = reference.backward_grads(rloss, &store);

        // Replayed: record the second occurrence (all rows cached), then
        // copy its span instead of recomputing.
        let mut g = Graph::new();
        let _warm = build_once(&mut g, &store); // occurrence 1 fills the row cache
        g.reset();
        let a1 = build_once(&mut g, &store);
        // In a reset graph occurrence 1 is also occurrence-2-like only if
        // rows are pre-cached; build the real recording setup instead:
        let start = g.len();
        let a2 = build_once(&mut g, &store);
        let len = g.len() - start;
        let result_rel = a2.index() - start;
        let new_start = g.replay_span(start, len);
        let a3 = g.var(new_start + result_rel);
        assert_eq!(
            g.value(a3).data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            g.value(a2).data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );

        // Gradients of (a1 + a2) through the replayed graph match the
        // reference's first two occurrences; and a three-way sum stays
        // differentiable through the copied span.
        let sum2 = g.sum_vecs(&[a1, a2]);
        let loss2 = g.sum(sum2);
        let (_, got_grads) = g.backward_grads(loss2, &store);
        let bits = |pg: &ParamGrads| -> Vec<(usize, Vec<u32>)> {
            pg.iter()
                .map(|(id, t)| (id.0, t.data().iter().map(|v| v.to_bits()).collect()))
                .collect()
        };
        assert_eq!(bits(&ref_grads), bits(&got_grads));

        let sum3 = g.sum_vecs(&[a1, a2, a3]);
        let loss3 = g.sum(sum3);
        let mut s3 = store.clone();
        g.backward(loss3, &mut s3);
        assert!(s3.grad_norm() > 0.0, "no gradient flowed through the replayed span");
    }

    #[test]
    fn zeros_leaf_is_a_zero_input() {
        let mut g = Graph::new();
        let z = g.zeros(3, 1);
        assert_eq!(g.value(z).data(), &[0.0; 3]);
        // Pooled storage must still come back zeroed after a reset parks a
        // dirty buffer of the same size.
        let x = g.input(Tensor::vector(vec![5.0, 6.0, 7.0]));
        let _ = g.add(z, x);
        g.reset();
        let z2 = g.zeros(3, 1);
        assert_eq!(g.value(z2).data(), &[0.0; 3]);
    }

    #[test]
    fn max_pool_routes_gradient_to_argmax() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::vector(vec![1.0, 5.0]));
        let b = store.add("b", Tensor::vector(vec![2.0, 3.0]));
        let mut g = Graph::new();
        let av = g.param(&store, a);
        let bv = g.param(&store, b);
        let m = g.max_pool(&[av, bv]);
        assert_eq!(g.value(m).data(), &[2.0, 5.0]);
        let s = g.sum(m);
        g.backward(s, &mut store);
        assert_eq!(store.get(a).grad.data(), &[0.0, 1.0]);
        assert_eq!(store.get(b).grad.data(), &[1.0, 0.0]);
    }

    #[test]
    fn param_row_accumulates_into_embedding_matrix() {
        let mut store = ParamStore::new();
        let emb = store.add("emb", Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        let mut g = Graph::new();
        let row1 = g.param_row(&store, emb, 1);
        assert_eq!(g.value(row1).data(), &[3.0, 4.0]);
        let s = g.sum(row1);
        g.backward(s, &mut store);
        assert_eq!(store.get(emb).grad.data(), &[0.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn weighted_sum_gradients() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::vector(vec![1.0, 0.0]));
        let b = store.add("b", Tensor::vector(vec![0.0, 1.0]));
        let w = store.add("w", Tensor::vector(vec![0.25, 0.75]));
        let mut g = Graph::new();
        let av = g.param(&store, a);
        let bv = g.param(&store, b);
        let wv = g.param(&store, w);
        let combo = g.weighted_sum(&[av, bv], wv);
        assert_eq!(g.value(combo).data(), &[0.25, 0.75]);
        let s = g.sum(combo);
        g.backward(s, &mut store);
        assert_eq!(store.get(a).grad.data(), &[0.25, 0.25]);
        assert_eq!(store.get(b).grad.data(), &[0.75, 0.75]);
        // dL/dw[k] = sum(items[k]) = 1 for both.
        assert_eq!(store.get(w).grad.data(), &[1.0, 1.0]);
    }

    #[test]
    fn concat_splits_gradient() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::vector(vec![1.0]));
        let b = store.add("b", Tensor::vector(vec![2.0, 3.0]));
        let mut g = Graph::new();
        let av = g.param(&store, a);
        let bv = g.param(&store, b);
        let c = g.concat(&[av, bv]);
        assert_eq!(g.value(c).data(), &[1.0, 2.0, 3.0]);
        let w = g.input(Tensor::vector(vec![10.0, 20.0, 30.0]));
        let d = g.dot(c, w);
        g.backward(d, &mut store);
        assert_eq!(store.get(a).grad.data(), &[10.0]);
        assert_eq!(store.get(b).grad.data(), &[20.0, 30.0]);
    }

    #[test]
    fn reused_node_accumulates_gradient() {
        // loss = sum(x) + dot(x, x): dL/dx = 1 + 2x.
        let mut store = ParamStore::new();
        let x = store.add("x", Tensor::vector(vec![1.0, -2.0]));
        let mut g = Graph::new();
        let xv = g.param(&store, x);
        let s = g.sum(xv);
        let d = g.dot(xv, xv);
        let loss = g.add(s, d);
        g.backward(loss, &mut store);
        assert_eq!(store.get(x).grad.data(), &[3.0, -3.0]);
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_from_non_scalar_panics() {
        let mut store = ParamStore::new();
        let mut g = Graph::new();
        let x = g.input(Tensor::vector(vec![1.0, 2.0]));
        g.backward(x, &mut store);
    }

    /// Deterministic pseudo-random fill for the kernel-equivalence tests.
    fn lcg(seed: &mut u64, n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| {
                *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((*seed >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn param_cache_dedupes_repeated_param_nodes() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::vector(vec![1.0, 2.0]));
        let mut g = Graph::new();
        let a = g.param(&store, w);
        let len_after_first = g.len();
        let b = g.param(&store, w);
        assert_eq!(a, b, "second use must hit the cache");
        assert_eq!(g.len(), len_after_first, "cache hit must not push a node");
        g.reset();
        let c = g.param(&store, w);
        assert_eq!(c.0, 0, "reset must clear the param cache");
        // Gradients through a cached (shared) node still accumulate per use:
        // loss = sum(w) + dot(w, w) ⇒ dL/dw = 1 + 2w.
        let s = g.sum(c);
        let d = g.dot(c, c);
        let loss = g.add(s, d);
        g.backward(loss, &mut store);
        assert_eq!(store.get(w).grad.data(), &[3.0, 5.0]);
    }

    /// Builds the five-node chain `act((w·x + u·h) + b)` the fused gate
    /// replaces.
    fn composed_gate(
        g: &mut Graph,
        w: VarId,
        x: VarId,
        u: VarId,
        h: VarId,
        b: VarId,
        act: Act,
    ) -> VarId {
        let wx = g.matvec(w, x);
        let uh = g.matvec(u, h);
        let s = g.add(wx, uh);
        let sb = g.add(s, b);
        match act {
            Act::Tanh => g.tanh(sb),
            Act::Sigmoid => g.sigmoid(sb),
        }
    }

    #[test]
    fn gate_is_bitwise_identical_to_composed_chain() {
        // m=5 is deliberately not a multiple of the kernel row block.
        let (m, nx, nh) = (5, 3, 4);
        let mut seed = 0x5eed;
        for act in [Act::Tanh, Act::Sigmoid] {
            let mut store_f = ParamStore::new();
            let w = store_f.add("w", Tensor::from_vec(m, nx, lcg(&mut seed, m * nx)));
            let u = store_f.add("u", Tensor::from_vec(m, nh, lcg(&mut seed, m * nh)));
            let b = store_f.add("b", Tensor::vector(lcg(&mut seed, m)));
            let x = store_f.add("x", Tensor::vector(lcg(&mut seed, nx)));
            let h = store_f.add("h", Tensor::vector(lcg(&mut seed, nh)));
            let mut store_c = store_f.clone();
            let probe = lcg(&mut seed, m);

            let mut gf = Graph::new();
            let (wv, uv) = (gf.param(&store_f, w), gf.param(&store_f, u));
            let (bv, xv, hv) = (gf.param(&store_f, b), gf.param(&store_f, x), gf.param(&store_f, h));
            let yf = gf.gate(wv, xv, uv, hv, bv, act);
            let pf = gf.input(Tensor::vector(probe.clone()));
            let lf = gf.dot(yf, pf);
            gf.backward(lf, &mut store_f);

            let mut gc = Graph::new();
            let (wv, uv) = (gc.param(&store_c, w), gc.param(&store_c, u));
            let (bv, xv, hv) = (gc.param(&store_c, b), gc.param(&store_c, x), gc.param(&store_c, h));
            let yc = composed_gate(&mut gc, wv, xv, uv, hv, bv, act);
            let pc = gc.input(Tensor::vector(probe));
            let lc = gc.dot(yc, pc);
            gc.backward(lc, &mut store_c);

            assert_eq!(bits(gf.value(yf)), bits(gc.value(yc)), "forward ({act:?})");
            for p in [w, u, b, x, h] {
                assert_eq!(
                    bits(&store_f.get(p).grad),
                    bits(&store_c.get(p).grad),
                    "grad mismatch ({act:?})"
                );
            }
        }
    }

    #[test]
    fn gate_batch_rows_are_bitwise_identical_to_individual_gates() {
        let (k, m, nx) = (3, 5, 3);
        let mut seed = 0xbeef;
        let mut store_f = ParamStore::new();
        let w = store_f.add("w", Tensor::from_vec(m, nx, lcg(&mut seed, m * nx)));
        let u = store_f.add("u", Tensor::from_vec(m, m, lcg(&mut seed, m * m)));
        let b = store_f.add("b", Tensor::vector(lcg(&mut seed, m)));
        let x = store_f.add("x", Tensor::vector(lcg(&mut seed, nx)));
        let hs_ids: Vec<_> = (0..k)
            .map(|j| store_f.add(format!("h{j}"), Tensor::vector(lcg(&mut seed, m))))
            .collect();
        let mut store_c = store_f.clone();

        let mut gf = Graph::new();
        let (wv, uv) = (gf.param(&store_f, w), gf.param(&store_f, u));
        let (bv, xv) = (gf.param(&store_f, b), gf.param(&store_f, x));
        let hs: Vec<_> = hs_ids.iter().map(|&h| gf.param(&store_f, h)).collect();
        let panel = gf.gate_batch(wv, xv, uv, &hs, bv, Act::Sigmoid);
        let lf = gf.sum(panel);
        gf.backward(lf, &mut store_f);

        let mut gc = Graph::new();
        let (wv, uv) = (gc.param(&store_c, w), gc.param(&store_c, u));
        let (bv, xv) = (gc.param(&store_c, b), gc.param(&store_c, x));
        let mut rows = Vec::new();
        let mut loss = None;
        for &h in &hs_ids {
            let hv = gc.param(&store_c, h);
            let y = gc.gate(wv, xv, uv, hv, bv, Act::Sigmoid);
            rows.push(y);
            let s = gc.sum(y);
            loss = Some(match loss {
                None => s,
                Some(acc) => gc.add(acc, s),
            });
        }
        gc.backward(loss.unwrap(), &mut store_c);

        for (j, y) in rows.iter().enumerate() {
            assert_eq!(
                gf.value(panel).data()[j * m..(j + 1) * m]
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                bits(gc.value(*y)),
                "row {j} forward"
            );
        }
        for p in [w, u, b, x].into_iter().chain(hs_ids) {
            assert_eq!(bits(&store_f.get(p).grad), bits(&store_c.get(p).grad));
        }
    }

    #[test]
    fn fma_rows_is_bitwise_identical_to_mul_add_chain() {
        let (k, m) = (3, 5);
        let mut seed = 0xfa15e;
        let scale_rows: Vec<Vec<f32>> = (0..k).map(|_| lcg(&mut seed, m)).collect();
        let base_data = lcg(&mut seed, m);
        let item_data: Vec<Vec<f32>> = (0..k).map(|_| lcg(&mut seed, m)).collect();
        let probe = lcg(&mut seed, m);

        let mut store_f = ParamStore::new();
        let base = store_f.add("base", Tensor::vector(base_data.clone()));
        let scales =
            store_f.add("scales", Tensor::from_vec(k, m, scale_rows.concat()));
        let items_f: Vec<_> = (0..k)
            .map(|j| store_f.add(format!("c{j}"), Tensor::vector(item_data[j].clone())))
            .collect();

        let mut store_c = ParamStore::new();
        let base_c = store_c.add("base", Tensor::vector(base_data));
        let srow_ids: Vec<_> = (0..k)
            .map(|j| store_c.add(format!("s{j}"), Tensor::vector(scale_rows[j].clone())))
            .collect();
        let items_c: Vec<_> = (0..k)
            .map(|j| store_c.add(format!("c{j}"), Tensor::vector(item_data[j].clone())))
            .collect();

        let mut gf = Graph::new();
        let bv = gf.param(&store_f, base);
        let sv = gf.param(&store_f, scales);
        let iv: Vec<_> = items_f.iter().map(|&p| gf.param(&store_f, p)).collect();
        let yf = gf.fma_rows(bv, sv, &iv);
        let pf = gf.input(Tensor::vector(probe.clone()));
        let lf = gf.dot(yf, pf);
        gf.backward(lf, &mut store_f);

        let mut gc = Graph::new();
        let mut acc = gc.param(&store_c, base_c);
        let yc = {
            for j in 0..k {
                let s = gc.param(&store_c, srow_ids[j]);
                let c = gc.param(&store_c, items_c[j]);
                let t = gc.mul(s, c);
                acc = gc.add(acc, t);
            }
            acc
        };
        let pc = gc.input(Tensor::vector(probe));
        let lc = gc.dot(yc, pc);
        gc.backward(lc, &mut store_c);

        assert_eq!(bits(gf.value(yf)), bits(gc.value(yc)), "forward");
        assert_eq!(bits(&store_f.get(base).grad), bits(&store_c.get(base_c).grad));
        for j in 0..k {
            assert_eq!(
                store_f.get(scales).grad.data()[j * m..(j + 1) * m]
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                bits(&store_c.get(srow_ids[j]).grad),
                "d_scales row {j}"
            );
            assert_eq!(
                bits(&store_f.get(items_f[j]).grad),
                bits(&store_c.get(items_c[j]).grad),
                "d_item {j}"
            );
        }
    }

    #[test]
    fn affine_batch_is_bitwise_identical_to_per_item_affine() {
        // Odd shapes on purpose: 5 output rows (not a block multiple),
        // including the k=1 and n=1 edge panels.
        for (k, m, n) in [(3, 5, 3), (1, 5, 3), (3, 5, 1), (4, 1, 3)] {
            let mut seed = 0xabcd ^ (k * 100 + m * 10 + n) as u64;
            let mut store_f = ParamStore::new();
            let w = store_f.add("w", Tensor::from_vec(m, n, lcg(&mut seed, m * n)));
            let b = store_f.add("b", Tensor::vector(lcg(&mut seed, m)));
            let xs_ids: Vec<_> = (0..k)
                .map(|j| store_f.add(format!("x{j}"), Tensor::vector(lcg(&mut seed, n))))
                .collect();
            let mut store_c = store_f.clone();

            let mut gf = Graph::new();
            let (wv, bv) = (gf.param(&store_f, w), gf.param(&store_f, b));
            let xs: Vec<_> = xs_ids.iter().map(|&x| gf.param(&store_f, x)).collect();
            let packed = gf.pack(&xs);
            let panel = gf.affine_batch(wv, packed, Some(bv));
            // Route the loss through batch_item so its backward runs too.
            let mut loss = None;
            let mut items_f = Vec::new();
            for j in 0..k {
                let row = gf.batch_item(panel, j);
                items_f.push(row);
                let s = gf.sum(row);
                loss = Some(match loss {
                    None => s,
                    Some(acc) => gf.add(acc, s),
                });
            }
            gf.backward(loss.unwrap(), &mut store_f);

            let mut gc = Graph::new();
            let (wv, bv) = (gc.param(&store_c, w), gc.param(&store_c, b));
            let mut loss = None;
            let mut items_c = Vec::new();
            for &x in &xs_ids {
                let xv = gc.param(&store_c, x);
                let y = gc.affine(wv, xv, bv);
                items_c.push(y);
                let s = gc.sum(y);
                loss = Some(match loss {
                    None => s,
                    Some(acc) => gc.add(acc, s),
                });
            }
            gc.backward(loss.unwrap(), &mut store_c);

            for j in 0..k {
                assert_eq!(
                    bits(gf.value(items_f[j])),
                    bits(gc.value(items_c[j])),
                    "row {j} forward (k={k} m={m} n={n})"
                );
            }
            for p in [w, b].into_iter().chain(xs_ids) {
                assert_eq!(
                    bits(&store_f.get(p).grad),
                    bits(&store_c.get(p).grad),
                    "grad (k={k} m={m} n={n})"
                );
            }
        }
    }

    #[test]
    fn batched_attention_panel_matches_per_key_chain_bitwise() {
        // tanh-on-panel + row_dots vs the per-key
        // tanh/dot/stack_scalars chain.
        let (k, n) = (3, 5);
        let mut seed = 0xa77e;
        let mut store_f = ParamStore::new();
        let v = store_f.add("v", Tensor::vector(lcg(&mut seed, n)));
        let key_ids: Vec<_> = (0..k)
            .map(|j| store_f.add(format!("k{j}"), Tensor::vector(lcg(&mut seed, n))))
            .collect();
        let mut store_c = store_f.clone();
        let probe = lcg(&mut seed, k);

        let mut gf = Graph::new();
        let vv = gf.param(&store_f, v);
        let keys: Vec<_> = key_ids.iter().map(|&p| gf.param(&store_f, p)).collect();
        let packed = gf.pack(&keys);
        let panel = gf.tanh(packed);
        let scores_f = gf.row_dots(panel, vv);
        let pf = gf.input(Tensor::vector(probe.clone()));
        let lf = gf.dot(scores_f, pf);
        gf.backward(lf, &mut store_f);

        let mut gc = Graph::new();
        let vv = gc.param(&store_c, v);
        let mut dots = Vec::new();
        for &p in &key_ids {
            let kv = gc.param(&store_c, p);
            let t = gc.tanh(kv);
            dots.push(gc.dot(t, vv));
        }
        let scores_c = gc.stack_scalars(&dots);
        let pc = gc.input(Tensor::vector(probe));
        let lc = gc.dot(scores_c, pc);
        gc.backward(lc, &mut store_c);

        assert_eq!(bits(gf.value(scores_f)), bits(gc.value(scores_c)), "scores");
        for p in std::iter::once(v).chain(key_ids) {
            assert_eq!(bits(&store_f.get(p).grad), bits(&store_c.get(p).grad));
        }
    }
}
