//! Dense `f32` tensors (vectors and matrices).
//!
//! The reproduction's models only ever need rank-1 and rank-2 tensors
//! (hidden states, weight matrices), so [`Tensor`] is a row-major 2-D
//! array; vectors are `n × 1`. The hot kernels ([`Tensor::matvec`] and
//! the fused [`Tensor::affine`]) are blocked and unrolled — four rows at
//! a time, four independent column accumulators per row — but remain
//! single-threaded and fully deterministic: for a given shape the
//! floating-point reduction order is fixed, so repeated runs (and the
//! data-parallel training engine in `par`, which only parallelizes
//! *across* examples) are bitwise reproducible.

use std::fmt;

/// A row-major 2-D tensor of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// A `rows × cols` tensor of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Tensor {
        Tensor { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// A `rows × cols` tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Tensor {
        Tensor { rows, cols, data: vec![value; rows * cols] }
    }

    /// Builds a tensor from row-major data.
    ///
    /// # Panics
    ///
    /// Panics when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Tensor {
        assert_eq!(data.len(), rows * cols, "shape ({rows}×{cols}) does not match data length");
        Tensor { rows, cols, data }
    }

    /// A column vector from data.
    pub fn vector(data: Vec<f32>) -> Tensor {
        let rows = data.len();
        Tensor { rows, cols: 1, data }
    }

    /// A 1×1 tensor.
    pub fn scalar(v: f32) -> Tensor {
        Tensor { rows: 1, cols: 1, data: vec![v] }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// True for `n × 1` tensors.
    pub fn is_vector(&self) -> bool {
        self.cols == 1
    }

    /// The underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, yielding its backing buffer (so the storage
    /// can be recycled through a [`crate::BufferPool`]).
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn at(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of ({}, {})", self.rows, self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// The single element of a 1×1 tensor.
    ///
    /// # Panics
    ///
    /// Panics when the tensor is not 1×1.
    pub fn item(&self) -> f32 {
        assert_eq!(self.data.len(), 1, "item() on non-scalar tensor");
        self.data[0]
    }

    /// Matrix–vector product `self · x` (self is `m × n`, `x` is `n × 1`).
    ///
    /// Uses the blocked kernel: rows are processed four at a time so each
    /// load of `x[c]` feeds four independent accumulators.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn matvec(&self, x: &Tensor) -> Tensor {
        assert!(x.is_vector(), "matvec rhs must be a vector");
        assert_eq!(self.cols, x.rows, "matvec shape mismatch {}×{} · {}", self.rows, self.cols, x.rows);
        let mut out = vec![0.0f32; self.rows];
        matvec_blocked(&self.data, self.rows, self.cols, &x.data, None, &mut out);
        Tensor::vector(out)
    }

    /// [`Tensor::matvec`] writing into a caller-provided buffer (which may
    /// hold stale contents — every element is overwritten).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or when `out.len() != rows`.
    pub fn matvec_into(&self, x: &Tensor, out: &mut [f32]) {
        assert!(x.is_vector(), "matvec rhs must be a vector");
        assert_eq!(self.cols, x.rows, "matvec shape mismatch {}×{} · {}", self.rows, self.cols, x.rows);
        assert_eq!(out.len(), self.rows, "matvec output length mismatch");
        matvec_blocked(&self.data, self.rows, self.cols, &x.data, None, out);
    }

    /// Fused affine map `self · x + b` in one pass (self is `m × n`, `x`
    /// is `n × 1`, `b` is `m × 1`). Equivalent to `matvec` followed by an
    /// add, without materialising the intermediate product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn affine(&self, x: &Tensor, b: &Tensor) -> Tensor {
        assert!(x.is_vector(), "affine rhs must be a vector");
        assert!(b.is_vector(), "affine bias must be a vector");
        assert_eq!(self.cols, x.rows, "affine shape mismatch {}×{} · {}", self.rows, self.cols, x.rows);
        assert_eq!(self.rows, b.rows, "affine bias length mismatch {} vs {}", self.rows, b.rows);
        let mut out = vec![0.0f32; self.rows];
        matvec_blocked(&self.data, self.rows, self.cols, &x.data, Some(&b.data), &mut out);
        Tensor::vector(out)
    }

    /// [`Tensor::affine`] writing into a caller-provided buffer (which may
    /// hold stale contents — every element is overwritten).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or when `out.len() != rows`.
    pub fn affine_into(&self, x: &Tensor, b: &Tensor, out: &mut [f32]) {
        assert!(x.is_vector(), "affine rhs must be a vector");
        assert!(b.is_vector(), "affine bias must be a vector");
        assert_eq!(self.cols, x.rows, "affine shape mismatch {}×{} · {}", self.rows, self.cols, x.rows);
        assert_eq!(self.rows, b.rows, "affine bias length mismatch {} vs {}", self.rows, b.rows);
        assert_eq!(out.len(), self.rows, "affine output length mismatch");
        matvec_blocked(&self.data, self.rows, self.cols, &x.data, Some(&b.data), out);
    }

    /// Transposed matrix–vector product `selfᵀ · g`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn matvec_t(&self, g: &Tensor) -> Tensor {
        assert!(g.is_vector());
        assert_eq!(self.rows, g.rows, "matvec_t shape mismatch");
        let mut out = vec![0.0f32; self.cols];
        self.matvec_t_accumulate(g, &mut out);
        Tensor::vector(out)
    }

    /// [`Tensor::matvec_t`] writing into a caller-provided buffer (which
    /// may hold stale contents — it is zeroed first, preserving the exact
    /// accumulation order of the allocating variant).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or when `out.len() != cols`.
    pub fn matvec_t_into(&self, g: &Tensor, out: &mut [f32]) {
        assert!(g.is_vector());
        assert_eq!(self.rows, g.rows, "matvec_t shape mismatch");
        assert_eq!(out.len(), self.cols, "matvec_t output length mismatch");
        out.iter_mut().for_each(|v| *v = 0.0);
        self.matvec_t_accumulate(g, out);
    }

    fn matvec_t_accumulate(&self, g: &Tensor, out: &mut [f32]) {
        for r in 0..self.rows {
            let gv = g.data[r];
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (o, w) in out.iter_mut().zip(row) {
                *o += w * gv;
            }
        }
    }

    /// Accumulates `alpha * other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.rows, other.rows, "axpy shape mismatch");
        assert_eq!(self.cols, other.cols, "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Accumulates the outer product `alpha * g ⊗ x` into `self`
    /// (`self` is `m × n`, `g` is `m × 1`, `x` is `n × 1`).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_outer(&mut self, alpha: f32, g: &Tensor, x: &Tensor) {
        assert_eq!(self.rows, g.rows, "add_outer shape mismatch");
        assert_eq!(self.cols, x.rows, "add_outer shape mismatch");
        for r in 0..self.rows {
            let gv = alpha * g.data[r];
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (w, v) in row.iter_mut().zip(&x.data) {
                *w += gv * v;
            }
        }
    }

    /// Dot product of two equal-length vectors.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.data.len(), other.data.len(), "dot length mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum()
    }

    /// Batch-major fused GEMM: `self · xsᵀ (+ b)`, one call per layer for a
    /// whole minibatch. `xs` packs `k` input vectors as its rows (`k × n`);
    /// the result packs the `k` outputs as rows (`k × m`). Row `j` of the
    /// result is bitwise identical to `self.affine(x_j, b)` — see
    /// [`gemm_batch`] for the reduction-order contract.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn affine_batch(&self, xs: &Tensor, bias: Option<&Tensor>) -> Tensor {
        assert_eq!(self.cols, xs.cols, "affine_batch shape mismatch {}×{} · ({}×{})ᵀ", self.rows, self.cols, xs.rows, xs.cols);
        if let Some(b) = bias {
            assert!(b.is_vector(), "affine_batch bias must be a vector");
            assert_eq!(self.rows, b.rows, "affine_batch bias length mismatch");
        }
        let k = xs.rows;
        let mut out = vec![0.0f32; k * self.rows];
        gemm_batch(&self.data, self.rows, self.cols, &xs.data, k, bias.map(|b| b.data.as_slice()), &mut out);
        Tensor::from_vec(k, self.rows, out)
    }

    /// Fills the tensor with zeros.
    pub fn zero_(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

/// Shared blocked kernel behind [`Tensor::matvec`] and [`Tensor::affine`]:
/// `out[r] = bias[r] + Σ_c w[r,c] · x[c]` (bias treated as zero when absent).
///
/// Rows are processed in blocks of four so each load of `x[c]` feeds four
/// independent accumulators; leftover rows use a 4-way column-unrolled dot
/// product. The floating-point reduction order is a pure function of the
/// shape, so results are reproducible run-to-run and thread-count has no
/// way to influence them (the kernel itself is single-threaded).
fn matvec_blocked(
    w: &[f32],
    rows: usize,
    cols: usize,
    x: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
) {
    const ROW_BLOCK: usize = 4;
    let bias_at = |r: usize| bias.map_or(0.0, |b| b[r]);
    let mut r = 0;
    while r + ROW_BLOCK <= rows {
        let r0 = &w[r * cols..(r + 1) * cols];
        let r1 = &w[(r + 1) * cols..(r + 2) * cols];
        let r2 = &w[(r + 2) * cols..(r + 3) * cols];
        let r3 = &w[(r + 3) * cols..(r + 4) * cols];
        let (mut a0, mut a1, mut a2, mut a3) =
            (bias_at(r), bias_at(r + 1), bias_at(r + 2), bias_at(r + 3));
        for c in 0..cols {
            let xv = x[c];
            a0 += r0[c] * xv;
            a1 += r1[c] * xv;
            a2 += r2[c] * xv;
            a3 += r3[c] * xv;
        }
        out[r] = a0;
        out[r + 1] = a1;
        out[r + 2] = a2;
        out[r + 3] = a3;
        r += ROW_BLOCK;
    }
    while r < rows {
        out[r] = bias_at(r) + dot_unrolled(&w[r * cols..(r + 1) * cols], x);
        r += 1;
    }
}

/// 4-way unrolled dot product with independent accumulators and a serial
/// tail; the reduction order depends only on the vector length.
fn dot_unrolled(row: &[f32], x: &[f32]) -> f32 {
    let n = row.len();
    let quads = n / 4 * 4;
    let (mut a0, mut a1, mut a2, mut a3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    let mut c = 0;
    while c < quads {
        a0 += row[c] * x[c];
        a1 += row[c + 1] * x[c + 1];
        a2 += row[c + 2] * x[c + 2];
        a3 += row[c + 3] * x[c + 3];
        c += 4;
    }
    let mut tail = 0.0f32;
    while c < n {
        tail += row[c] * x[c];
        c += 1;
    }
    (a0 + a1) + (a2 + a3) + tail
}

/// Packed batch-major GEMM kernel: for each of the `k` input rows of `xs`
/// (`k × cols`, row-major), `out[j·rows + r] = bias[r] + Σ_c w[r,c] · xs[j,c]`.
///
/// The weight panel is streamed once per four-row block and reused across
/// every batch item while it is hot in L1, instead of re-reading it per
/// program the way per-example matvecs do. The per-output reduction order
/// (ascending `c`, four independent row accumulators, `dot_unrolled` for
/// leftover rows) is exactly [`Tensor::affine`]'s, so each output row is
/// bitwise identical to the corresponding per-program matvec — this is the
/// equivalence the kernel proptests pin down.
///
/// The inner loops are written tile-shaped (fixed trip counts, independent
/// accumulators, contiguous loads) so LLVM autovectorizes them; the
/// `throughput_kernels` bench asserts a GFLOP/s floor so a codegen
/// regression to scalar code fails CI.
pub fn gemm_batch(
    w: &[f32],
    rows: usize,
    cols: usize,
    xs: &[f32],
    k: usize,
    bias: Option<&[f32]>,
    out: &mut [f32],
) {
    const ROW_BLOCK: usize = 4;
    assert_eq!(w.len(), rows * cols, "gemm_batch weight length mismatch");
    assert_eq!(xs.len(), k * cols, "gemm_batch input panel length mismatch");
    assert_eq!(out.len(), k * rows, "gemm_batch output panel length mismatch");
    let bias_at = |r: usize| bias.map_or(0.0, |b| b[r]);
    let mut r = 0;
    while r + ROW_BLOCK <= rows {
        let r0 = &w[r * cols..(r + 1) * cols];
        let r1 = &w[(r + 1) * cols..(r + 2) * cols];
        let r2 = &w[(r + 2) * cols..(r + 3) * cols];
        let r3 = &w[(r + 3) * cols..(r + 4) * cols];
        let (b0, b1, b2, b3) = (bias_at(r), bias_at(r + 1), bias_at(r + 2), bias_at(r + 3));
        for j in 0..k {
            let x = &xs[j * cols..(j + 1) * cols];
            let (mut a0, mut a1, mut a2, mut a3) = (b0, b1, b2, b3);
            for c in 0..cols {
                let xv = x[c];
                a0 += r0[c] * xv;
                a1 += r1[c] * xv;
                a2 += r2[c] * xv;
                a3 += r3[c] * xv;
            }
            let o = &mut out[j * rows + r..j * rows + r + ROW_BLOCK];
            o[0] = a0;
            o[1] = a1;
            o[2] = a2;
            o[3] = a3;
        }
        r += ROW_BLOCK;
    }
    while r < rows {
        let row = &w[r * cols..(r + 1) * cols];
        let b = bias_at(r);
        for j in 0..k {
            out[j * rows + r] = b + dot_unrolled(row, &xs[j * cols..(j + 1) * cols]);
        }
        r += 1;
    }
}

/// The embedding-index search kernel: similarity scores of `k` query
/// vectors against a packed corpus matrix. `out[j * rows + r]` is the dot
/// product of query `j` with corpus row `r` — the cosine similarity when
/// both sides are L2-normalized (the `EmbeddingStore` invariant).
///
/// Every (query, row) pair is reduced by the same [`dot_unrolled`], so a
/// score's bits depend only on the two vectors — never on where the row
/// sits in the corpus or the query in the batch. (Routing this through
/// [`gemm_batch`] with the corpus as the weight panel would not be: rows
/// inside a four-row block and leftover rows reduce in different orders.)
///
/// # Panics
///
/// Panics on mismatched slice lengths (programming errors, not data
/// errors — callers validate dimensions before reaching the kernel).
pub fn cosine_scores(
    matrix: &[f32],
    rows: usize,
    dim: usize,
    queries: &[f32],
    k: usize,
    out: &mut [f32],
) {
    assert_eq!(matrix.len(), rows * dim, "cosine_scores corpus length mismatch");
    assert_eq!(queries.len(), k * dim, "cosine_scores query length mismatch");
    assert_eq!(out.len(), k * rows, "cosine_scores output length mismatch");
    for j in 0..k {
        let q = &queries[j * dim..(j + 1) * dim];
        for r in 0..rows {
            out[j * rows + r] = dot_unrolled(&matrix[r * dim..(r + 1) * dim], q);
        }
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}×{})[", self.rows, self.cols)?;
        let n = self.data.len().min(8);
        for (i, v) in self.data[..n].iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        if self.data.len() > n {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_scores_are_per_row_dot_products() {
        // 3 corpus rows × dim 2, 2 queries; all hand-checkable.
        let matrix = [1.0, 0.0, 0.0, 1.0, 0.6, 0.8];
        let queries = [1.0, 0.0, 0.0, -1.0];
        let mut out = [0.0f32; 6];
        cosine_scores(&matrix, 3, 2, &queries, 2, &mut out);
        assert_eq!(&out[..3], &[1.0, 0.0, 0.6]);
        assert_eq!(&out[3..], &[0.0, -1.0, -0.8]);
    }

    #[test]
    fn cosine_scores_do_not_depend_on_row_or_query_position() {
        // 6 rows: positions 0..4 form a full four-row block and 4..6 the
        // leftover tail, so rotating the corpus moves every row across
        // the block/tail boundary. dim 9 exercises the unrolled tail.
        let (rows, dim, k) = (6, 9, 5);
        let matrix = pseudo(rows, dim, 7).data().to_vec();
        let queries = pseudo(k, dim, 8).data().to_vec();
        let mut want = vec![0.0f32; k * rows];
        cosine_scores(&matrix, rows, dim, &queries, k, &mut want);
        for shift in 1..rows {
            let perm: Vec<usize> = (0..rows).map(|r| (r + shift) % rows).collect();
            let permuted: Vec<f32> =
                perm.iter().flat_map(|&r| matrix[r * dim..(r + 1) * dim].to_vec()).collect();
            let qperm: Vec<usize> = (0..k).map(|j| (j + shift) % k).collect();
            let pq: Vec<f32> =
                qperm.iter().flat_map(|&j| queries[j * dim..(j + 1) * dim].to_vec()).collect();
            let mut got = vec![0.0f32; k * rows];
            cosine_scores(&permuted, rows, dim, &pq, k, &mut got);
            for (jp, &j) in qperm.iter().enumerate() {
                for (rp, &r) in perm.iter().enumerate() {
                    assert_eq!(
                        got[jp * rows + rp].to_bits(),
                        want[j * rows + r].to_bits(),
                        "shift {shift}: query {j} row {r} changed bits"
                    );
                }
            }
        }
    }

    #[test]
    fn matvec_matches_manual() {
        let w = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let x = Tensor::vector(vec![1.0, 0.0, -1.0]);
        let y = w.matvec(&x);
        assert_eq!(y.data(), &[-2.0, -2.0]);
    }

    #[test]
    fn matvec_t_is_transpose_product() {
        let w = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = Tensor::vector(vec![1.0, 2.0]);
        let y = w.matvec_t(&g);
        assert_eq!(y.data(), &[9.0, 12.0, 15.0]);
    }

    #[test]
    fn outer_product_accumulates() {
        let mut w = Tensor::zeros(2, 2);
        let g = Tensor::vector(vec![1.0, 2.0]);
        let x = Tensor::vector(vec![3.0, 4.0]);
        w.add_outer(1.0, &g, &x);
        assert_eq!(w.data(), &[3.0, 4.0, 6.0, 8.0]);
        w.add_outer(-1.0, &g, &x);
        assert_eq!(w.data(), &[0.0; 4]);
    }

    /// Textbook row-by-row accumulation, the reference the blocked kernel
    /// is checked against.
    fn matvec_naive(w: &Tensor, x: &Tensor, bias: Option<&Tensor>) -> Vec<f32> {
        (0..w.rows())
            .map(|r| {
                let mut acc = bias.map_or(0.0, |b| b.data()[r]);
                for c in 0..w.cols() {
                    acc += w.at(r, c) * x.data()[c];
                }
                acc
            })
            .collect()
    }

    fn pseudo(rows: usize, cols: usize, seed: u32) -> Tensor {
        // Small LCG so values are varied but reproducible without deps.
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(12345);
        let data = (0..rows * cols)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                (state >> 8) as f32 / (1u32 << 24) as f32 - 0.5
            })
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    fn assert_close(got: &[f32], want: &[f32]) {
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let tol = 1e-5 * (1.0 + w.abs());
            assert!((g - w).abs() <= tol, "element {i}: {g} vs {w}");
        }
    }

    #[test]
    fn blocked_matvec_matches_naive_on_odd_shapes() {
        // 1×1, 1×n, n×1, and sizes straddling the 4-row / 4-col blocks.
        for &(rows, cols) in
            &[(1, 1), (1, 9), (9, 1), (3, 3), (4, 4), (5, 7), (7, 5), (8, 13), (13, 8), (17, 17)]
        {
            let w = pseudo(rows, cols, (rows * 31 + cols) as u32);
            let x = pseudo(cols, 1, cols as u32 + 1);
            assert_close(w.matvec(&x).data(), &matvec_naive(&w, &x, None));
        }
    }

    #[test]
    fn fused_affine_matches_naive_on_odd_shapes() {
        for &(rows, cols) in &[(1, 1), (1, 6), (6, 1), (4, 4), (5, 5), (6, 10), (11, 3), (19, 7)] {
            let w = pseudo(rows, cols, (rows * 17 + cols) as u32);
            let x = pseudo(cols, 1, rows as u32);
            let b = pseudo(rows, 1, cols as u32 + 99);
            assert_close(w.affine(&x, &b).data(), &matvec_naive(&w, &x, Some(&b)));
        }
    }

    #[test]
    fn affine_equals_matvec_plus_bias() {
        let w = pseudo(6, 5, 1);
        let x = pseudo(5, 1, 2);
        let b = pseudo(6, 1, 3);
        let mut expect = w.matvec(&x);
        expect.axpy(1.0, &b);
        assert_close(w.affine(&x, &b).data(), expect.data());
    }

    #[test]
    fn matvec_is_reproducible_bitwise() {
        let w = pseudo(13, 11, 7);
        let x = pseudo(11, 1, 8);
        let a: Vec<u32> = w.matvec(&x).data().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = w.matvec(&x).data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "bias length mismatch")]
    fn affine_bias_mismatch_panics() {
        let w = Tensor::zeros(3, 2);
        let x = Tensor::vector(vec![1.0, 2.0]);
        let b = Tensor::vector(vec![1.0, 2.0]);
        let _ = w.affine(&x, &b);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let w = Tensor::zeros(2, 3);
        let x = Tensor::vector(vec![1.0, 2.0]);
        let _ = w.matvec(&x);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(3.5).item(), 3.5);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Tensor::zeros(1, 1)).is_empty());
    }

    #[test]
    fn gemm_batch_rows_are_bitwise_identical_to_affine() {
        // Odd shapes on purpose: leftover rows (non-multiple of the 4-row
        // block), 1×N, N×1, and single-item panels.
        for (k, m, n) in [(3, 6, 5), (5, 7, 3), (1, 4, 4), (4, 1, 6), (2, 5, 1)] {
            let w = pseudo(m, n, (k * 100 + m * 10 + n) as u32);
            let b = pseudo(m, 1, 7 + k as u32);
            let xs = pseudo(k, n, 31 + m as u32);
            for bias in [Some(&b), None] {
                let panel = w.affine_batch(&xs, bias);
                assert_eq!(panel.rows(), k);
                assert_eq!(panel.cols(), m);
                for j in 0..k {
                    let x = Tensor::vector(xs.data()[j * n..(j + 1) * n].to_vec());
                    let want = match bias {
                        Some(b) => w.affine(&x, b),
                        None => w.matvec(&x),
                    };
                    let got = &panel.data()[j * m..(j + 1) * m];
                    assert_eq!(
                        got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        want.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "row {j} (k={k} m={m} n={n} bias={})",
                        bias.is_some()
                    );
                }
            }
        }
    }
}
