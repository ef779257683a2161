//! Property-based tests over the batch-major fused GEMM path.
//!
//! The batched kernels' contract is *bitwise* equivalence: fusing the k
//! per-program `affine` nodes of a minibatch into one `affine_batch`
//! panel must change neither the forward values nor the gradients, for
//! any shape — including the degenerate ones (1×N, N×1, k=1) and
//! non-multiple-of-tile row counts where the 4-row blocked kernel takes
//! its scalar-tail path.

use proptest::prelude::*;
use tensor::{Graph, ParamStore, Tensor};

/// Bit patterns of one tensor's values.
type Bits = Vec<u32>;
/// (per-output forward bits, loss bits, per-parameter gradient bits).
type RunBits = (Vec<Bits>, u32, Vec<(tensor::ParamId, Bits)>);

/// Deterministic value fill: xorshift over a seed, mapped into (-1, 1).
fn fill(seed: u64, n: usize) -> Vec<f32> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 40) as f32 / (1u64 << 24) as f32 - 0.5
        })
        .collect()
}

/// Builds the per-program reference graph (`k` separate `affine` nodes)
/// or the batch-major graph (`pack` → `affine_batch` → `batch_item`),
/// reduces both through the same probe-dot loss, and returns the forward
/// bits of every output plus the loss and parameter gradients.
fn run_affine(
    store: &ParamStore,
    w: tensor::ParamId,
    b: tensor::ParamId,
    xs: &[Vec<f32>],
    probes: &[Vec<f32>],
    batched: bool,
) -> RunBits {
    let mut g = Graph::new();
    let wv = g.param(store, w);
    let bv = g.param(store, b);
    let x_ids: Vec<_> = xs.iter().map(|x| g.input(Tensor::vector(x.clone()))).collect();
    let outs: Vec<_> = if batched {
        let xp = g.pack(&x_ids);
        let panel = g.affine_batch(wv, xp, Some(bv));
        (0..xs.len()).map(|j| g.batch_item(panel, j)).collect()
    } else {
        x_ids.iter().map(|&x| g.affine(wv, x, bv)).collect()
    };
    let scores: Vec<_> = outs
        .iter()
        .zip(probes)
        .map(|(&o, p)| {
            let pv = g.input(Tensor::vector(p.clone()));
            g.dot(o, pv)
        })
        .collect();
    let stacked = g.stack_scalars(&scores);
    let loss = g.sum(stacked);
    let grads = g.backward_into(loss, store);
    let out_bits: Vec<Vec<u32>> = outs
        .iter()
        .map(|&o| g.value(o).data().iter().map(|v| v.to_bits()).collect())
        .collect();
    let loss_bits = g.value(loss).item().to_bits();
    let grad_bits: Vec<(tensor::ParamId, Vec<u32>)> = grads
        .iter()
        .map(|(id, t)| (id, t.data().iter().map(|v| v.to_bits()).collect()))
        .collect();
    (out_bits, loss_bits, grad_bits)
}

/// One shape's full equivalence check, shared by the proptest and the
/// pinned degenerate-shape test.
fn assert_batch_matches_per_program(rows: usize, cols: usize, k: usize, seed: u64) {
    let mut store = ParamStore::new();
    let w = store.add("w", Tensor::from_vec(rows, cols, fill(seed, rows * cols)));
    let b = store.add("b", Tensor::vector(fill(seed ^ 0xb1a5, rows)));
    let xs: Vec<Vec<f32>> = (0..k).map(|j| fill(seed.wrapping_add(j as u64 * 7 + 1), cols)).collect();
    let probes: Vec<Vec<f32>> =
        (0..k).map(|j| fill(seed.wrapping_add(j as u64 * 13 + 5), rows)).collect();

    let (ref_outs, ref_loss, ref_grads) = run_affine(&store, w, b, &xs, &probes, false);
    let (bat_outs, bat_loss, bat_grads) = run_affine(&store, w, b, &xs, &probes, true);

    assert_eq!(ref_outs, bat_outs, "forward diverged at {rows}x{cols}, k={k}");
    assert_eq!(ref_loss, bat_loss, "loss diverged at {rows}x{cols}, k={k}");
    assert_eq!(ref_grads, bat_grads, "gradients diverged at {rows}x{cols}, k={k}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Batch-major forward AND backward are bitwise identical to the
    /// per-program path for arbitrary shapes — the range includes 1×N,
    /// N×1, k=1, and every non-multiple-of-4 row count (scalar tail of
    /// the blocked kernel).
    #[test]
    fn batched_affine_is_bitwise_identical_to_per_program(
        rows in 1usize..=9,
        cols in 1usize..=9,
        k in 1usize..=5,
        seed in 0u64..1_000_000,
    ) {
        assert_batch_matches_per_program(rows, cols, k, seed);
    }
}

/// The exact degenerate shapes the issue calls out, pinned so a shrink in
/// the proptest ranges can never silently drop them.
#[test]
fn degenerate_shapes_stay_bitwise_identical() {
    for &(rows, cols, k) in &[(1, 7, 3), (7, 1, 2), (1, 1, 1), (4, 4, 4), (5, 3, 1), (9, 6, 5)] {
        assert_batch_matches_per_program(rows, cols, k, 0xC0FFEE);
    }
}
