//! Property tests for checkpoint serialization: any parameter store —
//! including empty stores, empty tensors, and 0×N shapes — survives the
//! binary round trip bitwise.

use proptest::collection::vec;
use proptest::prelude::*;
use tensor::{load_store_binary, save_store_binary, ParamStore, Tensor};

/// Bitwise fingerprint of a store: names, shapes, and raw value bits.
fn bits(store: &ParamStore) -> Vec<(String, usize, usize, Vec<u32>)> {
    store
        .iter()
        .map(|p| {
            (
                p.name.clone(),
                p.value.rows(),
                p.value.cols(),
                p.value.data().iter().map(|v| v.to_bits()).collect(),
            )
        })
        .collect()
}

/// Builds a store from drawn shapes/values, giving every parameter a
/// distinct (occasionally awkward) name.
fn store_of(shapes: &[(usize, usize)], raw: &[f32]) -> ParamStore {
    let mut store = ParamStore::new();
    let mut taken = 0usize;
    for (i, &(rows, cols)) in shapes.iter().enumerate() {
        let len = rows * cols;
        let mut values: Vec<f32> = raw.iter().cycle().skip(taken).take(len).copied().collect();
        values.resize(len, 0.0);
        taken += len;
        let name = match i % 4 {
            0 => format!("layer{i}.w"),
            1 => format!("odd name {i}"),
            2 => format!("pct%{i}"),
            _ => format!("b{i}"),
        };
        store.add(name, Tensor::from_vec(rows, cols, values));
    }
    store
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn binary_roundtrip_is_bitwise_identity(
        rows in proptest::collection::vec(0usize..5, 0..=6),
        cols in proptest::collection::vec(0usize..5, 0..=6),
        values in vec(-1.0e9f32..=1.0e9, 0..=40),
        scale in proptest::sample::select(vec![1.0f32, 1.0e-30, 1.0e30, f32::MIN_POSITIVE]),
    ) {
        let shapes: Vec<(usize, usize)> =
            rows.iter().zip(&cols).map(|(&r, &c)| (r, c)).collect();
        let scaled: Vec<f32> = values.iter().map(|v| v * scale).collect();
        let store = store_of(&shapes, &scaled);

        let blob = save_store_binary(&store);
        let loaded = load_store_binary(&blob).expect("own output must load");
        prop_assert_eq!(bits(&store), bits(&loaded));
    }
}
