//! Integration test: trained weights survive a save/load round trip with
//! bit-identical predictions (checkpointing across the tensor and liger
//! crates).

use liger::{
    encode_program, program_into_vocab, EncodeOptions, LigerConfig, LigerNamer, NameSample,
    OutVocab, TrainConfig, Vocab,
};
use rand::SeedableRng;

#[test]
fn saved_weights_reproduce_predictions() {
    let program = minilang::parse(
        "fn sumArray(a: array<int>) -> int {
            let s: int = 0;
            for (let i: int = 0; i < len(a); i += 1) { s += a[i]; }
            return s;
        }",
    )
    .unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let (groups, _) = randgen::generate_grouped(
        &program,
        &randgen::GenConfig { target_paths: 4, concrete_per_path: 2, ..Default::default() },
        &mut rng,
    );
    let blended: Vec<trace::BlendedTrace> =
        groups.iter().filter_map(|g| g.blend(2).ok()).collect();

    let opts = EncodeOptions::default();
    let mut vocab = Vocab::new();
    program_into_vocab(&program, &blended, &mut vocab, &opts);
    let mut out_vocab = OutVocab::new();
    out_vocab.add("sum");
    out_vocab.add("array");
    let encoded = encode_program(&program, &blended, &vocab, &opts);

    // Train briefly.
    let mut store = tensor::ParamStore::new();
    let cfg = LigerConfig { hidden: 8, attn: 8, ..LigerConfig::default() };
    let namer = LigerNamer::new(&mut store, vocab.len(), out_vocab.len(), cfg, &mut rng);
    let samples = vec![NameSample {
        program: encoded.clone(),
        target: out_vocab.encode_name("sumArray"),
    }];
    liger::train_namer(
        &namer,
        &mut store,
        &samples,
        &TrainConfig { epochs: 15, lr: 0.05, batch_size: 1 },
        &mut rng,
    );
    let before = namer.predict(&store, &encoded);

    // Round-trip the weights through the binary format.
    let blob = tensor::save_store_binary(&store);
    let loaded = tensor::load_store_binary(&blob).unwrap();
    assert_eq!(loaded.len(), store.len());
    assert_eq!(loaded.num_scalars(), store.num_scalars());

    // The same architecture over the loaded store predicts identically.
    let after = namer.predict(&loaded, &encoded);
    assert_eq!(before, after, "loaded weights changed the prediction");

    // Values really are bit-identical.
    for i in 0..store.len() {
        let id = tensor::ParamId(i);
        assert_eq!(store.get(id).value, loaded.get(id).value, "param {i} drifted");
        assert_eq!(store.get(id).name, loaded.get(id).name);
    }

    // And the file-level helpers preserve predictions too.
    let path = std::env::temp_dir().join(format!("liger_ckpt_test_{}.lgr", std::process::id()));
    store.save_to_path(&path).unwrap();
    let from_file = tensor::ParamStore::load_from_path(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(namer.predict(&from_file, &encoded), before);

    // A full model bundle (config + vocabularies + parameters in one
    // file) reinstantiates to the same predictions — the checkpoint
    // format `liger-serve` consumes.
    let bundle = liger::ModelBundle::for_namer(cfg, vocab, out_vocab, store);
    let reparsed = liger::ModelBundle::from_bytes(&bundle.to_bytes()).unwrap();
    let (task, task_store) = reparsed.instantiate().unwrap();
    let liger::LigerTask::Namer { namer: rebuilt, out } = &task else {
        panic!("bundle must reinstantiate as a namer");
    };
    assert_eq!(rebuilt.predict(&task_store, &encoded), before);
    assert_eq!(
        out.decode_name(&before),
        vec!["sum".to_string(), "array".to_string()],
        "trained quickstart-style namer should emit the target name"
    );
}
