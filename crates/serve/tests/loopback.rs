//! End-to-end loopback tests: a real TCP server on an ephemeral port,
//! concurrent pipelining clients, and the two contracts the service
//! promises — served embeddings and names are **bitwise identical** to
//! the training tape's forward pass, and graceful shutdown drains every
//! accepted request.

use liger::{
    train_namer, EncBlended, EncState, EncStep, EncTree, EncVar, EncodedProgram, LigerConfig,
    LigerNamer, LigerTask, ModelBundle, NameSample, OutVocab, TrainConfig, Vocab,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serve::json::Json;
use serve::protocol::{embedding_from_json, infer_request, lint_request, InferInput, InferKind};
use serve::server::{serve, Client, ServerConfig};

/// A small synthetic program whose content is parameterized by `t`.
fn prog(t: usize) -> EncodedProgram {
    EncodedProgram::from_traces(vec![EncBlended {
        steps: vec![
            EncStep {
                tree: EncTree {
                    token: t,
                    children: vec![EncTree { token: t + 1, children: vec![] }],
                },
                states: vec![
                    EncState { vars: vec![EncVar::Primitive(t + 2)] },
                    EncState { vars: vec![EncVar::Object(vec![t, t + 1])] },
                ],
            },
            EncStep {
                tree: EncTree { token: t + 1, children: vec![] },
                states: vec![EncState { vars: vec![EncVar::Primitive(t)] }],
            },
        ],
    }])
}

/// Trains a tiny namer over the synthetic programs and packs it.
fn trained_bundle() -> ModelBundle {
    let mut vocab = Vocab::new();
    for i in 0..12 {
        vocab.add(&format!("tok{i}"));
    }
    let mut out = OutVocab::new();
    for name in ["find", "max", "sum", "item"] {
        out.add(name);
    }
    let cfg = LigerConfig { hidden: 8, attn: 8, ..LigerConfig::default() };
    let mut store = tensor::ParamStore::new();
    let mut rng = StdRng::seed_from_u64(21);
    let namer = LigerNamer::new(&mut store, vocab.len(), out.len(), cfg, &mut rng);
    let samples: Vec<NameSample> = (1..4)
        .map(|t| NameSample { program: prog(t), target: vec![3 + (t - 1), liger::EOS] })
        .collect();
    train_namer(
        &namer,
        &mut store,
        &samples,
        &TrainConfig { epochs: 4, lr: 0.02, batch_size: 2 },
        &mut rng,
    );
    ModelBundle::for_namer(cfg, vocab, out, store)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The training tape's program embeddings, as bits: the reference every
/// served embedding must match.
fn tape_embeddings(bundle: &ModelBundle, programs: &[EncodedProgram]) -> Vec<Vec<u32>> {
    let (task, store) = bundle.instantiate().unwrap();
    programs
        .iter()
        .map(|p| {
            let mut g = tensor::Graph::new();
            let out = task.model().encode(&mut g, &store, p);
            bits(g.value(out.program).data())
        })
        .collect()
}

#[test]
fn concurrent_clients_get_bitwise_identical_embeddings_and_batching_kicks_in() {
    let bundle = trained_bundle();

    // Offline reference: the training tape.
    let programs: Vec<EncodedProgram> = (1..6).map(prog).collect();
    let reference = tape_embeddings(&bundle, &programs);

    let handle = serve(
        &bundle,
        ServerConfig { batch_max: 8, batch_timeout_ms: 20, ..ServerConfig::default() },
    )
    .unwrap();
    let addr = handle.local_addr();

    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 12;
    let served: Vec<Vec<Vec<u32>>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let programs = &programs;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    // Pipeline every request before reading any reply so
                    // the queue actually fills and batches form.
                    for i in 0..PER_CLIENT {
                        let p = &programs[(c + i) % programs.len()];
                        client
                            .send(&infer_request(
                                InferKind::Embed,
                                &InferInput::Encoded(Box::new(p.clone())),
                            ))
                            .unwrap();
                    }
                    (0..PER_CLIENT)
                        .map(|_| {
                            let reply = client.recv().unwrap();
                            assert_eq!(
                                reply.get("ok").and_then(Json::as_bool),
                                Some(true),
                                "reply: {}",
                                reply
                            );
                            bits(&embedding_from_json(reply.get("embedding").unwrap()).unwrap())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    for (c, embeddings) in served.iter().enumerate() {
        for (i, embedding) in embeddings.iter().enumerate() {
            let expected = &reference[(c + i) % programs.len()];
            assert_eq!(embedding, expected, "client {c} request {i} diverged");
        }
    }

    // Under concurrent load the batcher must have coalesced: strictly
    // fewer batches than requests, and nothing rejected or stuck.
    let mut admin = Client::connect(addr).unwrap();
    let stats = admin.call(&Json::obj(vec![("op", Json::str("stats"))])).unwrap();
    let requests = stats.get("requests").and_then(Json::as_usize).unwrap();
    let batches = stats.get("batches").and_then(Json::as_usize).unwrap();
    assert_eq!(requests, CLIENTS * PER_CLIENT);
    assert!(batches >= 1, "at least one batch must have run");
    assert!(batches < requests, "batching never coalesced: {batches} batches for {requests}");
    assert_eq!(stats.get("queue_depth").and_then(Json::as_usize), Some(0));

    // Name prediction is served too, and agrees with the tape's greedy
    // decoder.
    let (task, store) = bundle.instantiate().unwrap();
    let LigerTask::Namer { namer, out } = &task else { panic!("expected a namer bundle") };
    let offline_name = out.decode_name(&namer.predict(&store, &programs[0]));
    let reply = admin
        .call(&infer_request(InferKind::Name, &InferInput::Encoded(Box::new(programs[0].clone()))))
        .unwrap();
    let served_name: Vec<String> = reply
        .get("name")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|t| t.as_str().unwrap().to_string())
        .collect();
    assert_eq!(served_name, offline_name);

    // Classify on a namer bundle is a clean error, not a crash.
    let reply = admin
        .call(&infer_request(InferKind::Classify, &InferInput::Encoded(Box::new(programs[0].clone()))))
        .unwrap();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));

    handle.shutdown();
    handle.join();
}

#[test]
fn lint_op_is_served_with_structured_diagnostics() {
    let bundle = trained_bundle();
    let handle = serve(&bundle, ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    // A clean program: ok, clean, no diagnostics.
    let reply = client.call(&lint_request("fn f(x: int) -> int { return x + 1; }")).unwrap();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true), "reply: {reply}");
    assert_eq!(reply.get("clean").and_then(Json::as_bool), Some(true));
    assert_eq!(reply.get("fatal").and_then(Json::as_bool), Some(false));
    assert_eq!(reply.get("diagnostics").and_then(Json::as_arr).map(<[_]>::len), Some(0));

    // A provably crashing program: structured fatal diagnostics with spans.
    let reply = client
        .call(&lint_request("fn f(x: int) -> int {\n    return x / 0;\n}"))
        .unwrap();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(reply.get("fatal").and_then(Json::as_bool), Some(true));
    let diags = reply.get("diagnostics").and_then(Json::as_arr).unwrap();
    assert!(diags
        .iter()
        .any(|d| d.get("kind").and_then(Json::as_str) == Some("division-by-zero")
            && d.get("severity").and_then(Json::as_str) == Some("fatal")
            && d.get("line").and_then(Json::as_usize) == Some(2)));

    // Malformed sources get a clean protocol error, not a crash.
    let reply = client.call(&lint_request("fn f( {")).unwrap();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    let error = reply.get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("parse error"));
    assert_eq!(error.matches("parse error").count(), 1, "{error}");

    handle.shutdown();
    handle.join();
}

#[test]
fn sharded_serving_is_bitwise_identical_to_single_shard_and_offline() {
    let bundle = trained_bundle();

    // Offline reference: the training tape.
    let programs: Vec<EncodedProgram> = (1..9).map(prog).collect();
    let reference = tape_embeddings(&bundle, &programs);

    // Serve the same programs under 1 shard and 4 shards; all three
    // views must agree bitwise (the determinism contract: results are a
    // pure function of the program, independent of routing and batch
    // composition).
    for shards in [1usize, 4] {
        let handle = serve(
            &bundle,
            ServerConfig {
                shards,
                batch_max: 4,
                batch_timeout_ms: 5,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut client = Client::connect(handle.local_addr()).unwrap();
        for p in &programs {
            client
                .send(&infer_request(InferKind::Embed, &InferInput::Encoded(Box::new(p.clone()))))
                .unwrap();
        }
        for (i, expected) in reference.iter().enumerate() {
            let reply = client.recv().unwrap();
            assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true), "reply: {reply}");
            let served = bits(&embedding_from_json(reply.get("embedding").unwrap()).unwrap());
            assert_eq!(&served, expected, "shards={shards} program {i} diverged from offline");
        }

        // The per-shard STATS breakdown must aggregate exactly to the
        // (byte-compatible) top-level fields.
        let stats = client.call(&Json::obj(vec![("op", Json::str("stats"))])).unwrap();
        assert_eq!(stats.get("requests").and_then(Json::as_usize), Some(programs.len()));
        let breakdown = stats.get("shards").and_then(Json::as_arr).unwrap();
        assert_eq!(breakdown.len(), shards);
        let per_shard_requests: usize = breakdown
            .iter()
            .map(|s| s.get("requests").and_then(Json::as_usize).unwrap())
            .sum();
        let per_shard_batches: usize = breakdown
            .iter()
            .map(|s| s.get("batches").and_then(Json::as_usize).unwrap())
            .sum();
        assert_eq!(per_shard_requests, programs.len());
        assert_eq!(Some(per_shard_batches), stats.get("batches").and_then(Json::as_usize));
        if shards == 4 {
            // The synthetic programs differ in content, so the hash
            // router must actually spread them (no shard hogs all).
            let busiest = breakdown
                .iter()
                .map(|s| s.get("requests").and_then(Json::as_usize).unwrap())
                .max()
                .unwrap();
            assert!(busiest < programs.len(), "hash routing sent every program to one shard");
        }

        handle.shutdown();
        handle.join();
    }
}

#[test]
fn over_capacity_connections_get_a_shed_frame_and_close() {
    let bundle = trained_bundle();
    let handle = serve(
        &bundle,
        ServerConfig { max_conns: 2, ..ServerConfig::default() },
    )
    .unwrap();
    let addr = handle.local_addr();

    // Two connections fill the admission budget (ping proves each is
    // fully accepted before the next connects)…
    let mut a = Client::connect(addr).unwrap();
    let mut b = Client::connect(addr).unwrap();
    let ping = Json::obj(vec![("op", Json::str("ping"))]);
    assert_eq!(a.call(&ping).unwrap().get("pong").and_then(Json::as_bool), Some(true));
    assert_eq!(b.call(&ping).unwrap().get("pong").and_then(Json::as_bool), Some(true));

    // …so the third is shed at the door: one SHED frame, then close —
    // distinct from the queue-full BUSY reply.
    let mut c = Client::connect(addr).unwrap();
    let reply = c.recv().unwrap();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false), "reply: {reply}");
    assert_eq!(reply.get("shed").and_then(Json::as_bool), Some(true));
    assert!(reply.get("busy").is_none());
    assert!(c.recv().is_err(), "shed connection must be closed");

    // Closing an accepted connection frees its admission slot.
    drop(a);
    let stats_op = Json::obj(vec![("op", Json::str("stats"))]);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let stats = b.call(&stats_op).unwrap();
        if stats.get("conns").and_then(Json::as_usize) == Some(1) {
            assert!(stats.get("shed").and_then(Json::as_usize).unwrap() >= 1);
            break;
        }
        assert!(std::time::Instant::now() < deadline, "closed connection never reaped");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let mut d = Client::connect(addr).unwrap();
    assert_eq!(d.call(&ping).unwrap().get("pong").and_then(Json::as_bool), Some(true));

    handle.shutdown();
    handle.join();
}

#[test]
fn multi_shard_shutdown_drains_every_shard() {
    let bundle = trained_bundle();
    let handle = serve(
        &bundle,
        ServerConfig {
            shards: 4,
            batch_max: 2,
            batch_timeout_ms: 10,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr();

    // Two pipelining connections spray work across all four shards,
    // then shutdown lands before any reply is read.
    const PER_CONN: usize = 8;
    let mut workers: Vec<Client> = (0..2).map(|_| Client::connect(addr).unwrap()).collect();
    for (c, worker) in workers.iter_mut().enumerate() {
        for t in 0..PER_CONN {
            worker
                .send(&infer_request(
                    InferKind::Embed,
                    &InferInput::Encoded(Box::new(prog(1 + (c * PER_CONN + t) % 8))),
                ))
                .unwrap();
        }
    }
    let mut admin = Client::connect(addr).unwrap();
    let ack = admin.call(&Json::obj(vec![("op", Json::str("shutdown"))])).unwrap();
    assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true));

    // Every accepted request on every connection still gets its reply,
    // in order, from whichever shard it hashed to.
    for (c, worker) in workers.iter_mut().enumerate() {
        for i in 0..PER_CONN {
            let reply = worker.recv().unwrap_or_else(|e| panic!("conn {c} reply {i} lost: {e}"));
            assert_eq!(
                reply.get("ok").and_then(Json::as_bool),
                Some(true),
                "conn {c} reply {i}: {reply}"
            );
            assert!(reply.get("embedding").is_some());
        }
    }
    drop(workers);
    drop(admin);

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !handle.is_finished() {
        assert!(std::time::Instant::now() < deadline, "server failed to stop");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let stats = handle.stats();
    assert_eq!(stats.requests as usize, 2 * PER_CONN);
    assert_eq!(stats.queue_depth, 0, "shutdown dropped queued work");
    assert_eq!(stats.shards.len(), 4);
    let drained: u64 = stats.shards.iter().map(|s| s.requests).sum();
    assert_eq!(drained as usize, 2 * PER_CONN);
    handle.join();
}

#[test]
fn drain_deadline_force_closes_stalled_peers() {
    let bundle = trained_bundle();
    let handle = serve(
        &bundle,
        ServerConfig { drain_deadline_ms: 300, ..ServerConfig::default() },
    )
    .unwrap();
    let addr = handle.local_addr();

    // A stalled peer: pipelines requests and never reads a reply. Each
    // unknown-op request echoes its ~64 KiB op name back in the error
    // reply, so the owed replies (~64 MiB) far exceed what the kernel
    // socket buffers can absorb (tcp_wmem/tcp_rmem caps) — the
    // connection owes undeliverable replies indefinitely, which without
    // a drain deadline would hang `join` forever.
    let mut stalled = Client::connect(addr).unwrap();
    let unknown = Json::obj(vec![("op", Json::str("x".repeat(64 * 1024)))]);
    for _ in 0..1024 {
        stalled.send(&unknown).unwrap();
    }

    let mut admin = Client::connect(addr).unwrap();
    let ack = admin.call(&Json::obj(vec![("op", Json::str("shutdown"))])).unwrap();
    assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true));
    drop(admin);

    // The server must still come down: past the deadline the stalled
    // connection is force-closed and every thread exits.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !handle.is_finished() {
        assert!(
            std::time::Instant::now() < deadline,
            "drain deadline never fired; a stalled peer hung shutdown"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    handle.join();
    drop(stalled);
}

#[test]
fn graceful_shutdown_drains_pipelined_in_flight_requests() {
    let bundle = trained_bundle();
    let handle = serve(
        &bundle,
        ServerConfig { batch_max: 4, batch_timeout_ms: 10, ..ServerConfig::default() },
    )
    .unwrap();
    let addr = handle.local_addr();

    // Pipeline a burst of work, then trigger shutdown from a second
    // connection *before* reading any replies.
    const IN_FLIGHT: usize = 6;
    let mut worker = Client::connect(addr).unwrap();
    for t in 0..IN_FLIGHT {
        worker
            .send(&infer_request(
                InferKind::Embed,
                &InferInput::Encoded(Box::new(prog(1 + t % 4))),
            ))
            .unwrap();
    }

    let mut admin = Client::connect(addr).unwrap();
    let ack = admin.call(&Json::obj(vec![("op", Json::str("shutdown"))])).unwrap();
    assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true));

    // Every accepted request still gets a real reply.
    for i in 0..IN_FLIGHT {
        let reply = worker.recv().unwrap_or_else(|e| panic!("reply {i} lost: {e}"));
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(true),
            "reply {i}: {}",
            reply
        );
        assert!(reply.get("embedding").is_some());
    }
    drop(worker);
    drop(admin);

    // And the server actually stops: both threads exit and join returns.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !handle.is_finished() {
        assert!(std::time::Instant::now() < deadline, "server failed to stop");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let stats = handle.stats();
    assert_eq!(stats.requests as usize, IN_FLIGHT);
    assert_eq!(stats.queue_depth, 0, "shutdown dropped queued work");
    handle.join();
}
