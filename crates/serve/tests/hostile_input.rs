//! Hostile input over real TCP loopback connections: a frame of JSON, or
//! a MiniLang source, nested past its parser's budget gets exactly one
//! typed error reply, and the server keeps answering `ping`. The JSON
//! budget still admits the wire form of the deepest program the MiniLang
//! budget admits.

use liger::{LigerConfig, LigerNamer, ModelBundle, OutVocab, Vocab};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serve::json::Json;
use serve::protocol::{
    infer_request, lint_request, program_from_json, program_to_json, read_frame, InferInput,
    InferKind,
};
use serve::server::{serve, Client, ServerConfig};
use std::io::Write;

/// An untrained (but deterministic) namer bundle: error replies need no
/// trained weights.
fn bundle() -> ModelBundle {
    let mut out = OutVocab::new();
    out.add("f");
    let cfg = LigerConfig { hidden: 8, attn: 8, ..LigerConfig::default() };
    let mut store = tensor::ParamStore::new();
    let mut rng = StdRng::seed_from_u64(5);
    let _namer = LigerNamer::new(&mut store, 4, out.len(), cfg, &mut rng);
    let mut vocab = Vocab::new();
    for t in ["a", "b", "c"] {
        vocab.add(t);
    }
    ModelBundle::for_namer(cfg, vocab, out, store)
}

fn returning(expr: &str) -> String {
    format!("fn f(x: int) -> int {{ return {expr}; }}")
}

fn assert_pong(client: &mut Client) {
    let reply = client.call(&Json::obj(vec![("op", Json::str("ping"))])).unwrap();
    assert_eq!(reply.get("pong").and_then(Json::as_bool), Some(true), "reply: {reply}");
}

#[test]
fn a_deeply_nested_frame_gets_one_error_reply_and_the_server_keeps_serving() {
    let handle = serve(&bundle(), ServerConfig::default()).unwrap();
    let addr = handle.local_addr();

    let payload = "[".repeat(400_000);
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write!(stream, "{}\n{payload}", payload.len()).unwrap();
    let reply = read_frame(&mut stream).unwrap().expect("one error reply");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false), "reply: {reply}");
    let error = reply.get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("nesting deeper than"), "error: {error}");
    // A framing error ends the connection: no second reply follows.
    assert!(!matches!(read_frame(&mut stream), Ok(Some(_))));

    assert_pong(&mut Client::connect(addr).unwrap());
    handle.shutdown();
    handle.join();
}

#[test]
fn deeply_nested_sources_get_typed_error_replies_and_the_server_keeps_serving() {
    let handle = serve(&bundle(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let n = 100_000;
    let sources = [
        returning(&format!("{}x{}", "(".repeat(n), ")".repeat(n))),
        returning(&vec!["x"; n].join(" + ")),
        returning(&format!("{}x", "- ".repeat(n))),
        format!(
            "fn f(x: int) -> int {{ {} x += 1; {} return x; }}",
            "if (x > 0) { ".repeat(10_000),
            "}".repeat(10_000)
        ),
    ];
    for src in &sources {
        let requests = [
            infer_request(InferKind::Embed, &InferInput::Source(src.clone())),
            infer_request(InferKind::Embed, &InferInput::CanonSource(src.clone())),
            lint_request(src),
        ];
        for request in &requests {
            let reply = client.call(request).unwrap();
            assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false), "reply: {reply}");
            let error = reply.get("error").and_then(Json::as_str).unwrap();
            assert!(error.contains("nesting deeper than"), "error: {error}");
            assert_pong(&mut client);
        }
    }
    handle.shutdown();
    handle.join();
}

fn json_depth(value: &Json) -> usize {
    match value {
        Json::Arr(items) => 1 + items.iter().map(json_depth).max().unwrap_or(0),
        Json::Obj(fields) => 1 + fields.iter().map(|(_, v)| json_depth(v)).max().unwrap_or(0),
        _ => 0,
    }
}

/// The tallest statement tree MiniLang admits — an indexed assignment
/// whose index is an expression exactly `minilang::MAX_DEPTH` tall —
/// survives the wire inside a request, within the JSON budget.
#[test]
fn the_json_budget_admits_the_deepest_program_minilang_admits() {
    let index = vec!["0"; minilang::MAX_DEPTH].join(" * ");
    let src = format!("fn f(a: array<int>) -> int {{ a[{index}] = 1; return a[0]; }}");
    let opts = liger::ExtractOptions::default();
    let program = liger::extract_encoded(&src, &Vocab::new(), &opts).unwrap();
    let request = infer_request(InferKind::Embed, &InferInput::Encoded(Box::new(program.clone())));
    let depth = json_depth(&request);
    assert!(depth > 2 * minilang::MAX_DEPTH && depth <= serve::json::MAX_DEPTH, "depth {depth}");

    let parsed = serve::json::parse(&request.to_string()).unwrap();
    let back = program_from_json(parsed.get("program").unwrap()).unwrap();
    assert_eq!(program_to_json(&back), program_to_json(&program));
}
