//! liger-serve: serve a trained LIGER checkpoint over TCP.
//!
//! ```text
//! liger-serve --ckpt model.lgrb [--addr 127.0.0.1:7878] [--batch-max 16]
//!             [--batch-timeout-ms 5] [--queue-cap 64] [--threads N]
//!             [--shards N] [--max-conns N] [--max-inflight N]
//!             [--drain-deadline-ms 5000]
//! liger-serve --demo [--save model.lgrb] [flags…]   # train a toy model, then serve it
//! liger-serve query ADDR JSON [JSON…]               # one-shot client (pipelined)
//! liger-serve index ADDR FILE [FILE…]               # index MiniLang files by content hash
//! liger-serve search ADDR FILE [--k N] [--min-sim X] [--mode cosine|hybrid]
//! ```
//!
//! `--index-path FILE.lgri` makes the embedding index persistent: loaded
//! at startup, saved on graceful shutdown.
//!
//! `--store-path DIR` points shard workers at the content-addressed
//! artifact store: embedding requests whose content hash (and model
//! fingerprint) match a cached entry skip the forward pass entirely.
//!
//! The server shuts down gracefully on SIGTERM/ctrl-c or the admin
//! `{"op":"shutdown"}` verb: the listener stops accepting, open
//! connections drain, and every accepted request is answered.

use liger::{
    extract_encoded, vocab_from_sources, train_namer, ExtractOptions, LigerConfig, LigerNamer,
    ModelBundle, NameSample, OutVocab, TrainConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serve::json::{parse, Json};
use serve::server::{serve, Client, ServerConfig};
use std::time::Duration;

/// The corpus the `--demo` model is trained on: (method name, source).
const DEMO_CORPUS: &[(&str, &str)] = &[
    ("addOne", "fn addOne(x: int) -> int { return x + 1; }"),
    ("double", "fn double(x: int) -> int { x *= 2; return x; }"),
    ("square", "fn square(x: int) -> int { return x * x; }"),
    ("negate", "fn negate(x: int) -> int { return 0 - x; }"),
];

#[cfg(unix)]
mod signals {
    //! Minimal SIGTERM/SIGINT hook; the container has no signal crate,
    //! and `signal(2)` with an atomic flag is all graceful shutdown
    //! needs.
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod signals {
    pub fn install() {}
    pub fn requested() -> bool {
        false
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("query") => query_main(&args[1..]),
        Some("index") => index_main(&args[1..]),
        Some("search") => search_main(&args[1..]),
        _ => serve_main(&args),
    };
    std::process::exit(code);
}

/// `liger-serve query ADDR JSON…` — sends every JSON argument pipelined,
/// prints one reply per line. Exits nonzero if any reply is not ok.
fn query_main(args: &[String]) -> i32 {
    let [addr, requests @ ..] = args else {
        eprintln!("usage: liger-serve query ADDR JSON [JSON...]");
        return 2;
    };
    if requests.is_empty() {
        eprintln!("usage: liger-serve query ADDR JSON [JSON...]");
        return 2;
    }
    let parsed: Vec<Json> = match requests.iter().map(|r| parse(r)).collect() {
        Ok(values) => values,
        Err(e) => {
            eprintln!("liger-serve: bad request JSON: {e}");
            return 2;
        }
    };
    let run = || -> std::io::Result<bool> {
        let mut client = Client::connect(addr)?;
        for request in &parsed {
            client.send(request)?;
        }
        let mut all_ok = true;
        for _ in &parsed {
            let reply = client.recv()?;
            println!("{reply}");
            all_ok &= reply.get("ok").and_then(Json::as_bool) == Some(true);
        }
        Ok(all_ok)
    };
    match run() {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("liger-serve: {e}");
            1
        }
    }
}

/// `liger-serve index ADDR [--canon] FILE…` — indexes each MiniLang
/// file's embedding under its content hash, one pipelined request per
/// file. Prints `KEY OUTCOME FILE` per line (KEY is the 16-hex index
/// key). With `--canon`, programs are canonicalized first, so syntactic
/// variants dedup onto one key (`unchanged`).
fn index_main(args: &[String]) -> i32 {
    let [addr, rest @ ..] = args else {
        eprintln!("usage: liger-serve index ADDR [--canon] FILE [FILE...]");
        return 2;
    };
    let canon = rest.iter().any(|a| a == "--canon");
    let files: Vec<&String> = rest.iter().filter(|a| a.as_str() != "--canon").collect();
    if files.is_empty() {
        eprintln!("usage: liger-serve index ADDR [--canon] FILE [FILE...]");
        return 2;
    }
    let run = || -> std::io::Result<bool> {
        let mut client = Client::connect(addr)?;
        for file in &files {
            let source = std::fs::read_to_string(file)?;
            let mut fields = vec![("op", Json::str("index")), ("source", Json::str(source))];
            if canon {
                fields.push(("canon", Json::Bool(true)));
            }
            client.send(&Json::obj(fields))?;
        }
        let mut all_ok = true;
        for file in &files {
            let reply = client.recv()?;
            if reply.get("ok").and_then(Json::as_bool) == Some(true) {
                let key = reply.get("key").and_then(Json::as_str).unwrap_or("?");
                let outcome = reply.get("outcome").and_then(Json::as_str).unwrap_or("?");
                println!("{key} {outcome} {file}");
            } else {
                all_ok = false;
                eprintln!("liger-serve: index {file} failed: {reply}");
            }
        }
        Ok(all_ok)
    };
    match run() {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("liger-serve: {e}");
            1
        }
    }
}

/// `liger-serve search ADDR FILE [--k N] [--min-sim X] [--mode M]
/// [--canon]` — embeds the file and prints its nearest indexed
/// programs, one hit per line: `RANK KEY COSINE SCORE`. With `--canon`
/// the query is canonicalized and an `exact KEY` line precedes the hits
/// when a stored entry shares the query's canonical form.
fn search_main(args: &[String]) -> i32 {
    let [addr, file, rest @ ..] = args else {
        eprintln!(
            "usage: liger-serve search ADDR FILE [--k N] [--min-sim X] [--mode M] [--canon]"
        );
        return 2;
    };
    let mut fields = vec![("op", Json::str("search"))];
    let source = match std::fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("liger-serve: cannot read {file}: {e}");
            return 2;
        }
    };
    fields.push(("source", Json::str(source)));
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        if flag == "--canon" {
            fields.push(("canon", Json::Bool(true)));
            continue;
        }
        let Some(value) = it.next() else {
            eprintln!("liger-serve: {flag} needs a value");
            return 2;
        };
        match flag.as_str() {
            "--k" => match value.parse::<usize>() {
                Ok(k) => fields.push(("k", Json::num(k))),
                Err(_) => {
                    eprintln!("liger-serve: --k expects a number, got {value:?}");
                    return 2;
                }
            },
            "--min-sim" => match value.parse::<f64>() {
                Ok(s) => fields.push(("min_sim", Json::Num(s))),
                Err(_) => {
                    eprintln!("liger-serve: --min-sim expects a number, got {value:?}");
                    return 2;
                }
            },
            "--mode" => fields.push(("mode", Json::str(value.clone()))),
            other => {
                eprintln!("liger-serve: unknown search flag {other:?}");
                return 2;
            }
        }
    }
    let run = || -> std::io::Result<bool> {
        let mut client = Client::connect(addr)?;
        let reply = client.call(&Json::obj(fields))?;
        if reply.get("ok").and_then(Json::as_bool) != Some(true) {
            eprintln!("liger-serve: search failed: {reply}");
            return Ok(false);
        }
        if let Some(exact) = reply.get("exact").and_then(Json::as_str) {
            println!("exact {exact}");
        }
        let hits = reply.get("hits").and_then(Json::as_arr).unwrap_or(&[]);
        for (rank, hit) in hits.iter().enumerate() {
            let key = hit.get("key").and_then(Json::as_str).unwrap_or("?");
            let cosine = hit.get("cosine").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let score = hit.get("score").and_then(Json::as_f64).unwrap_or(f64::NAN);
            println!("{} {key} {cosine} {score}", rank + 1);
        }
        Ok(true)
    };
    match run() {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("liger-serve: {e}");
            1
        }
    }
}

fn serve_main(args: &[String]) -> i32 {
    let mut config = ServerConfig::default();
    let mut ckpt: Option<String> = None;
    let mut save: Option<String> = None;
    let mut demo = false;
    let mut metrics = false;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().cloned().ok_or_else(|| format!("{name} needs a value"))
        };
        let result: Result<(), String> = match flag.as_str() {
            "--ckpt" => value("--ckpt").map(|v| ckpt = Some(v)),
            "--save" => value("--save").map(|v| save = Some(v)),
            "--demo" => {
                demo = true;
                Ok(())
            }
            "--metrics" => {
                metrics = true;
                Ok(())
            }
            "--addr" => value("--addr").map(|v| config.addr = v),
            "--batch-max" => parse_num(&mut value, "--batch-max").map(|n| config.batch_max = n),
            "--batch-timeout-ms" => parse_num(&mut value, "--batch-timeout-ms")
                .map(|n| config.batch_timeout_ms = n as u64),
            "--queue-cap" => parse_num(&mut value, "--queue-cap").map(|n| config.queue_cap = n),
            "--shards" => parse_num(&mut value, "--shards").map(|n| config.shards = n),
            "--max-conns" => parse_num(&mut value, "--max-conns").map(|n| config.max_conns = n),
            "--max-inflight" => {
                parse_num(&mut value, "--max-inflight").map(|n| config.max_inflight = n)
            }
            "--drain-deadline-ms" => parse_num(&mut value, "--drain-deadline-ms")
                .map(|n| config.drain_deadline_ms = n as u64),
            "--index-path" => value("--index-path")
                .map(|v| config.index_path = Some(std::path::PathBuf::from(v))),
            "--store-path" => value("--store-path")
                .map(|v| config.store_path = Some(std::path::PathBuf::from(v))),
            "--threads" => {
                parse_num(&mut value, "--threads").map(|n| par::set_threads(Some(n)))
            }
            "--help" | "-h" => {
                print_usage();
                return 0;
            }
            other => Err(format!("unknown flag {other:?}")),
        };
        if let Err(msg) = result {
            eprintln!("liger-serve: {msg}");
            print_usage();
            return 2;
        }
    }

    let bundle = match (demo, &ckpt) {
        (true, None) => {
            eprintln!("liger-serve: training demo model ({} methods)...", DEMO_CORPUS.len());
            let bundle = train_demo_bundle();
            if let Some(path) = &save {
                if let Err(e) = bundle.save_to_path(path) {
                    eprintln!("liger-serve: cannot save {path}: {e}");
                    return 2;
                }
                eprintln!("liger-serve: saved demo checkpoint to {path}");
            }
            bundle
        }
        (false, Some(path)) => match ModelBundle::load_from_path(path) {
            Ok(bundle) => bundle,
            Err(e) => {
                eprintln!("liger-serve: cannot load {path}: {e}");
                return 2;
            }
        },
        _ => {
            eprintln!("liger-serve: pass exactly one of --ckpt PATH or --demo");
            print_usage();
            return 2;
        }
    };

    signals::install();
    let handle = match serve(&bundle, config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("liger-serve: cannot start server: {e}");
            return 2;
        }
    };
    println!("liger-serve listening on {}", handle.local_addr());

    while !handle.is_finished() {
        if signals::requested() {
            handle.shutdown();
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let snap = handle.stats();
    handle.join();
    eprintln!(
        "liger-serve: stopped after {} requests in {} batches ({} rejected)",
        snap.requests, snap.batches, snap.rejected
    );
    if metrics {
        // The full process-wide registry: serve.* counters plus the
        // kernel-level ones (tensor.gemm.dispatch_f32,
        // tensor.gemm.batched_rows, serve.fused_embed_batch) that show
        // how batches were executed.
        print!("{}", obs::metrics::registry().snapshot().render_table());
    }
    0
}

fn parse_num(
    value: &mut impl FnMut(&str) -> Result<String, String>,
    name: &str,
) -> Result<usize, String> {
    let text = value(name)?;
    text.parse().map_err(|_| format!("{name} expects a number, got {text:?}"))
}

fn print_usage() {
    eprintln!(
        "usage:\n  \
         liger-serve --ckpt model.lgrb [--addr HOST:PORT] [--batch-max N]\n              \
         [--batch-timeout-ms N] [--queue-cap N] [--threads N] [--shards N]\n              \
         [--max-conns N] [--max-inflight N] [--drain-deadline-ms N] [--metrics]\n              \
         [--index-path FILE.lgri] [--store-path DIR]\n  \
         liger-serve --demo [--save model.lgrb] [flags...]\n  \
         liger-serve query ADDR JSON [JSON...]\n  \
         liger-serve index ADDR [--canon] FILE [FILE...]\n  \
         liger-serve search ADDR FILE [--k N] [--min-sim X] [--mode cosine|hybrid] [--canon]"
    );
}

/// Trains a tiny method-name model on [`DEMO_CORPUS`] — enough to smoke
/// the full pipeline without shipping a checkpoint.
fn train_demo_bundle() -> ModelBundle {
    let opts = ExtractOptions::default();
    let sources: Vec<&str> = DEMO_CORPUS.iter().map(|(_, src)| *src).collect();
    let vocab = vocab_from_sources(&sources, &opts).expect("demo corpus traces");
    let mut out = OutVocab::new();
    for (name, _) in DEMO_CORPUS {
        for sub in minilang::subtokens(name) {
            out.add(&sub);
        }
    }
    let samples: Vec<NameSample> = DEMO_CORPUS
        .iter()
        .map(|(name, src)| NameSample {
            program: extract_encoded(src, &vocab, &opts).expect("demo corpus encodes"),
            target: out.encode_name(name),
        })
        .collect();
    let cfg = LigerConfig { hidden: 16, attn: 16, ..LigerConfig::default() };
    let mut store = tensor::ParamStore::new();
    let mut rng = StdRng::seed_from_u64(7);
    let namer = LigerNamer::new(&mut store, vocab.len(), out.len(), cfg, &mut rng);
    train_namer(
        &namer,
        &mut store,
        &samples,
        &TrainConfig { epochs: 20, lr: 0.05, batch_size: 2 },
        &mut rng,
    );
    ModelBundle::for_namer(cfg, vocab, out, store)
}
