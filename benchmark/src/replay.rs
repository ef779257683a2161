//! The traced replay: the first requests of a workload's stream, run one
//! at a time in-process through the finest public call of each layer, in
//! the order the server runs them, with a span around every call.
//!
//! Each replayed request gets a `request` span holding the calls on its
//! serving path and a `probe` span holding the layers its workload skips
//! (canonicalization on `source_embed`, extraction on `program_embed`,
//! …), run on the same input. Probes keep every layer row measured on
//! every workload; only `request` spans enter `serve.wait_ms`.

use crate::span::{self_times, self_us, Span, Tracer};
use crate::stats::{mean, median, percentile};
use crate::workload::{self, Workload};
use index::{Index, SearchOptions};
use liger::{
    encode_program, extract_encoded, CanonEncoder, EncodedProgram, ExtractOptions, LigerTask,
    ModelBundle, Workspace,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use randgen::{GenConfig, GenStats};
use serve::json::Json;
use serve::protocol::{
    embedding_to_json, index_response, ok_response, program_to_json, search_response,
    write_frame_into, InferInput, InferKind,
};
use serve::server::content_hash;
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// Requests replayed per workload.
pub const REPLAY: usize = 256;

/// Programs per `embed_batch_in` call in the batched-embedding probe —
/// the server's default `batch_max`.
pub const BATCH: usize = 16;

/// A layer's p50 needs this many spans (10 on each side, see
/// [`crate::stats::MIN_BEYOND`]); below it the mean is reported.
const MIN_FOR_P50: usize = 20;

/// The fixture, loaded the way the server loads it.
pub struct Model {
    bundle: ModelBundle,
    task: LigerTask,
    params: tensor::ParamStore,
    fingerprint: String,
    opts: ExtractOptions,
}

impl Model {
    /// Loads and instantiates a checkpoint.
    ///
    /// # Errors
    ///
    /// A description of the load or instantiation failure.
    pub fn load(path: &Path) -> Result<Model, String> {
        let bundle = ModelBundle::load_from_path(path).map_err(|e| format!("fixture: {e}"))?;
        let (task, params) = bundle.instantiate().map_err(|e| format!("fixture: {e}"))?;
        let fingerprint = bundle.fingerprint();
        Ok(Model {
            bundle,
            task,
            params,
            fingerprint,
            opts: ExtractOptions::default(),
        })
    }
}

/// One encoding the staged pipeline produced, kept for the check against
/// the library's one-call path.
struct Staged {
    source: String,
    canon: bool,
    encoded: EncodedProgram,
}

/// What one replay pass produced.
pub struct Pass {
    staged: Vec<Staged>,
    gen: Vec<GenStats>,
    steps: Vec<usize>,
    store_gets: u64,
    store_hits: u64,
    /// Batched embeddings that differed from their one-at-a-time value.
    batch_mismatches: usize,
}

/// Per-pass mutable state: the caches the server would hold, one set per
/// pass so the traced and untraced passes do identical work.
struct Ctx<'m> {
    m: &'m Model,
    ws: Workspace,
    /// The bench-side canonical memo: `canon_hash` → encoding.
    memo: HashMap<u64, EncodedProgram>,
    astore: store::Store,
    index: Index,
    out: Vec<u8>,
    scratch: String,
    /// `(encoding, its one-at-a-time embedding)` per request, for the
    /// batched-embedding probe.
    embedded: Vec<(EncodedProgram, Vec<f32>)>,
    pass: Pass,
}

/// The server's index posting list for a program: every tree and state
/// token it mentions (mirrors the server's private helper so the replay
/// inserts what the server inserts).
fn program_tokens(prog: &EncodedProgram) -> Vec<u32> {
    fn tree(out: &mut Vec<u32>, t: liger::TreeId, prog: &EncodedProgram) {
        let node = prog.pool.tree(t);
        out.push(node.token as u32);
        for &c in &node.children {
            tree(out, c, prog);
        }
    }
    let mut out = Vec::new();
    for tr in &prog.traces {
        for step in &tr.steps {
            tree(&mut out, step.tree, prog);
            for &s in &step.states {
                for v in &prog.pool.state(s).vars {
                    match v {
                        liger::PoolVar::Primitive(tok) => out.push(*tok as u32),
                        liger::PoolVar::Object(obj) => {
                            out.extend(prog.pool.object(*obj).iter().map(|&t| t as u32));
                        }
                    }
                }
            }
        }
    }
    out
}

/// `serve::json::parse` + `Request::from_json` on one frame, as the
/// server's event loop does.
fn decode(frame: &[u8]) -> Result<serve::Request, String> {
    let nl = frame
        .iter()
        .position(|&b| b == b'\n')
        .ok_or("frame has no length line")?;
    let text = std::str::from_utf8(&frame[nl + 1..]).map_err(|_| "non-UTF-8 frame")?;
    serve::Request::from_json(&serve::json::parse(text)?)
}

/// What a request's serving path leaves for its probe: the encoding it
/// served, its embedding if the path computed one, and the parsed program
/// if the path parsed the source as sent.
type Served = (EncodedProgram, Option<Vec<f32>>, Option<minilang::Program>);

/// Parse and type-check, one span each.
fn frontend(t: &mut Tracer, src: &str) -> Result<minilang::Program, String> {
    let program = t
        .span("minilang.parse", |_| minilang::parse(src))
        .map_err(|e| e.to_string())?;
    t.span("minilang.typecheck", |_| minilang::typecheck(&program))
        .map_err(|e| e.to_string())?;
    Ok(program)
}

impl Ctx<'_> {
    /// MiniLang source → encoded program, one span per stage: the same
    /// calls `liger::extract_encoded` makes, in the same order.
    fn extract(
        &mut self,
        t: &mut Tracer,
        src: &str,
    ) -> Result<(minilang::Program, EncodedProgram), String> {
        let opts = &self.m.opts;
        let program = frontend(t, src)?;
        let (groups, stats) = t.span("randgen.generate", |_| {
            let mut rng = StdRng::seed_from_u64(opts.seed);
            let gen = GenConfig {
                target_paths: opts.target_paths,
                concrete_per_path: opts.concrete_per_path,
                ..GenConfig::default()
            };
            randgen::generate_grouped(&program, &gen, &mut rng)
        });
        let blended: Vec<trace::BlendedTrace> = t.span("trace.blend", |_| {
            groups
                .iter()
                .filter_map(|g| g.blend(opts.max_concrete).ok())
                .collect()
        });
        if blended.is_empty() {
            return Err("no successful executions to blend".into());
        }
        let vocab = &self.m.bundle.vocab;
        let enc = t.span("liger.encode_program", |_| {
            encode_program(&program, &blended, vocab, &opts.encode)
        });
        self.pass.gen.push(stats);
        self.pass.steps.push(enc.total_steps());
        self.pass.staged.push(Staged {
            source: src.to_string(),
            canon: false,
            encoded: enc.clone(),
        });
        Ok((program, enc))
    }

    /// Canonicalizes an already parsed program: `(canon_hash, canonical
    /// source)`.
    fn canonicalize(t: &mut Tracer, program: &minilang::Program) -> (u64, String) {
        t.span("analysis.canonicalize", |_| {
            let canon = analysis::canonicalize(program);
            (canon.hash, minilang::print_program(&canon.program))
        })
    }

    /// The server's `"canon": true` path: parse, type-check and
    /// canonicalize, then serve the canonical form's encoding from the
    /// memo, extracting it on a miss.
    fn canon_encode(&mut self, t: &mut Tracer, src: &str) -> Result<EncodedProgram, String> {
        let program = frontend(t, src)?;
        let (hash, canonical) = Ctx::canonicalize(t, &program);
        let enc = match self.memo.get(&hash) {
            Some(enc) => enc.clone(),
            None => {
                let (_, enc) = self.extract(t, &canonical)?;
                self.memo.insert(hash, enc.clone());
                enc
            }
        };
        self.pass.staged.push(Staged {
            source: src.to_string(),
            canon: true,
            encoded: enc.clone(),
        });
        Ok(enc)
    }

    fn embed1(&mut self, t: &mut Tracer, enc: &EncodedProgram) -> Vec<f32> {
        t.span("liger.embed1", |_| {
            self.m.task.embed_in(&mut self.ws, &self.m.params, enc)
        })
    }

    fn name(&mut self, t: &mut Tracer, enc: &EncodedProgram) -> Result<Vec<String>, String> {
        t.span("liger.name", |_| {
            self.m.task.name_in(&mut self.ws, &self.m.params, enc)
        })
        .ok_or_else(|| "fixture is not a namer".to_string())
    }

    fn hash(t: &mut Tracer, enc: &EncodedProgram) -> u64 {
        t.span("serve.content_hash", |_| content_hash(enc))
    }

    /// The artifact-store lookup in front of the forward pass: a hit
    /// returns the cached embedding; a miss embeds (unless the caller
    /// already has the embedding) and writes back.
    fn stored_embedding(
        &mut self,
        t: &mut Tracer,
        key: u64,
        enc: &EncodedProgram,
        have: Option<&[f32]>,
    ) -> Result<Vec<f32>, String> {
        let kind = store::ArtifactKind::Embedding;
        let m = self.m;
        let fp = &m.fingerprint;
        self.pass.store_gets += 1;
        let got = t
            .span("store.get", |_| self.astore.get(kind, key, fp))
            .map_err(|e| e.to_string())?;
        if let Some(bytes) = got {
            self.pass.store_hits += 1;
            return store::embedding_from_bytes(&bytes).map_err(|e| e.to_string());
        }
        let emb = match have {
            Some(e) => e.to_vec(),
            None => self.embed1(t, enc),
        };
        let bytes = store::embedding_to_bytes(&emb);
        t.span("store.put", |_| self.astore.put(kind, key, fp, &bytes))
            .map_err(|e| e.to_string())?;
        Ok(emb)
    }

    fn index_insert(
        &mut self,
        t: &mut Tracer,
        key: u64,
        enc: &EncodedProgram,
        emb: &[f32],
    ) -> Result<Json, String> {
        let index = &mut self.index;
        t.span("index.insert", |_| {
            let tokens = program_tokens(enc);
            index
                .insert(key, emb, &tokens)
                .map(|outcome| index_response(key, outcome, index.len()))
        })
        .map_err(|e| e.to_string())
    }

    fn index_search(
        &mut self,
        t: &mut Tracer,
        key: u64,
        enc: &EncodedProgram,
        emb: &[f32],
        opts: &SearchOptions,
    ) -> Result<Json, String> {
        let index = &mut self.index;
        t.span("index.search", |_| {
            let tokens = program_tokens(enc);
            let exact = index.store().row_of(key).map(|_| key);
            index
                .search(emb, &tokens, opts)
                .map(|r| search_response(&r, exact))
        })
        .map_err(|e| e.to_string())
    }

    fn encode_reply(&mut self, t: &mut Tracer, reply: &Json) {
        self.out.clear();
        t.span("protocol.encode", |_| {
            write_frame_into(&mut self.out, &mut self.scratch, reply)
        });
    }

    /// A `"canon": true` `index` (no `search` options) or `search`: the
    /// canonical encoding, the store in front of the forward pass, the
    /// index, the reply.
    fn canon_request(
        &mut self,
        t: &mut Tracer,
        src: &str,
        search: Option<&SearchOptions>,
    ) -> Result<Served, String> {
        let enc = self.canon_encode(t, src)?;
        let key = Ctx::hash(t, &enc);
        let emb = self.stored_embedding(t, key, &enc, None)?;
        let reply = match search {
            None => self.index_insert(t, key, &enc, &emb)?,
            Some(opts) => self.index_search(t, key, &enc, &emb, opts)?,
        };
        self.encode_reply(t, &reply);
        Ok((enc, Some(emb), None))
    }

    /// Store and index work for a request whose serving path has none.
    fn probe_store_index(
        &mut self,
        t: &mut Tracer,
        enc: &EncodedProgram,
        emb: &[f32],
    ) -> Result<(), String> {
        let key = Ctx::hash(t, enc);
        self.stored_embedding(t, key, enc, Some(emb))?;
        self.index_insert(t, key, enc, emb)?;
        self.index_search(
            t,
            key,
            enc,
            emb,
            &SearchOptions {
                k: workload::SEARCH_K,
                ..SearchOptions::default()
            },
        )?;
        Ok(())
    }

    /// One request: its serving path under a `request` span, then the
    /// layers its workload skips under a `probe` span.
    fn replay_one(
        &mut self,
        t: &mut Tracer,
        w: Workload,
        req: &workload::Request,
        frame: &[u8],
    ) -> Result<(), String> {
        let source = &req.source;
        let (enc, emb, parsed) = t.span("request", |t| -> Result<Served, String> {
            let decoded = t.span("protocol.decode", |_| decode(frame))?;
            Ok(match (w, decoded) {
                (
                    Workload::SourceEmbed,
                    serve::Request::Infer(InferKind::Embed, InferInput::Source(src)),
                ) => {
                    let (program, enc) = self.extract(t, &src)?;
                    let emb = self.embed1(t, &enc);
                    self.encode_reply(
                        t,
                        &ok_response(vec![("embedding", embedding_to_json(&emb))]),
                    );
                    (enc, Some(emb), Some(program))
                }
                (
                    Workload::ProgramEmbed,
                    serve::Request::Infer(InferKind::Embed, InferInput::Encoded(prog)),
                ) => {
                    let emb = self.embed1(t, &prog);
                    self.encode_reply(
                        t,
                        &ok_response(vec![("embedding", embedding_to_json(&emb))]),
                    );
                    (*prog, Some(emb), None)
                }
                (
                    Workload::NameOpen,
                    serve::Request::Infer(InferKind::Name, InferInput::Source(src)),
                ) => {
                    let (program, enc) = self.extract(t, &src)?;
                    let name = self.name(t, &enc)?;
                    let reply = ok_response(vec![(
                        "name",
                        Json::Arr(name.into_iter().map(Json::Str).collect()),
                    )]);
                    self.encode_reply(t, &reply);
                    (enc, None, Some(program))
                }
                (Workload::CanonIndex, serve::Request::Index(InferInput::CanonSource(src))) => {
                    self.canon_request(t, &src, None)?
                }
                (
                    Workload::CanonIndex,
                    serve::Request::Search(InferInput::CanonSource(src), opts),
                ) => self.canon_request(t, &src, Some(&opts))?,
                (w, other) => return Err(format!("{} stream produced {other:?}", w.name())),
            })
        })?;

        t.span("probe", |t| -> Result<(), String> {
            let program = match parsed {
                None if w == Workload::ProgramEmbed => Some(self.extract(t, source)?.0),
                parsed => parsed,
            };
            if let Some(program) = &program {
                Ctx::canonicalize(t, program);
            }
            if w != Workload::NameOpen {
                self.name(t, &enc)?;
            }
            let emb = match emb {
                Some(emb) => emb,
                None => self.embed1(t, &enc),
            };
            if w != Workload::CanonIndex {
                self.probe_store_index(t, &enc, &emb)?;
            }
            self.embedded.push((enc, emb));
            Ok(())
        })
    }

    /// `embed_batch_in` over consecutive groups of [`BATCH`] programs,
    /// checked bitwise against their one-at-a-time embeddings.
    fn probe_batches(&mut self, t: &mut Tracer) {
        t.set_request(None);
        t.span("probe", |t| {
            for group in self.embedded.chunks(BATCH).filter(|g| g.len() == BATCH) {
                let progs: Vec<&EncodedProgram> = group.iter().map(|(enc, _)| enc).collect();
                let batch = t.span("liger.embed16", |_| {
                    self.m
                        .task
                        .embed_batch_in(&mut self.ws, &self.m.params, &progs)
                });
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                self.pass.batch_mismatches += batch
                    .iter()
                    .zip(group)
                    .filter(|(b, (_, one))| bits(b) != bits(one))
                    .count();
            }
        });
    }
}

impl<'m> Ctx<'m> {
    /// Fresh server-side state, with its artifact store at `dir`.
    fn open(m: &'m Model, dir: &Path) -> Result<Ctx<'m>, String> {
        let _ = std::fs::remove_dir_all(dir);
        let astore = store::Store::open(dir).map_err(|e| format!("replay store: {e}"))?;
        Ok(Ctx {
            m,
            ws: Workspace::new(),
            memo: HashMap::new(),
            astore,
            index: Index::new(m.bundle.cfg.hidden, m.fingerprint.clone()),
            out: Vec::new(),
            scratch: String::new(),
            embedded: Vec::new(),
            pass: Pass {
                staged: Vec::new(),
                gen: Vec::new(),
                steps: Vec::new(),
                store_gets: 0,
                store_hits: 0,
                batch_mismatches: 0,
            },
        })
    }

    /// Indexes what `canon_index` starts from, through the same path but
    /// untraced. Its encodings stay for the check; its counts do not
    /// describe the replayed requests.
    fn warm_index(&mut self, t: &mut Tracer, seed: u64) -> Result<(), String> {
        for src in workload::warm_index_sources(seed) {
            let enc = self.canon_encode(t, &src)?;
            let key = content_hash(&enc);
            let emb = self.stored_embedding(t, key, &enc, None)?;
            self.index_insert(t, key, &enc, &emb)?;
        }
        self.pass.gen.clear();
        self.pass.steps.clear();
        (self.pass.store_gets, self.pass.store_hits) = (0, 0);
        Ok(())
    }
}

/// The request frames of the first `n` requests of `w`'s stream, pooled
/// programs extracted. Built before any timing.
fn frames(
    m: &Model,
    w: Workload,
    seed: u64,
    n: usize,
    pool: usize,
) -> Result<Vec<(workload::Request, Vec<u8>)>, String> {
    let mut pooled: HashMap<usize, Json> = HashMap::new();
    (0..n as u64)
        .map(|i| {
            let req = workload::request(w, seed, i, pool);
            let program = match req.pool {
                Some(slot) => Some(match pooled.entry(slot) {
                    std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                    std::collections::hash_map::Entry::Vacant(e) => {
                        let prog = extract_encoded(&req.source, &m.bundle.vocab, &m.opts)
                            .map_err(|e| e.to_string())?;
                        e.insert(program_to_json(&prog))
                    }
                }),
                None => None,
            };
            let mut frame = Vec::new();
            write_frame_into(
                &mut frame,
                &mut String::new(),
                &req.to_json(program.as_deref()),
            );
            Ok((req, frame))
        })
        .collect()
}

/// Replays the first `n` requests of `w`'s stream twice, request by
/// request: once into `t`, once untraced, on separate server-side state
/// and alternating which goes first. Interleaving every few milliseconds
/// keeps the host's speed drift out of the overhead ratio, which whole
/// back-to-back passes could not. Returns the traced pass and the median
/// over requests of its wall time over the untraced one, minus 1: a
/// median, so the odd slow `fsync` in one store's write does not read as
/// tracing cost. `scratch` holds the two artifact stores, removed
/// afterwards.
///
/// # Errors
///
/// Any request the staged pipeline cannot serve.
pub fn run(
    m: &Model,
    t: &mut Tracer,
    w: Workload,
    seed: u64,
    n: usize,
    pool: usize,
    scratch: &Path,
) -> Result<(Pass, f64), String> {
    let frames = frames(m, w, seed, n, pool)?;
    let dir =
        |side: &str| scratch.join(format!("replay-{}-{side}-{}", w.name(), std::process::id()));
    let (traced_dir, plain_dir) = (dir("traced"), dir("plain"));
    let mut traced = Ctx::open(m, &traced_dir)?;
    let mut plain = Ctx::open(m, &plain_dir)?;
    let mut quiet = t.sibling(false);
    if w == Workload::CanonIndex {
        traced.warm_index(&mut quiet, seed)?;
        plain.warm_index(&mut quiet, seed)?;
    }

    // Traced over untraced wall time, per request.
    let mut ratios = Vec::with_capacity(frames.len());
    t.enter("replay");
    let mut outcome = Ok(());
    for (i, (req, frame)) in frames.iter().enumerate() {
        t.set_request(Some(i as u64));
        let (mut traced_s, mut plain_s) = (0.0, 0.0);
        for traced_turn in [i % 2 == 1, i % 2 == 0] {
            let start = Instant::now();
            outcome = if traced_turn {
                traced.replay_one(t, w, req, frame)
            } else {
                plain.replay_one(&mut quiet, w, req, frame)
            };
            *(if traced_turn {
                &mut traced_s
            } else {
                &mut plain_s
            }) = start.elapsed().as_secs_f64();
            if outcome.is_err() {
                break;
            }
        }
        if outcome.is_err() {
            break;
        }
        ratios.push(traced_s / plain_s);
    }
    if outcome.is_ok() {
        plain.probe_batches(&mut quiet);
        traced.probe_batches(t);
    }
    t.exit();
    let _ = std::fs::remove_dir_all(&traced_dir);
    let _ = std::fs::remove_dir_all(&plain_dir);
    outcome?;
    Ok((traced.pass, median(&ratios) - 1.0))
}

/// Checks every staged encoding against the library's one-call path:
/// `liger::extract_encoded` for plain sources, `CanonEncoder::encode`
/// for canonical ones. Returns the mismatches.
pub fn check(m: &Model, pass: &Pass) -> Vec<String> {
    let mut failures = Vec::new();
    for s in &pass.staged {
        let want = if s.canon {
            CanonEncoder::new()
                .encode(&s.source, &m.bundle.vocab, &m.opts)
                .map(|c| c.encoded)
        } else {
            extract_encoded(&s.source, &m.bundle.vocab, &m.opts)
        };
        match want {
            Ok(want) if want == s.encoded => {}
            Ok(_) => failures.push(format!(
                "staged {} encoding differs from the library's for {:?}",
                if s.canon { "canonical" } else { "plain" },
                s.source.lines().next().unwrap_or("")
            )),
            Err(e) => failures.push(format!("reference extraction failed: {e}")),
        }
    }
    if pass.batch_mismatches > 0 {
        failures.push(format!(
            "{} batched embeddings differ from embed_in",
            pass.batch_mismatches
        ));
    }
    failures
}

/// The layer rows of one traced pass and its `spans`. `client_mean_ms`
/// is the live run's mean latency, from which `serve.wait_ms` subtracts
/// the replayed request's own work.
pub fn layer_metrics(pass: &Pass, spans: &[Span], client_mean_ms: f64) -> Vec<(&'static str, f64)> {
    const LAYERS: [(&str, &str); 15] = [
        ("protocol.decode_us", "protocol.decode"),
        ("protocol.encode_us", "protocol.encode"),
        ("minilang.parse_us", "minilang.parse"),
        ("minilang.typecheck_us", "minilang.typecheck"),
        ("analysis.canonicalize_us", "analysis.canonicalize"),
        ("randgen.generate_us", "randgen.generate"),
        ("trace.blend_us", "trace.blend"),
        ("liger.encode_program_us", "liger.encode_program"),
        ("liger.embed1_us", "liger.embed1"),
        ("liger.name_us", "liger.name"),
        ("store.get_us", "store.get"),
        ("store.put_us", "store.put"),
        ("index.insert_us", "index.insert"),
        ("index.search_us", "index.search"),
        ("liger.embed16_us", "liger.embed16"),
    ];
    let selfs = self_times(spans);
    let typical = |v: &[f64]| {
        if v.len() >= MIN_FOR_P50 {
            percentile(v, 0.5).unwrap_or(0.0)
        } else {
            mean(v)
        }
    };
    let mut rows: Vec<(&'static str, f64)> = LAYERS
        .iter()
        .map(|&(metric, span)| {
            let v = self_us(spans, &selfs, span);
            if span == "liger.embed16" {
                (metric, mean(&v) / BATCH as f64)
            } else {
                (metric, typical(&v))
            }
        })
        .collect();

    let attempts: Vec<f64> = pass.gen.iter().map(|g| g.attempts as f64).collect();
    let kept: usize = pass.gen.iter().map(|g| g.kept).sum();
    let paths: Vec<f64> = pass.gen.iter().map(|g| g.paths as f64).collect();
    let steps: Vec<f64> = pass.steps.iter().map(|&s| s as f64).collect();
    let request_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "request")
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    rows.extend([
        ("randgen.attempts", typical(&attempts)),
        (
            "randgen.kept_per_attempt",
            ratio(kept as f64, attempts.iter().sum()),
        ),
        ("randgen.paths", mean(&paths)),
        ("liger.steps", mean(&steps)),
        (
            "store.hit_ratio",
            ratio(pass.store_hits as f64, pass.store_gets as f64),
        ),
        ("serve.wait_ms", client_mean_ms - mean(&request_ms)),
    ]);
    rows
}
