//! The live run: one workload against an in-process `liger-serve`,
//! driven over the real frame protocol by a single-threaded nonblocking
//! load generator with [`CONNS`] connections.
//!
//! This runs in a fresh child process per workload, so `VmHWM` is the
//! workload's own peak and no fixture training shares its heap.

use crate::stats::{highest_percentile, mean, median, percentile};
use crate::workload::{self, Op, Request, Workload};
use liger::{extract_encoded, CanonEncoder, ExtractOptions, ModelBundle, Workspace};
use serve::epoll::{Event, Interest, Poller};
use serve::json::Json;
use serve::protocol::{
    embedding_from_json, key_from_json, program_to_json, write_frame_into, FrameReader,
};
use serve::server::{content_hash, serve, Client, ServerConfig};
use std::collections::VecDeque;
use std::io::{ErrorKind, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Load connections: one per core of the 2-core reference host, so the
/// generator never needs more sockets than the server has shards.
pub const CONNS: usize = 2;

/// A reply later than this after its request was due counts as failed.
pub const DEADLINE: Duration = Duration::from_secs(5);

/// Every request whose stream index is a multiple of this is checked
/// against the offline pipeline after the run.
pub const CHECK_EVERY: u64 = 64;

/// What the child is asked to run.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// The traffic mix.
    pub workload: Workload,
    /// Request-stream seed.
    pub seed: u64,
    /// Untimed lead-in at the same load.
    pub warmup: Duration,
    /// The measured window.
    pub window: Duration,
    /// The fixture checkpoint to serve.
    pub fixture: PathBuf,
    /// `program_embed` pool size.
    pub pool: usize,
    /// Server start-ups timed for `setup_s`.
    pub trials: usize,
    /// Directory for the artifact store `canon_index` serves from.
    pub scratch: PathBuf,
}

/// One request on the wire, awaiting its reply.
struct Pending {
    idx: u64,
    /// When the request was due: its arrival time (open loop) or its send
    /// time (closed loop). Latency and the deadline run from here.
    due: Instant,
    measured: bool,
    timed_out: bool,
}

struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    out: Vec<u8>,
    pending: VecDeque<Pending>,
    /// Closed loop: when the previous reply freed this connection.
    free_since: Instant,
}

/// Tallies over the measured window.
#[derive(Default)]
struct Tally {
    attempted: u64,
    /// `ok` replies that arrived inside the window, whichever request
    /// they answer: the throughput numerator.
    completed: u64,
    busy: u64,
    shed: u64,
    errors: u64,
    timeouts: u64,
    latency_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    request_bytes: Vec<f64>,
    reply_bytes: Vec<f64>,
    /// `(stream index, reply)` of the requests checked afterwards.
    sampled: Vec<(u64, Json)>,
}

impl Tally {
    fn failed(&self) -> u64 {
        self.busy + self.shed + self.errors + self.timeouts
    }
}

fn io_err(context: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// Runs the workload and returns the child's report.
///
/// # Errors
///
/// Any failure to start, drive, or stop the server.
pub fn run(cfg: &LiveConfig) -> Result<Json, String> {
    let bundle = ModelBundle::load_from_path(&cfg.fixture).map_err(|e| format!("fixture: {e}"))?;
    let opts = ExtractOptions::default();

    // The pool is input preparation, not serving: it is built before any
    // timing starts.
    let pool_frames: Vec<Vec<u8>> = if cfg.workload == Workload::ProgramEmbed {
        (0..cfg.pool)
            .map(|slot| {
                let src = workload::pool_source(cfg.seed, slot);
                let prog = extract_encoded(&src, &bundle.vocab, &opts)
                    .map_err(|e| format!("pool slot {slot}: {e}"))?;
                let req = Request {
                    op: Op::Embed,
                    source: src,
                    canon: false,
                    pool: Some(slot),
                };
                let mut frame = Vec::new();
                write_frame_into(
                    &mut frame,
                    &mut String::new(),
                    &req.to_json(Some(&program_to_json(&prog))),
                );
                Ok(frame)
            })
            .collect::<Result<_, String>>()?
    } else {
        Vec::new()
    };

    let store_dir = cfg.scratch.join(format!(
        "store-{}-{}",
        cfg.workload.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&store_dir);
    let config = ServerConfig {
        store_path: (cfg.workload == Workload::CanonIndex).then(|| store_dir.clone()),
        ..ServerConfig::default()
    };

    // Set-up: checkpoint load → server start → first ping reply, timed
    // `trials` times; the last server stays up for the run.
    let ping = Json::obj(vec![("op", Json::str("ping"))]);
    let mut setups = Vec::new();
    let mut kept = None;
    for trial in 0..cfg.trials.max(1) {
        let start = Instant::now();
        let b = ModelBundle::load_from_path(&cfg.fixture).map_err(|e| format!("fixture: {e}"))?;
        let handle = serve(&b, config.clone()).map_err(io_err("serve"))?;
        let mut admin = Client::connect(handle.local_addr()).map_err(io_err("connect"))?;
        let pong = admin.call(&ping).map_err(io_err("ping"))?;
        setups.push(start.elapsed().as_secs_f64());
        if pong.get("pong").and_then(Json::as_bool) != Some(true) {
            return Err(format!("bad ping reply {pong}"));
        }
        if trial + 1 < cfg.trials {
            drop(admin);
            handle.shutdown();
            handle.join();
        } else {
            kept = Some((handle, admin));
        }
    }
    let (handle, mut admin) = kept.expect("at least one trial");

    if cfg.workload == Workload::CanonIndex {
        for src in workload::warm_index_sources(cfg.seed) {
            let req = Request {
                op: Op::Index,
                source: src,
                canon: true,
                pool: None,
            };
            let reply = admin
                .call(&req.to_json(None))
                .map_err(io_err("warm index"))?;
            if reply.get("ok").and_then(Json::as_bool) != Some(true) {
                return Err(format!("warm index failed: {reply}"));
            }
        }
    }

    let stats_req = Json::obj(vec![("op", Json::str("stats"))]);
    let (tally, stats_t0) = drive(
        cfg,
        handle.local_addr(),
        &pool_frames,
        &mut admin,
        &stats_req,
    )?;
    let stats_end = admin.call(&stats_req).map_err(io_err("stats"))?;
    let peak_rss_mb = vm_hwm_kb()? / 1024.0;
    drop(admin);
    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_dir_all(&store_dir);

    let failures = check_replies(cfg, &bundle, &opts, &tally.sampled);
    report(
        cfg,
        &tally,
        &stats_t0,
        &stats_end,
        median(&setups),
        peak_rss_mb,
        failures,
    )
}

/// Runs warm-up and the measured window; returns the tallies and the
/// `stats` reply taken as the window opened.
fn drive(
    cfg: &LiveConfig,
    addr: std::net::SocketAddr,
    pool_frames: &[Vec<u8>],
    admin: &mut Client,
    stats_req: &Json,
) -> Result<(Tally, Json), String> {
    let mut poller = Poller::new().map_err(io_err("poller"))?;
    let start = Instant::now();
    let mut conns = Vec::with_capacity(CONNS);
    for c in 0..CONNS {
        let stream = TcpStream::connect(addr).map_err(io_err("connect"))?;
        stream.set_nodelay(true).map_err(io_err("nodelay"))?;
        stream
            .set_nonblocking(true)
            .map_err(io_err("nonblocking"))?;
        poller
            .register(stream.as_raw_fd(), c as u64, Interest::READ_WRITE)
            .map_err(io_err("register"))?;
        conns.push(Conn {
            stream,
            reader: FrameReader::new(),
            out: Vec::new(),
            pending: VecDeque::new(),
            free_since: start,
        });
    }

    let open = cfg.workload.open_loop();
    let t0 = start + cfg.warmup;
    let t_end = t0 + cfg.window;
    let schedule: Vec<Instant> = if open {
        let warm = workload::arrivals(cfg.seed, 0, workload::OPEN_RATE, cfg.warmup.as_secs_f64());
        let window = workload::arrivals(cfg.seed, 1, workload::OPEN_RATE, cfg.window.as_secs_f64());
        warm.iter()
            .map(|&s| start + Duration::from_secs_f64(s))
            .chain(window.iter().map(|&s| t0 + Duration::from_secs_f64(s)))
            .collect()
    } else {
        Vec::new()
    };

    let mut tally = Tally::default();
    let mut scratch = String::new();
    let mut events: Vec<Event> = Vec::new();
    let mut stats_t0: Option<Json> = None;
    let mut next = 0u64;
    loop {
        // Replies first: a closed-loop connection they free sends again
        // in this same iteration, before the poller can sleep.
        for conn in &mut conns {
            receive(conn, open, (t0, t_end), &mut tally)?;
        }
        let now = Instant::now();
        if stats_t0.is_none() && now >= t0 {
            stats_t0 = Some(admin.call(stats_req).map_err(io_err("stats"))?);
        }

        if open {
            while let Some(&due) = schedule.get(next as usize) {
                if due > Instant::now() {
                    break;
                }
                let c = next as usize % CONNS;
                send(
                    &mut conns[c],
                    next,
                    due,
                    due >= t0,
                    cfg,
                    pool_frames,
                    &mut scratch,
                    &mut tally,
                );
                next += 1;
            }
        } else if now < t_end {
            for conn in &mut conns {
                if conn.pending.is_empty() {
                    let sent = Instant::now();
                    let measured = sent >= t0;
                    if measured {
                        tally.lag_ms.push(ms(sent - conn.free_since));
                    }
                    send(
                        conn,
                        next,
                        sent,
                        measured,
                        cfg,
                        pool_frames,
                        &mut scratch,
                        &mut tally,
                    );
                    next += 1;
                }
            }
        }

        for conn in &mut conns {
            flush(conn)?;
        }

        let now = Instant::now();
        let mut unresolved = false;
        for conn in &mut conns {
            for p in conn
                .pending
                .iter_mut()
                .filter(|p| p.measured && !p.timed_out)
            {
                if now.duration_since(p.due) > DEADLINE {
                    p.timed_out = true;
                    tally.timeouts += 1;
                } else {
                    unresolved = true;
                }
            }
        }
        let sending = if open {
            (next as usize) < schedule.len()
        } else {
            now < t_end
        };
        if !sending && !unresolved {
            break;
        }

        let mut wake = now + Duration::from_millis(5);
        if stats_t0.is_none() {
            wake = wake.min(t0);
        }
        if let Some(&due) = schedule.get(next as usize) {
            wake = wake.min(due);
        }
        if !open && now < t_end {
            wake = wake.min(t_end);
        }
        // epoll's millisecond timeout is rounded down; the last partial
        // millisecond before a due arrival is spent polling, so the
        // generator's own lag stays far below the latencies it measures.
        let timeout = wake.saturating_duration_since(Instant::now()).as_millis() as i32;
        poller.wait(&mut events, timeout).map_err(io_err("poll"))?;
    }
    Ok((tally, stats_t0.unwrap_or(Json::Null)))
}

#[allow(clippy::too_many_arguments)]
fn send(
    conn: &mut Conn,
    idx: u64,
    due: Instant,
    measured: bool,
    cfg: &LiveConfig,
    pool_frames: &[Vec<u8>],
    scratch: &mut String,
    tally: &mut Tally,
) {
    let before = conn.out.len();
    let req = workload::request(cfg.workload, cfg.seed, idx, pool_frames.len());
    match req.pool {
        Some(slot) => conn.out.extend_from_slice(&pool_frames[slot]),
        None => write_frame_into(&mut conn.out, scratch, &req.to_json(None)),
    }
    if measured {
        tally.attempted += 1;
        tally.request_bytes.push((conn.out.len() - before) as f64);
        if cfg.workload.open_loop() {
            tally.lag_ms.push(ms(Instant::now() - due));
        }
    }
    conn.pending.push_back(Pending {
        idx,
        due,
        measured,
        timed_out: false,
    });
}

fn flush(conn: &mut Conn) -> Result<(), String> {
    while !conn.out.is_empty() {
        match conn.stream.write(&conn.out) {
            Ok(0) => return Err("server closed a load connection".into()),
            Ok(n) => {
                conn.out.drain(..n);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("send: {e}")),
        }
    }
    Ok(())
}

fn receive(
    conn: &mut Conn,
    open: bool,
    window: (Instant, Instant),
    tally: &mut Tally,
) -> Result<(), String> {
    loop {
        while let Some(payload) = conn.reader.next_payload().map_err(io_err("frame"))? {
            let now = Instant::now();
            let frame_len = payload.len() + payload.len().to_string().len() + 1;
            let text = std::str::from_utf8(payload).map_err(|_| "non-UTF-8 reply".to_string())?;
            let reply = serve::json::parse(text).map_err(|e| format!("reply JSON: {e}"))?;
            let p = conn
                .pending
                .pop_front()
                .ok_or("reply with no request outstanding")?;
            if !open {
                conn.free_since = now;
            }
            let flag = |k: &str| reply.get(k).and_then(Json::as_bool) == Some(true);
            if flag("ok") && !p.timed_out && (window.0..window.1).contains(&now) {
                tally.completed += 1;
            }
            if !p.measured || p.timed_out {
                continue;
            }
            if flag("ok") {
                tally.latency_ms.push(ms(now - p.due));
                tally.reply_bytes.push(frame_len as f64);
                if p.idx % CHECK_EVERY == 0 {
                    tally.sampled.push((p.idx, reply));
                }
            } else if flag("busy") {
                tally.busy += 1;
            } else if flag("shed") {
                tally.shed += 1;
            } else {
                eprintln!("request {} failed: {reply}", p.idx);
                tally.errors += 1;
            }
        }
        match conn.reader.fill_from(&mut conn.stream) {
            Ok(0) => return Err("server closed a load connection".into()),
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("receive: {e}")),
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// This process's peak resident set (`VmHWM`), in kB.
fn vm_hwm_kb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(io_err("/proc/self/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Re-derives every sampled reply offline and lists the mismatches.
fn check_replies(
    cfg: &LiveConfig,
    bundle: &ModelBundle,
    opts: &ExtractOptions,
    sampled: &[(u64, Json)],
) -> Vec<String> {
    let (task, params) = match bundle.instantiate() {
        Ok(t) => t,
        Err(e) => return vec![format!("instantiate: {e}")],
    };
    let mut ws = Workspace::new();
    let mut failures = Vec::new();
    for (idx, reply) in sampled {
        let req = workload::request(cfg.workload, cfg.seed, *idx, cfg.pool);
        let fail = |what: &str| format!("request {idx} ({}): {what}", cfg.workload.name());
        let canon_key = || -> Result<u64, String> {
            let enc = CanonEncoder::new().encode(&req.source, &bundle.vocab, opts);
            enc.map(|c| content_hash(&c.encoded))
                .map_err(|e| e.to_string())
        };
        let outcome: Result<(), String> = (|| match req.op {
            Op::Embed => {
                let enc =
                    extract_encoded(&req.source, &bundle.vocab, opts).map_err(|e| e.to_string())?;
                let want = task.embed_in(&mut ws, &params, &enc);
                let got = reply.get("embedding").ok_or("no embedding")?;
                let got = embedding_from_json(got)?;
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                if bits(&got) != bits(&want) {
                    return Err(if req.pool.is_some() {
                        "program-payload embedding differs from its source's offline embedding"
                    } else {
                        "embedding differs from offline extract_encoded + embed_in"
                    }
                    .into());
                }
                Ok(())
            }
            Op::Name => {
                let enc =
                    extract_encoded(&req.source, &bundle.vocab, opts).map_err(|e| e.to_string())?;
                let want = task
                    .name_in(&mut ws, &params, &enc)
                    .ok_or("fixture is not a namer")?;
                let got: Vec<&str> = reply
                    .get("name")
                    .and_then(Json::as_arr)
                    .ok_or("no name")?
                    .iter()
                    .filter_map(Json::as_str)
                    .collect();
                if got != want {
                    return Err(format!(
                        "name {got:?} differs from offline name_in {want:?}"
                    ));
                }
                Ok(())
            }
            Op::Index => {
                let got = key_from_json(reply.get("key").ok_or("no key")?)?;
                if got != canon_key()? {
                    return Err("index key differs from the offline canonical content hash".into());
                }
                Ok(())
            }
            Op::Search => match reply.get("exact") {
                Some(Json::Null) | None => Ok(()),
                Some(exact) => {
                    if key_from_json(exact)? != canon_key()? {
                        return Err(
                            "search exact differs from the offline canonical content hash".into(),
                        );
                    }
                    Ok(())
                }
            },
        })();
        if let Err(what) = outcome {
            failures.push(fail(&what));
        }
    }
    failures
}

/// The child's report: end-to-end metrics, the live per-layer rows, and
/// the check outcome.
fn report(
    cfg: &LiveConfig,
    tally: &Tally,
    stats_t0: &Json,
    stats_end: &Json,
    setup_s: f64,
    peak_rss_mb: f64,
    failures: Vec<String>,
) -> Result<Json, String> {
    let window_s = cfg.window.as_secs_f64();
    let n = tally.latency_ms.len();
    let p50 = percentile(&tally.latency_ms, 0.5).ok_or(format!("only {n} latency samples"))?;
    // A window too short for a tail quantile reports the highest one its
    // samples support, labelled with that quantile.
    let tail = |q: f64| -> Result<(f64, f64), String> {
        match percentile(&tally.latency_ms, q) {
            Some(v) => Ok((q, v)),
            None => {
                highest_percentile(&tally.latency_ms, q).ok_or(format!("only {n} latency samples"))
            }
        }
    };
    let (p95_q, p95) = tail(0.95)?;
    let (p99_q, p99) = tail(0.99)?;
    let lag_p99 = highest_percentile(&tally.lag_ms, 0.99).map_or(0.0, |(_, v)| v);

    let num = |j: &Json, path: &[&str]| -> f64 {
        let mut v = Some(j);
        for k in path {
            v = v.and_then(|x| x.get(k));
        }
        v.and_then(Json::as_f64).unwrap_or(0.0)
    };
    let delta = |path: &[&str]| num(stats_end, path) - num(stats_t0, path);
    let batches = delta(&["batches"]);
    let hits = delta(&["canon", "hits"]);
    let lookups = hits + delta(&["canon", "misses"]);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let server_p50_ms = num(stats_end, &["p50_us"]) / 1e3;

    let metrics = vec![
        ("setup_child_s", setup_s),
        ("throughput_rps", tally.completed as f64 / window_s),
        ("p50_ms", p50),
        ("p95_ms", p95),
        ("p95_quantile", p95_q),
        ("p99_ms", p99),
        ("p99_quantile", p99_q),
        ("latency_samples", n as f64),
        ("mean_ms", mean(&tally.latency_ms)),
        (
            "failed_frac",
            ratio(tally.failed() as f64, tally.attempted as f64),
        ),
        ("peak_rss_mb", peak_rss_mb),
        ("loadgen.lag_p99_ms", lag_p99),
        ("serve.batch_factor", ratio(delta(&["requests"]), batches)),
        ("serve.server_p50_ms", server_p50_ms),
        ("serve.server_p99_ms", num(stats_end, &["p99_us"]) / 1e3),
        ("serve.frontend_ms", p50 - server_p50_ms),
        ("protocol.request_bytes", mean(&tally.request_bytes)),
        ("protocol.reply_bytes", mean(&tally.reply_bytes)),
        ("liger.canon_memo_hit_ratio", ratio(hits, lookups)),
        ("index.entries", num(stats_end, &["index", "entries"])),
    ];
    Ok(Json::obj(vec![
        (
            "metrics",
            Json::obj(
                metrics
                    .into_iter()
                    .map(|(k, v)| (k, Json::Num(v)))
                    .collect(),
            ),
        ),
        ("attempted", Json::num(tally.attempted as usize)),
        ("failed", Json::num(tally.failed() as usize)),
        ("busy", Json::num(tally.busy as usize)),
        ("shed", Json::num(tally.shed as usize)),
        ("errors", Json::num(tally.errors as usize)),
        ("timeouts", Json::num(tally.timeouts as usize)),
        ("checked", Json::num(tally.sampled.len())),
        (
            "check_failures",
            Json::Arr(failures.into_iter().map(Json::str).collect()),
        ),
    ]))
}
