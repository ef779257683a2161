//! The liger-serve front end: a nonblocking epoll event loop fanning
//! requests out to sharded micro-batching inference workers.
//!
//! ```text
//!  clients ──► event-loop thread ──► shard queues ──► shard batchers
//!  (frames)    (epoll, edge-style    (bounded          (one per shard:
//!               readiness; per-conn   sync_channel      coalesce ≤ batch_max
//!               state machines,       per shard,        or batch_timeout_ms,
//!               admission control)    hash-routed)      one shared Inferencer)
//!                      ▲                                      │
//!                      └────── completions + eventfd wake ────┘
//! ```
//!
//! - **Event loop.** One thread fronts every connection through raw
//!   `epoll` (edge-triggered; `poll(2)` off-Linux — see [`crate::epoll`]).
//!   Per-connection state machines reuse their read/write buffers, so
//!   the framing hot path allocates nothing in steady state. Replies are
//!   released strictly in request-arrival order per connection
//!   ([`crate::conn`]), preserving the PR 3 pipelining contract.
//! - **Sharding.** CPU-bound requests route to one of N shards by a
//!   stable content hash — [`content_hash`] over pre-extracted program
//!   structure, [`source_hash`] over raw source bytes for `source`
//!   inputs and `lint` (both extraction and the lint analyses run on
//!   the shard, keeping the loop thread I/O-only): routing depends only
//!   on the request, never on load or timing, so batch *composition* is
//!   workload-determined while results stay bitwise identical to the
//!   training tape's forward pass regardless of shard count. Each shard
//!   owns a bounded queue and its own `serve.shard{i}.*` instruments; all
//!   shards read one [`Inferencer`].
//! - **Backpressure & admission control.** A full shard queue yields the
//!   BUSY reply (retry soon). *Before* any queue is touched, admission
//!   control sheds work with the distinct SHED reply: connections over
//!   `max_conns` are answered-and-closed at accept, and requests beyond
//!   the global in-flight budget are refused (back off hard).
//! - **Shutdown & drain.** SIGTERM/ctrl-c (wired in the binary) or the
//!   admin `shutdown` verb sets a flag; the listener closes, and every
//!   connection drains: requests already parsed-and-enqueued are
//!   answered across all shards before their connection closes, and the
//!   loop exits only when no connection owes a reply. Accepted work is
//!   never dropped — but delivery is bounded: a peer that refuses to
//!   read its replies is force-closed once the drain deadline
//!   (`drain_deadline_ms`) passes, so one stalled client cannot hang
//!   [`ServerHandle::join`] forever.
//! - **Determinism.** Inference runs the tape-free engine, whose f32
//!   results are a pure function of the program — bitwise identical to
//!   the training tape's `LigerModel::encode` for every shard count and
//!   batch shape (proptest-gated in `tests/serve_properties.rs`).

use crate::conn::Conn;
use crate::epoll::{Event, Interest, Poller, Waker};
use crate::json::Json;
use crate::protocol::{
    busy_response, embedding_to_json, error_response, index_error_response, index_response,
    lint_response, ok_response, search_response, shed_response, write_frame, InferInput, InferKind,
    Request,
};
use crate::stats::{ServeStats, StatsSnapshot};
use index::{Index, IndexConfig, IndexStats, SearchOptions};
use liger::{CanonEncoder, EncodedProgram, ExtractOptions, Inferencer, ModelBundle};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Maximum requests coalesced into one forward-pass batch (per shard).
    pub batch_max: usize,
    /// How long a shard batcher waits for more requests after the first.
    pub batch_timeout_ms: u64,
    /// Bounded queue capacity *per shard*; beyond it, requests get BUSY.
    pub queue_cap: usize,
    /// Inference shard count; 0 = one per hardware thread.
    pub shards: usize,
    /// Open-connection cap; excess sockets get a SHED frame and close.
    pub max_conns: usize,
    /// Global in-flight request budget (admission control); 0 derives
    /// `2 × shards × (queue_cap + batch_max)`.
    pub max_inflight: usize,
    /// How long graceful shutdown waits for connections that still owe
    /// replies before force-closing them. A peer that never reads its
    /// pending replies could otherwise hold `join` (and process exit)
    /// hostage forever.
    pub drain_deadline_ms: u64,
    /// How MiniLang sources are traced and encoded server-side.
    pub extract: ExtractOptions,
    /// Where the embedding index persists (`LGRI1`). `None` keeps the
    /// index in memory only. When the file exists it is loaded at
    /// startup (refusing dim/fingerprint mismatches); the index is
    /// written back on graceful shutdown, atomically.
    pub index_path: Option<std::path::PathBuf>,
    /// Root of the content-addressed artifact store (`LGRS1`). Shard
    /// workers resolve embedding requests through it before the batched
    /// forward pass: a hit skips the forward pass entirely, and every
    /// entry is stamped with the bundle's fingerprint so a swapped
    /// checkpoint reads as a miss, never a stale embedding.
    pub store_path: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            batch_max: 16,
            batch_timeout_ms: 5,
            queue_cap: 64,
            shards: 0,
            max_conns: 1024,
            max_inflight: 0,
            drain_deadline_ms: 5000,
            extract: ExtractOptions::default(),
            index_path: None,
            store_path: None,
        }
    }
}

/// Model state shared by every thread (read-only after startup, except
/// the shutdown flag and the completion queue).
struct Shared {
    /// The model, its vocabulary, and its weights; every shard thread
    /// borrows it.
    infer: Inferencer,
    extract: ExtractOptions,
    stats: ServeStats,
    /// The embedding index behind the `index` / `search` / `similar`
    /// ops. A plain mutex: every touch happens on shard threads (never
    /// the event loop), and the critical sections are small next to the
    /// forward passes that precede them. Determinism across shard
    /// counts does not depend on lock order — search results are a pure
    /// function of the stored *set*, not of insertion interleaving.
    index: Mutex<Index>,
    /// The canonical-key encoding memo behind `"canon": true` requests:
    /// `canon_hash` → encoded canonical form, shared across shards so a
    /// variant seen by any shard collapses for all of them. Same locking
    /// story as `index`: only shard threads touch it, and a memo hit
    /// skips an entire trace-and-encode pass, which dwarfs the critical
    /// section.
    canon: Mutex<CanonEncoder>,
    /// Where [`ServerHandle::join`] persists the index, if anywhere.
    index_path: Option<std::path::PathBuf>,
    /// The content-addressed artifact store, if configured. Shard
    /// threads consult it for cached embeddings keyed by the routing
    /// content hash; corruption never takes a request down — the shard
    /// recomputes and counts `serve.store_error`.
    astore: Option<store::Store>,
    /// The bundle fingerprint stamped on every cached embedding.
    model_fp: String,
    shutdown: AtomicBool,
    /// Shard → event-loop reply channel, drained on eventfd wake.
    completions: Mutex<Vec<Completion>>,
    /// Nudges the event loop when completions land (or on shutdown).
    waker: Waker,
}

/// One queued unit of shard work, addressed back to its connection.
struct Job {
    work: Work,
    /// Connection slot in the event loop.
    slot: usize,
    /// Slot-reuse guard (see [`Conn::generation`]).
    generation: u64,
    /// Per-connection reply-ordering sequence number.
    seq: u64,
    queued: Instant,
}

/// What a shard runs for one job. Everything CPU-bound ships here —
/// including `source` extraction and the lint analyses — so the
/// event-loop thread stays I/O-only: one request carrying a huge
/// MiniLang source must never stall accepts, reads, and reply flushes
/// for every other connection behind its parse.
enum Work {
    /// Run the model.
    Infer(InferKind, InferPayload),
    /// Parse/typecheck/lint a source (never touches the model).
    Lint(String),
    /// Embed and store in the embedding index.
    Index(InferPayload),
    /// Embed and query the embedding index.
    Search(InferPayload, SearchOptions),
}

/// An inference job's input, exactly as the client sent it.
enum InferPayload {
    /// A pre-extracted program (routed by [`content_hash`]). Boxed so
    /// the enum stays pointer-sized next to the `Source` variant.
    Encoded(Box<EncodedProgram>),
    /// MiniLang source; the shard traces and encodes it (routed by
    /// [`source_hash`]).
    Source(String),
    /// MiniLang source with `"canon": true`; the shard canonicalizes it
    /// and serves the encoding of the canonical form through the shared
    /// `canon_hash` memo (routed by [`source_hash`] — the canonical key
    /// is not known until the shard has parsed the source).
    CanonSource(String),
}

/// What happens to a resolved job's forward-pass output.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ReadyOp {
    /// Reply with the inference result itself.
    Infer(InferKind),
    /// Insert the embedding into the index under the program's
    /// content hash.
    Index,
    /// Query the index with the embedding.
    Search(SearchOptions),
}

impl ReadyOp {
    /// Whether this op's forward pass is the batched embed call.
    fn needs_embedding(self) -> bool {
        !matches!(self, ReadyOp::Infer(InferKind::Name | InferKind::Classify))
    }
}

/// An inference job resolved to its encoded program on the shard
/// thread, ready for the batcher's batched/fan-out paths.
struct Ready {
    op: ReadyOp,
    prog: EncodedProgram,
    slot: usize,
    generation: u64,
    seq: u64,
    queued: Instant,
}

/// A finished job's reply, travelling shard → event loop.
struct Completion {
    slot: usize,
    generation: u64,
    seq: u64,
    reply: Json,
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`ServerHandle::shutdown`] then [`ServerHandle::join`].
pub struct ServerHandle {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    event_loop: Option<JoinHandle<()>>,
    shard_threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A point-in-time copy of the server counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Requests graceful shutdown (idempotent, non-blocking).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
    }

    /// Whether every server thread has exited.
    pub fn is_finished(&self) -> bool {
        self.event_loop.as_ref().is_none_or(JoinHandle::is_finished)
            && self.shard_threads.iter().all(JoinHandle::is_finished)
    }

    /// Waits for the event loop and every shard batcher to finish, then
    /// persists the embedding index (if an `index_path` is configured) —
    /// after the threads exit, no insert can race the save.
    pub fn join(mut self) {
        if let Some(t) = self.event_loop.take() {
            t.join().expect("event-loop thread panicked");
        }
        for t in self.shard_threads.drain(..) {
            t.join().expect("shard thread panicked");
        }
        if let Some(path) = &self.shared.index_path {
            let idx = self.shared.index.lock().expect("index poisoned");
            if let Err(e) = idx.save(path) {
                eprintln!("liger-serve: failed to save index {}: {e}", path.display());
            }
        }
    }
}

/// Stable FNV-1a hash of a program's *structure* — the shard routing
/// key. It walks the same shape `protocol::program_to_json` serializes
/// (trace/step/tree/state tokens plus arity delimiters), so it depends
/// only on the program content, never on pool-id assignment, process
/// layout, or arrival order: one program always routes to one shard,
/// which is what keeps `stats` aggregation and drain accounting
/// deterministic under resharding.
pub fn content_hash(prog: &EncodedProgram) -> u64 {
    use store::hash::Fnv64 as Fnv;
    fn tree(h: &mut Fnv, t: liger::TreeId, prog: &EncodedProgram) {
        let node = prog.pool.tree(t);
        h.num(1);
        h.num(node.token as u64);
        h.num(node.children.len() as u64);
        for &c in &node.children {
            tree(h, c, prog);
        }
    }
    let mut h = Fnv::new();
    h.num(prog.traces.len() as u64);
    for tr in &prog.traces {
        h.num(2);
        h.num(tr.steps.len() as u64);
        for step in &tr.steps {
            tree(&mut h, step.tree, prog);
            h.num(3);
            h.num(step.states.len() as u64);
            for &s in &step.states {
                let state = prog.pool.state(s);
                h.num(4);
                for v in &state.vars {
                    match v {
                        liger::PoolVar::Primitive(tok) => {
                            h.num(5);
                            h.num(*tok as u64);
                        }
                        liger::PoolVar::Object(obj) => {
                            h.num(6);
                            for &t in prog.pool.object(*obj) {
                                h.num(t as u64);
                            }
                        }
                    }
                }
            }
        }
    }
    h.finish()
}

/// Stable FNV-1a hash of a raw source string — the routing key for the
/// jobs a shard parses itself (`source` inference inputs and lint),
/// and the artifact-store key for source-derived caches. Delegates to
/// the workspace-shared hasher so the routing and store key spaces are
/// one; it depends only on the request bytes, so one source always
/// routes to one shard.
pub fn source_hash(src: &str) -> u64 {
    store::hash::fnv1a_str(src)
}

/// Opens (or creates) the embedding index for `bundle`: loads
/// `index_path` when the file exists, otherwise starts empty.
///
/// # Errors
///
/// `InvalidData` when the file is corrupt or was written by a different
/// model (its typed kind is preserved in the message).
fn open_index(
    bundle: &ModelBundle,
    index_path: Option<&std::path::Path>,
) -> io::Result<Index> {
    let fingerprint = bundle.fingerprint();
    let dim = bundle.cfg.hidden;
    match index_path {
        Some(path) if path.exists() => {
            Index::load(path, dim, &fingerprint, IndexConfig::default()).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("cannot load index {}: {e} ({})", path.display(), e.kind()),
                )
            })
        }
        _ => Ok(Index::new(dim, fingerprint)),
    }
}

/// Instantiates `bundle` and starts serving it.
///
/// # Errors
///
/// Returns `InvalidData` when the bundle's parameters do not match its
/// declared architecture or a configured index file is unusable, the
/// bind error, or the poller setup error.
pub fn serve(bundle: &ModelBundle, config: ServerConfig) -> io::Result<ServerHandle> {
    let infer = Inferencer::from_bundle(bundle)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let idx = open_index(bundle, config.index_path.as_deref())?;
    let astore = match config.store_path.as_deref() {
        Some(dir) => Some(store::Store::open(dir).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("cannot open artifact store {}: {e}", dir.display()),
            )
        })?),
        None => None,
    };
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let local_addr = listener.local_addr()?;

    let shards = if config.shards == 0 { par::hardware_threads() } else { config.shards };
    let queue_cap = config.queue_cap.max(1);
    let batch_max = config.batch_max.max(1);
    let max_inflight = if config.max_inflight == 0 {
        2 * shards * (queue_cap + batch_max)
    } else {
        config.max_inflight
    };
    // Each shard's inner fan-out takes only its slice of the pool, so N
    // shards together never oversubscribe the configured thread count.
    let inner_cap = (par::threads() / shards).max(1);

    let shared = Arc::new(Shared {
        infer,
        extract: config.extract.clone(),
        stats: ServeStats::new(shards),
        index: Mutex::new(idx),
        canon: Mutex::new(CanonEncoder::new()),
        index_path: config.index_path.clone(),
        astore,
        model_fp: bundle.fingerprint(),
        shutdown: AtomicBool::new(false),
        completions: Mutex::new(Vec::new()),
        waker: Waker::new()?,
    });

    let mut senders = Vec::with_capacity(shards);
    let mut shard_threads = Vec::with_capacity(shards);
    let timeout = Duration::from_millis(config.batch_timeout_ms);
    for shard in 0..shards {
        let (tx, rx) = std::sync::mpsc::sync_channel::<Job>(queue_cap);
        senders.push(tx);
        let shared = Arc::clone(&shared);
        shard_threads.push(
            std::thread::Builder::new()
                .name(format!("liger-serve-shard{shard}"))
                .spawn(move || shard_loop(&shared, shard, &rx, batch_max, timeout, inner_cap))?,
        );
    }

    let event_loop = {
        let shared = Arc::clone(&shared);
        let max_conns = config.max_conns.max(1);
        let mut poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.register(shared.waker.raw_fd(), TOKEN_WAKER, Interest::READ)?;
        let state = EventLoop {
            shared,
            poller,
            listener: Some(listener),
            senders,
            conns: Vec::new(),
            free: Vec::new(),
            open: 0,
            inflight: 0,
            next_gen: 0,
            max_conns,
            max_inflight,
            drain_deadline: Duration::from_millis(config.drain_deadline_ms),
            drain_started: None,
            frame_scratch: Vec::new(),
            completion_scratch: Vec::new(),
            touched: Vec::new(),
        };
        std::thread::Builder::new()
            .name("liger-serve-loop".to_string())
            .spawn(move || state.run())?
    };

    Ok(ServerHandle {
        local_addr,
        shared,
        event_loop: Some(event_loop),
        shard_threads,
    })
}

const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKER: u64 = u64::MAX - 1;

/// How long `epoll_wait` may sleep: the fallback cadence for noticing a
/// shutdown requested without a wake (e.g. from a signal handler).
const WAIT_MS: i32 = 25;

/// The event-loop thread's whole world. Single-threaded by design:
/// shards talk to it only through the completion queue + waker.
struct EventLoop {
    shared: Arc<Shared>,
    poller: Poller,
    /// `None` once shutdown closed it.
    listener: Option<TcpListener>,
    senders: Vec<SyncSender<Job>>,
    /// Connection slab indexed by slot (= poll token).
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    open: usize,
    /// Jobs accepted into shard queues and not yet completed. Only this
    /// thread touches it: enqueue and completion both happen here.
    inflight: usize,
    next_gen: u64,
    max_conns: usize,
    max_inflight: usize,
    /// Grace period for the shutdown drain; see [`ServerConfig`].
    drain_deadline: Duration,
    /// When the loop first observed the shutdown flag.
    drain_started: Option<Instant>,
    /// Reused between events: parsed-but-undispatched frames.
    frame_scratch: Vec<Json>,
    /// Reused double-buffer for draining the completion queue.
    completion_scratch: Vec<Completion>,
    /// Slots touched by the last completion drain (need flushing).
    touched: Vec<usize>,
}

impl EventLoop {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.poller.wait(&mut events, WAIT_MS).is_err() {
                // Poller died (fd exhaustion at registration is handled
                // per-connection; this is unrecoverable).
                break;
            }
            for &ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => self.shared.waker.drain(),
                    slot => self.conn_ready(slot as usize, ev),
                }
            }
            self.process_completions();
            if self.shared.shutdown.load(Ordering::SeqCst) {
                let started = *self.drain_started.get_or_insert_with(Instant::now);
                self.drain_step(started.elapsed() >= self.drain_deadline);
                if self.open == 0 && self.inflight == 0 {
                    break;
                }
            }
        }
        // Dropping `senders` disconnects every shard queue; the shard
        // loops finish whatever is buffered (nothing, by the loop-exit
        // condition) and exit.
    }

    /// Accepts until the listener would block, shedding over-cap sockets.
    fn accept_ready(&mut self) {
        loop {
            let accepted = match &self.listener {
                Some(listener) => listener.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, _peer)) => {
                    if self.open >= self.max_conns {
                        self.shed_conn(stream, "connection limit reached, try another replica");
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let slot = self.free.pop().unwrap_or_else(|| {
                        self.conns.push(None);
                        self.conns.len() - 1
                    });
                    self.next_gen += 1;
                    if self.poller.register(stream.as_raw_fd(), slot as u64, Interest::READ).is_err()
                    {
                        // Same contract as the over-cap path: the client
                        // gets one SHED frame instead of a bare reset,
                        // and the slot returns to the free list unused.
                        self.free.push(slot);
                        self.shed_conn(stream, "server cannot register the connection, back off");
                        continue;
                    }
                    self.conns[slot] = Some(Conn::new(stream, self.next_gen));
                    self.open += 1;
                    self.shared.stats.record_conn_opened();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Best-effort SHED reply to a connection refused at the door
    /// (over `max_conns`, or the poller would not take its fd).
    fn shed_conn(&mut self, stream: TcpStream, reason: &str) {
        self.shared.stats.record_shed();
        let _ = stream.set_nonblocking(true);
        let mut stream = stream;
        let _ = write_frame(&mut stream, &shed_response(reason));
        // Dropping the stream closes it; the frame either made the
        // socket buffer in one write or the client sees a plain reset.
    }

    /// One connection's readiness: flush writes, then drain reads.
    fn conn_ready(&mut self, slot: usize, ev: Event) {
        if self.conns.get(slot).is_none_or(Option::is_none) {
            return; // already closed this iteration
        }
        if ev.writable && !self.flush_slot(slot) {
            return; // connection died on flush
        }
        if ev.readable {
            self.read_ready(slot);
        }
        self.settle(slot);
    }

    /// Drains the socket (edge-triggered: until `WouldBlock`), parsing
    /// and dispatching every complete frame.
    fn read_ready(&mut self, slot: usize) {
        let mut frames = std::mem::take(&mut self.frame_scratch);
        let mut framing_error: Option<io::Error> = None;
        let mut dead = false;
        {
            let Some(conn) = self.conns[slot].as_mut() else {
                self.frame_scratch = frames;
                return;
            };
            if conn.fatal {
                // Already replied with a protocol error; ignore the rest.
                self.frame_scratch = frames;
                return;
            }
            'fill: loop {
                match conn.reader.fill_from(&mut conn.stream) {
                    Ok(0) => {
                        conn.peer_closed = true;
                        break 'fill;
                    }
                    Ok(_) => loop {
                        match conn.reader.next_frame() {
                            Ok(Some(frame)) => frames.push(frame),
                            Ok(None) => break,
                            Err(e) => {
                                framing_error = Some(e);
                                break 'fill;
                            }
                        }
                    },
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break 'fill,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        dead = true;
                        break 'fill;
                    }
                }
            }
        }
        if dead {
            frames.clear();
            self.frame_scratch = frames;
            self.close_conn(slot);
            return;
        }
        for frame in frames.drain(..) {
            self.dispatch(slot, frame);
        }
        self.frame_scratch = frames;
        if let Some(e) = framing_error {
            // Frames already parsed keep their replies; the error reply
            // takes the next sequence slot, then the connection closes
            // once everything has flushed.
            if let Some(conn) = self.conns[slot].as_mut() {
                conn.fatal = true;
                let seq = conn.assign_seq();
                conn.complete(seq, error_response(e.to_string()));
            }
        }
    }

    /// Routes one parsed request: admin verbs answer inline (through the
    /// ordering ledger); inference *and every other CPU-bound verb*
    /// (lint, `source` extraction) hash to a shard queue — the loop
    /// thread itself only parses frames and moves bytes.
    fn dispatch(&mut self, slot: usize, frame: Json) {
        let Some(conn) = self.conns[slot].as_mut() else { return };
        let seq = conn.assign_seq();
        let generation = conn.generation;
        let request = match Request::from_json(&frame) {
            Ok(request) => request,
            Err(msg) => return self.complete_inline(slot, seq, error_response(msg)),
        };
        let (key, work) = match request {
            Request::Ping => {
                return self.complete_inline(slot, seq, ok_response(vec![("pong", Json::Bool(true))]))
            }
            Request::Stats => {
                let index_stats = self.shared.index.lock().expect("index poisoned").stats();
                let canon_stats = {
                    let memo = self.shared.canon.lock().expect("canon memo poisoned");
                    CanonMemoStats { entries: memo.len(), hits: memo.hits, misses: memo.misses }
                };
                let reply =
                    stats_response(&self.shared.stats.snapshot(), &index_stats, &canon_stats);
                return self.complete_inline(slot, seq, reply);
            }
            Request::Shutdown => {
                self.shared.shutdown.store(true, Ordering::SeqCst);
                return self
                    .complete_inline(slot, seq, ok_response(vec![("shutting_down", Json::Bool(true))]));
            }
            Request::Lint(src) => (source_hash(&src), Work::Lint(src)),
            Request::Infer(kind, InferInput::Encoded(prog)) => {
                (content_hash(&prog), Work::Infer(kind, InferPayload::Encoded(prog)))
            }
            Request::Infer(kind, InferInput::Source(src)) => {
                (source_hash(&src), Work::Infer(kind, InferPayload::Source(src)))
            }
            Request::Infer(kind, InferInput::CanonSource(src)) => {
                (source_hash(&src), Work::Infer(kind, InferPayload::CanonSource(src)))
            }
            Request::Index(InferInput::Encoded(prog)) => {
                (content_hash(&prog), Work::Index(InferPayload::Encoded(prog)))
            }
            Request::Index(InferInput::Source(src)) => {
                (source_hash(&src), Work::Index(InferPayload::Source(src)))
            }
            Request::Index(InferInput::CanonSource(src)) => {
                (source_hash(&src), Work::Index(InferPayload::CanonSource(src)))
            }
            Request::Search(InferInput::Encoded(prog), opts) => {
                (content_hash(&prog), Work::Search(InferPayload::Encoded(prog), opts))
            }
            Request::Search(InferInput::Source(src), opts) => {
                (source_hash(&src), Work::Search(InferPayload::Source(src), opts))
            }
            Request::Search(InferInput::CanonSource(src), opts) => {
                (source_hash(&src), Work::Search(InferPayload::CanonSource(src), opts))
            }
        };
        if self.inflight >= self.max_inflight {
            self.shared.stats.record_shed();
            let reply = shed_response("server over its in-flight budget, back off");
            return self.complete_inline(slot, seq, reply);
        }
        let shard = (key % self.senders.len() as u64) as usize;
        // Lint rides the queues but is not an inference request: it
        // moves the queue-depth gauges, never the `requests` counter.
        // Index and search run a forward pass, so they count.
        let infer = !matches!(work, Work::Lint(_));
        if infer {
            self.shared.stats.record_enqueued(shard);
        } else {
            self.shared.stats.record_lint_enqueued(shard);
        }
        let job = Job { work, slot, generation, seq, queued: Instant::now() };
        match self.senders[shard].try_send(job) {
            Ok(()) => {
                self.inflight += 1;
                if let Some(conn) = self.conns[slot].as_mut() {
                    conn.inflight += 1;
                }
            }
            Err(TrySendError::Full(_)) => {
                if infer {
                    self.shared.stats.record_enqueue_reverted(shard);
                } else {
                    self.shared.stats.record_lint_reverted(shard);
                }
                self.shared.stats.record_rejected();
                self.complete_inline(slot, seq, busy_response());
            }
            Err(TrySendError::Disconnected(_)) => {
                if infer {
                    self.shared.stats.record_enqueue_reverted(shard);
                } else {
                    self.shared.stats.record_lint_reverted(shard);
                }
                self.complete_inline(slot, seq, error_response("server is shutting down"));
            }
        }
    }

    /// Completes a reply produced on the event-loop thread itself.
    fn complete_inline(&mut self, slot: usize, seq: u64, reply: Json) {
        if let Some(conn) = self.conns[slot].as_mut() {
            conn.complete(seq, reply);
        }
    }

    /// Drains the shard→loop completion queue and flushes the slots it
    /// touched.
    fn process_completions(&mut self) {
        let mut batch = std::mem::take(&mut self.completion_scratch);
        {
            let mut queue = self.shared.completions.lock().expect("completion queue poisoned");
            std::mem::swap(&mut *queue, &mut batch);
        }
        if batch.is_empty() {
            self.completion_scratch = batch;
            return;
        }
        let mut touched = std::mem::take(&mut self.touched);
        touched.clear();
        for done in batch.drain(..) {
            self.inflight -= 1;
            if let Some(conn) = self.conns.get_mut(done.slot).and_then(Option::as_mut) {
                if conn.generation == done.generation {
                    conn.inflight -= 1;
                    conn.complete(done.seq, done.reply);
                    if !touched.contains(&done.slot) {
                        touched.push(done.slot);
                    }
                }
                // A mismatched generation is a completion for a
                // connection that died mid-flight: the global in-flight
                // budget is released, the reply has nowhere to go.
            }
        }
        self.completion_scratch = batch;
        for &slot in &touched {
            if self.flush_slot(slot) {
                self.settle(slot);
            }
        }
        self.touched = touched;
    }

    /// Flushes a connection's write buffer and keeps poller write
    /// interest in sync. Returns `false` if the connection was closed.
    fn flush_slot(&mut self, slot: usize) -> bool {
        let Some(conn) = self.conns[slot].as_mut() else { return false };
        match conn.flush() {
            Ok(drained) => {
                let fd = conn.stream.as_raw_fd();
                if drained && conn.write_armed {
                    conn.write_armed = false;
                    let _ = self.poller.modify(fd, slot as u64, Interest::READ);
                } else if !drained && !conn.write_armed {
                    conn.write_armed = true;
                    let _ = self.poller.modify(fd, slot as u64, Interest::READ_WRITE);
                }
                true
            }
            Err(_) => {
                self.close_conn(slot);
                false
            }
        }
    }

    /// Applies the close rules after I/O or completions changed a
    /// connection's state.
    fn settle(&mut self, slot: usize) {
        if !self.flush_slot(slot) {
            return;
        }
        let Some(conn) = self.conns[slot].as_ref() else { return };
        let close = (conn.fatal && !conn.has_pending_writes() && conn.inflight == 0)
            || (conn.peer_closed && !conn.owes_replies());
        if close {
            self.close_conn(slot);
        }
    }

    /// Shutdown housekeeping, run once per loop iteration while the
    /// flag is set: close the listener, then retire every connection
    /// that owes nothing. Connections still owed replies stay until
    /// their shards complete them — accepted work is never dropped —
    /// until the drain deadline passes (`force`): past it, a peer that
    /// will not take delivery of its replies (never reading, socket
    /// buffers full) is force-closed rather than allowed to hold
    /// [`ServerHandle::join`] hostage. Its in-flight completions are
    /// released by the generation check when they land.
    fn drain_step(&mut self, force: bool) {
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(listener.as_raw_fd());
        }
        for slot in 0..self.conns.len() {
            let closable = match &self.conns[slot] {
                Some(conn) => force || !conn.owes_replies(),
                None => false,
            };
            if closable {
                self.close_conn(slot);
            }
        }
    }

    fn close_conn(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            self.shared.stats.record_conn_closed();
            self.open -= 1;
            self.free.push(slot);
        }
    }
}

/// Runs the always-terminating static analyses on a submitted source and
/// renders the diagnostics. Never touches the model, but parsing and
/// typechecking are CPU-bound, so lint jobs run on the shard workers
/// (routed by [`source_hash`]) rather than the event-loop thread.
fn lint_source(src: &str) -> Json {
    // `LangError` already names its phase ("parse error at line N: …").
    let program = match minilang::parse(src) {
        Ok(p) => p,
        Err(e) => return error_response(e.to_string()),
    };
    if let Err(e) = minilang::typecheck(&program) {
        return error_response(e.to_string());
    }
    lint_response(&analysis::lint::run(&program))
}

/// The token posting list the index keeps per program: every tree and
/// state token the encoded program mentions, as the lexical half of
/// hybrid search. Sorting/deduplication happens inside the store.
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

/// Executes the `index` op against the shared index: key = the same
/// content hash that routed the job, so index identity and shard
/// routing agree on what "the same program" means.
fn index_insert(shared: &Shared, prog: &EncodedProgram, embedding: &[f32]) -> Json {
    let key = content_hash(prog);
    let tokens = program_tokens(prog);
    let mut idx = shared.index.lock().expect("index poisoned");
    match idx.insert(key, embedding, &tokens) {
        Ok(outcome) => index_response(key, outcome, idx.len()),
        Err(e) => index_error_response(&e),
    }
}

/// Executes the `search` / `similar` op against the shared index. The
/// reply leads with the *exact tier*: if a stored program has the same
/// content hash as the query — for `"canon": true` queries, the same
/// canonical form, so every syntactic variant of an indexed routine
/// matches — its key is surfaced as `exact` before the cosine ranking.
fn index_search(
    shared: &Shared,
    prog: &EncodedProgram,
    embedding: &[f32],
    opts: SearchOptions,
) -> Json {
    let key = content_hash(prog);
    let tokens = program_tokens(prog);
    let mut idx = shared.index.lock().expect("index poisoned");
    let exact = idx.store().row_of(key).map(|_| key);
    if exact.is_some() {
        obs::counter!("serve.search_exact").add(1);
    }
    match idx.search(embedding, &tokens, &opts) {
        Ok(result) => search_response(&result, exact),
        Err(e) => index_error_response(&e),
    }
}

/// Point-in-time counters of the canonical-key encoding memo, rendered
/// into the STATS reply's `canon` block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CanonMemoStats {
    /// Distinct canonical forms cached.
    pub entries: usize,
    /// Requests served from the memo (variants that collapsed).
    pub hits: u64,
    /// Requests that encoded a new canonical form.
    pub misses: u64,
}

/// Renders a stats snapshot as the STATS reply payload. The pre-shard
/// top-level fields keep their exact keys and meanings; `shed`, `conns`,
/// the per-shard breakdown, and the `index` / `canon` blocks are
/// appended after them.
pub fn stats_response(
    snap: &StatsSnapshot,
    index_stats: &IndexStats,
    canon_stats: &CanonMemoStats,
) -> Json {
    let shards = snap
        .shards
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Json::obj(vec![
                ("shard", Json::num(i)),
                ("requests", Json::num(s.requests as usize)),
                ("batches", Json::num(s.batches as usize)),
                ("batch_factor", Json::Num((s.batch_factor() * 100.0).round() / 100.0)),
                ("queue_depth", Json::num(s.queue_depth as usize)),
                ("p50_us", Json::num(s.p50_us as usize)),
                ("p99_us", Json::num(s.p99_us as usize)),
            ])
        })
        .collect();
    ok_response(vec![
        ("requests", Json::num(snap.requests as usize)),
        ("batches", Json::num(snap.batches as usize)),
        ("rejected", Json::num(snap.rejected as usize)),
        ("queue_depth", Json::num(snap.queue_depth as usize)),
        ("p50_us", Json::num(snap.p50_us as usize)),
        ("p99_us", Json::num(snap.p99_us as usize)),
        ("shed", Json::num(snap.shed as usize)),
        ("conns", Json::num(snap.conns as usize)),
        ("shards", Json::Arr(shards)),
        (
            "index",
            Json::obj(vec![
                ("entries", Json::num(index_stats.entries)),
                ("bytes", Json::num(index_stats.bytes)),
                ("searches", Json::num(index_stats.searches as usize)),
            ]),
        ),
        (
            "canon",
            Json::obj(vec![
                ("entries", Json::num(canon_stats.entries)),
                ("hits", Json::num(canon_stats.hits as usize)),
                ("misses", Json::num(canon_stats.misses as usize)),
            ]),
        ),
    ])
}

/// One shard's batcher: coalesces its queue into batches, fans each
/// batch out across the shard's slice of the worker pool, and posts the
/// replies to the event loop. Exits when the queue sender is gone
/// **and** the queue is drained — `Receiver::recv` keeps returning
/// buffered jobs after the sender disconnects, so accepted requests
/// always get replies.
fn shard_loop(
    shared: &Arc<Shared>,
    shard: usize,
    jobs: &Receiver<Job>,
    batch_max: usize,
    timeout: Duration,
    inner_cap: usize,
) {
    let mut out: Vec<Completion> = Vec::new();
    loop {
        let first = match jobs.recv() {
            Ok(job) => job,
            Err(_) => return, // sender gone, queue drained
        };
        shared.stats.record_dequeued(shard);
        let mut batch = vec![first];
        let deadline = Instant::now() + timeout;
        while batch.len() < batch_max {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break;
            }
            match jobs.recv_timeout(remaining) {
                Ok(job) => {
                    shared.stats.record_dequeued(shard);
                    batch.push(job);
                }
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }

        // Span opens after the blocking recv: it times coalescing,
        // resolution, fan-out, and replies, not idle queue waits.
        let _span = obs::span!("serve.batch");

        // Resolve each job to a concrete inference input *here*, on the
        // shard thread: lint runs its analyses and `source` inputs get
        // traced-and-encoded off the event loop, whose thread must stay
        // I/O-only. Failures complete immediately as error replies.
        let mut ready: Vec<Ready> = Vec::with_capacity(batch.len());
        for job in batch {
            let Job { work, slot, generation, seq, queued } = job;
            let (op, payload) = match work {
                Work::Lint(src) => {
                    out.push(Completion { slot, generation, seq, reply: lint_source(&src) });
                    continue;
                }
                Work::Infer(kind, payload) => (ReadyOp::Infer(kind), payload),
                Work::Index(payload) => (ReadyOp::Index, payload),
                Work::Search(payload, opts) => (ReadyOp::Search(opts), payload),
            };
            let extracted = match payload {
                InferPayload::Encoded(prog) => Ok(*prog),
                InferPayload::Source(src) => {
                    shared.infer.encode_source(&src, &shared.extract).map_err(|e| e.to_string())
                }
                // The canonical path: parse + canonicalize here, then
                // serve the canonical form's encoding from the shared
                // memo. A hit skips the whole trace-and-encode pass;
                // either way the program the model sees is the
                // canonical one, so content-hash identity (index keys,
                // dedup) collapses across syntactic variants.
                InferPayload::CanonSource(src) => shared
                    .canon
                    .lock()
                    .expect("canon memo poisoned")
                    .encode(&src, &shared.infer.vocab, &shared.extract)
                    .map(|c| c.encoded)
                    .map_err(|e| e.to_string()),
            };
            match extracted {
                Ok(prog) => ready.push(Ready { op, prog, slot, generation, seq, queued }),
                Err(msg) => {
                    out.push(Completion { slot, generation, seq, reply: error_response(msg) })
                }
            }
        }
        let infer_total = ready.len();

        // Embedding-consuming requests — `embed` itself plus `index` and
        // `search`, which post-process the same forward pass — take the
        // batch-major path: all programs in the batch run one engine
        // call, whose f₃ flow step is one packed panel product per weight
        // matrix across every trace. Each result is independent of the
        // batch, so the determinism contract above is unchanged.
        // Name/Classify requests fan out per program (decode is
        // sequential per program anyway).
        let (embeds, rest): (Vec<Ready>, Vec<Ready>) =
            ready.into_iter().partition(|job| job.op.needs_embedding());

        if !embeds.is_empty() {
            obs::counter!("serve.fused_embed_batch").add(embeds.len() as u64);
            // Resolve cache hits through the artifact store first, keyed
            // by the routing content hash + bundle fingerprint. Hits drop
            // out of the batched forward pass entirely; only misses are
            // computed, and their results are written back. A corrupt
            // entry recomputes (counted) rather than failing the request.
            let mut cached: Vec<Option<Vec<f32>>> = vec![None; embeds.len()];
            let mut keys: Vec<u64> = Vec::new();
            if let Some(st) = &shared.astore {
                keys = embeds.iter().map(|job| content_hash(&job.prog)).collect();
                for (slot, key) in cached.iter_mut().zip(&keys) {
                    match st.get(store::ArtifactKind::Embedding, *key, &shared.model_fp) {
                        Ok(Some(payload)) => match store::embedding_from_bytes(&payload) {
                            Ok(emb) => *slot = Some(emb),
                            Err(_) => obs::counter!("serve.store_error").inc(),
                        },
                        Ok(None) => {}
                        Err(_) => obs::counter!("serve.store_error").inc(),
                    }
                }
            }
            let miss_idx: Vec<usize> =
                (0..embeds.len()).filter(|&i| cached[i].is_none()).collect();
            let progs: Vec<&EncodedProgram> =
                miss_idx.iter().map(|&i| &embeds[i].prog).collect();
            let computed = shared.infer.embed_batch(&progs);
            if let Some(st) = &shared.astore {
                for (&i, emb) in miss_idx.iter().zip(&computed) {
                    let payload = store::embedding_to_bytes(emb);
                    if st
                        .put(store::ArtifactKind::Embedding, keys[i], &shared.model_fp, &payload)
                        .is_err()
                    {
                        obs::counter!("serve.store_error").inc();
                    }
                }
            }
            let mut fresh = computed.into_iter();
            let embeddings: Vec<Vec<f32>> = cached
                .into_iter()
                .map(|slot| slot.unwrap_or_else(|| fresh.next().expect("one result per miss")))
                .collect();
            for (job, embedding) in embeds.into_iter().zip(embeddings) {
                shared.stats.record_latency(shard, InferKind::Embed, job.queued.elapsed());
                let reply = match job.op {
                    ReadyOp::Index => index_insert(shared, &job.prog, &embedding),
                    ReadyOp::Search(opts) => index_search(shared, &job.prog, &embedding, opts),
                    ReadyOp::Infer(_) => {
                        ok_response(vec![("embedding", embedding_to_json(&embedding))])
                    }
                };
                out.push(Completion {
                    slot: job.slot,
                    generation: job.generation,
                    seq: job.seq,
                    reply,
                });
            }
        }

        if !rest.is_empty() {
            let mut inputs = Vec::with_capacity(rest.len());
            let mut sinks = Vec::with_capacity(rest.len());
            for job in rest {
                let ReadyOp::Infer(kind) = job.op else {
                    unreachable!("non-infer ops all need embeddings")
                };
                inputs.push((kind, job.prog));
                sinks.push((job.slot, job.generation, job.seq, job.queued, kind));
            }
            let results = par::par_map_ordered_with_cap(
                &inputs,
                &mut Vec::new(),
                || (),
                |(), _i, (kind, prog)| run_inference(&shared.infer, *kind, prog),
                inner_cap,
            );
            for ((slot, generation, seq, queued, kind), reply) in sinks.into_iter().zip(results) {
                shared.stats.record_latency(shard, kind, queued.elapsed());
                out.push(Completion { slot, generation, seq, reply });
            }
        }
        // Only forward passes count as a batch: a coalesced run of pure
        // lint (or failed-extraction) jobs executes no model work.
        if infer_total > 0 {
            shared.stats.record_batch(shard, infer_total);
        }

        // One lock + one wake per batch, not per reply.
        shared.completions.lock().expect("completion queue poisoned").append(&mut out);
        shared.waker.wake();
    }
}

/// One forward pass through the shared [`Inferencer`]: a pure function
/// of the program, no matter which shard, worker, or batch runs it.
fn run_inference(infer: &Inferencer, kind: InferKind, prog: &EncodedProgram) -> Json {
    let _span = obs::span!("serve.infer");
    match kind {
        InferKind::Embed => ok_response(vec![("embedding", embedding_to_json(&infer.embed(prog)))]),
        InferKind::Name => match infer.name(prog) {
            Some(tokens) => ok_response(vec![(
                "name",
                Json::Arr(tokens.into_iter().map(Json::Str).collect()),
            )]),
            None => error_response("this bundle is a classifier; it cannot predict names"),
        },
        InferKind::Classify => match infer.classify(prog) {
            Some((class, label)) => ok_response(vec![
                ("class", Json::num(class)),
                ("label", Json::str(label)),
            ]),
            None => error_response("this bundle is a namer; it cannot classify"),
        },
    }
}

/// A blocking client for the frame protocol. Supports pipelining:
/// [`Client::send`] several requests, then [`Client::recv`] the replies
/// in order. Both directions reuse per-client buffers (a [`FrameReader`]
/// and a write buffer), so a long-lived client allocates nothing for
/// framing in steady state.
///
/// [`FrameReader`]: crate::protocol::FrameReader
pub struct Client {
    stream: TcpStream,
    reader: crate::protocol::FrameReader,
    wbuf: Vec<u8>,
    wscratch: String,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Returns the connect error.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            reader: crate::protocol::FrameReader::new(),
            wbuf: Vec::new(),
            wscratch: String::new(),
        })
    }

    /// Writes one request frame without waiting for the reply.
    ///
    /// # Errors
    ///
    /// Returns the write error.
    pub fn send(&mut self, request: &Json) -> io::Result<()> {
        use std::io::Write;
        self.wbuf.clear();
        crate::protocol::write_frame_into(&mut self.wbuf, &mut self.wscratch, request);
        self.stream.write_all(&self.wbuf)?;
        self.stream.flush()
    }

    /// Reads the next reply frame.
    ///
    /// # Errors
    ///
    /// Returns `UnexpectedEof` if the server closed the connection (mid-
    /// frame or between frames).
    pub fn recv(&mut self) -> io::Result<Json> {
        loop {
            if let Some(frame) = self.reader.next_frame()? {
                return Ok(frame);
            }
            if self.reader.fill_from(&mut self.stream)? == 0 {
                let detail = if self.reader.has_buffered() {
                    "server closed the connection mid-frame"
                } else {
                    "server closed the connection"
                };
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, detail));
            }
        }
    }

    /// One request/reply round trip.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error on either leg.
    pub fn call(&mut self, request: &Json) -> io::Result<Json> {
        self.send(request)?;
        self.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the routing hash on the store's shared pin program. Source
    /// hashes key persistent artifacts (embedding cache entries, index
    /// identities), so a drift in the shared FNV-1a implementation must
    /// fail this test rather than silently orphan every cached artifact.
    #[test]
    fn source_hash_agrees_with_the_store_pin() {
        assert_eq!(source_hash(store::hash::PIN_PROGRAM), store::hash::PIN_SOURCE_HASH);
    }
}
