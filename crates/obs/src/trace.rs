//! Hierarchical span tracing with per-thread buffers.
//!
//! A span is an RAII region: [`SpanGuard::enter`] (usually via the
//! [`span!`](crate::span) macro) stamps the start, and dropping the guard
//! records one [`Event`] into the current thread's buffer. Nesting is
//! tracked by a per-thread *current path*: each distinct chain of span
//! names (`train.epoch → train.batch → encode.program`) is interned once
//! into a process-wide [`PathId`], so aggregation and export never
//! compare strings.
//!
//! ## Enablement and overhead
//!
//! Tracing is off unless `LIGER_PROFILE=1` is set in the environment (or
//! a bench/test forces it with [`set_enabled`]). The off state is cached
//! in one atomic: a disabled [`SpanGuard::enter`] is a single relaxed
//! load plus a trivially-constructed guard whose `Drop` checks one bool —
//! a few nanoseconds per call site, asserted `<2%` of workload throughput
//! in `throughput_obs` (see DESIGN.md §2e for the budget).
//!
//! ## Buffering
//!
//! Each thread appends events to a local `Vec` and flushes it into the
//! process-wide collector when it reaches [`FLUSH_EVERY`] events or the
//! thread exits (thread-local destructor). The collector retains up to
//! [`MAX_RETAINED_EVENTS`] raw events for chrome-trace export; beyond
//! that, events fold into per-path aggregates (count + total time) so
//! summaries stay exact while memory stays bounded on long runs.

use std::cell::RefCell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Events buffered per thread before flushing into the collector.
pub const FLUSH_EVERY: usize = 8 * 1024;

/// Raw events the collector retains for export; beyond this, events are
/// folded into per-path aggregates.
pub const MAX_RETAINED_EVENTS: usize = 1 << 20;

const STATE_UNSET: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNSET);

/// Whether spans record. First call resolves `LIGER_PROFILE` and caches
/// the answer; after that this is one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = std::env::var("LIGER_PROFILE")
        .map(|v| {
            let v = v.trim();
            v == "1" || v.eq_ignore_ascii_case("true") || v.eq_ignore_ascii_case("on")
        })
        .unwrap_or(false);
    if on {
        let _ = epoch(); // pin the time base before the first span
    }
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
    on
}

/// Overrides enablement: `Some(true)`/`Some(false)` pin it (drivers'
/// `--profile` flag, benches, the determinism tests), `None` reverts to
/// `LIGER_PROFILE` resolution on the next [`enabled`] call.
pub fn set_enabled(on: Option<bool>) {
    let state = match on {
        Some(true) => {
            let _ = epoch();
            STATE_ON
        }
        Some(false) => STATE_OFF,
        None => STATE_UNSET,
    };
    STATE.store(state, Ordering::Relaxed);
}

/// The process-wide time base all event timestamps are relative to
/// (pinned when tracing is first enabled).
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since [`epoch`].
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Index of an interned span-name chain. The root (no open span) is
/// [`ROOT_PATH`]; every other id resolves to `(parent, name)` via
/// [`path_nodes`].
pub type PathId = u32;

/// The parent of top-level spans.
pub const ROOT_PATH: PathId = u32::MAX;

#[derive(Default)]
struct PathTable {
    /// `nodes[id] = (parent, name)`.
    nodes: Vec<(PathId, &'static str)>,
    ids: HashMap<(PathId, &'static str), PathId>,
}

fn paths() -> &'static Mutex<PathTable> {
    static PATHS: OnceLock<Mutex<PathTable>> = OnceLock::new();
    PATHS.get_or_init(Mutex::default)
}

/// Interns `(parent, name)` in the global table (thread caches miss here
/// once per distinct chain per thread).
fn intern_path_global(parent: PathId, name: &'static str) -> PathId {
    let mut table = paths().lock().unwrap();
    if let Some(&id) = table.ids.get(&(parent, name)) {
        return id;
    }
    let id = table.nodes.len() as PathId;
    assert!(id != ROOT_PATH, "span path table overflow");
    table.nodes.push((parent, name));
    table.ids.insert((parent, name), id);
    id
}

/// A snapshot of the interned path table: `nodes[id] = (parent, name)`.
pub fn path_nodes() -> Vec<(PathId, &'static str)> {
    paths().lock().unwrap().nodes.clone()
}

/// One recorded span occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The interned span-name chain.
    pub path: PathId,
    /// Recording thread (dense ids in spawn order, main thread first).
    pub tid: u32,
    /// Start, nanoseconds since [`epoch`].
    pub start_ns: u64,
    /// Inclusive duration, nanoseconds.
    pub dur_ns: u64,
}

#[derive(Default)]
struct Collector {
    events: Vec<Event>,
    /// Events beyond [`MAX_RETAINED_EVENTS`], folded to
    /// `path → (count, total_ns)`.
    overflow: HashMap<PathId, (u64, u64)>,
    dropped: u64,
}

fn collector() -> &'static Mutex<Collector> {
    static COLLECTOR: OnceLock<Mutex<Collector>> = OnceLock::new();
    COLLECTOR.get_or_init(Mutex::default)
}

static NEXT_TID: AtomicU32 = AtomicU32::new(0);

struct ThreadBuf {
    tid: u32,
    current: PathId,
    /// Per-thread `(parent, name) → path` cache in front of the global
    /// interner.
    cache: HashMap<(PathId, &'static str), PathId>,
    events: Vec<Event>,
}

impl ThreadBuf {
    fn new() -> ThreadBuf {
        ThreadBuf {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            current: ROOT_PATH,
            cache: HashMap::new(),
            events: Vec::new(),
        }
    }

    fn path_of(&mut self, parent: PathId, name: &'static str) -> PathId {
        *self
            .cache
            .entry((parent, name))
            .or_insert_with(|| intern_path_global(parent, name))
    }

    fn push(&mut self, event: Event) {
        self.events.push(event);
        if self.events.len() >= FLUSH_EVERY {
            flush_events(&mut self.events);
        }
    }
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        flush_events(&mut self.events);
    }
}

fn flush_events(events: &mut Vec<Event>) {
    if events.is_empty() {
        return;
    }
    let mut c = collector().lock().unwrap();
    for e in events.drain(..) {
        if c.events.len() < MAX_RETAINED_EVENTS {
            c.events.push(e);
        } else {
            let slot = c.overflow.entry(e.path).or_insert((0, 0));
            slot.0 += 1;
            slot.1 += e.dur_ns;
            c.dropped += 1;
        }
    }
}

thread_local! {
    static THREAD_BUF: RefCell<ThreadBuf> = RefCell::new(ThreadBuf::new());
}

/// An RAII span: created by [`SpanGuard::enter`] / the
/// [`span!`](crate::span) macro, records one [`Event`] on drop. Not
/// `Send` — a guard must be dropped on the thread that entered it, which
/// scoping to a `let` binding guarantees.
#[must_use = "binding the guard to `_` drops it immediately; use `let _span = …`"]
pub struct SpanGuard {
    path: PathId,
    prev: PathId,
    start_ns: u64,
    armed: bool,
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    /// Opens a span named `name` under the thread's current span. When
    /// tracing is disabled this is a no-op guard.
    #[inline]
    pub fn enter(name: &'static str) -> SpanGuard {
        if !enabled() {
            return SpanGuard {
                path: ROOT_PATH,
                prev: ROOT_PATH,
                start_ns: 0,
                armed: false,
                _not_send: PhantomData,
            };
        }
        Self::enter_enabled(name)
    }

    #[cold]
    fn enter_enabled(name: &'static str) -> SpanGuard {
        THREAD_BUF.with(|tl| {
            let mut buf = tl.borrow_mut();
            let prev = buf.current;
            let path = buf.path_of(prev, name);
            buf.current = path;
            SpanGuard { path, prev, start_ns: now_ns(), armed: true, _not_send: PhantomData }
        })
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let end = now_ns();
        THREAD_BUF.with(|tl| {
            let mut buf = tl.borrow_mut();
            buf.current = self.prev;
            let tid = buf.tid;
            buf.push(Event {
                path: self.path,
                tid,
                start_ns: self.start_ns,
                dur_ns: end.saturating_sub(self.start_ns),
            });
        });
    }
}

/// Flushes the calling thread's buffered events into the collector
/// (worker threads flush automatically on exit; the exporting thread
/// calls this via [`drain`]).
pub fn flush_thread() {
    THREAD_BUF.with(|tl| flush_events(&mut tl.borrow_mut().events));
}

/// Everything recorded so far: raw events, overflow aggregates, and the
/// path table needed to resolve them.
#[derive(Debug, Default, Clone)]
pub struct TraceData {
    /// Retained raw events.
    pub events: Vec<Event>,
    /// `(path, count, total_ns)` for events beyond the retention cap.
    pub overflow: Vec<(PathId, u64, u64)>,
    /// Events folded into `overflow` instead of retained raw.
    pub dropped: u64,
    /// `paths[id] = (parent, name)`.
    pub paths: Vec<(PathId, &'static str)>,
}

/// Takes every recorded event out of the collector (flushing the calling
/// thread first). Other threads' *unflushed* buffers are not visible —
/// drain after joining workers, which the scoped-thread `par` engine and
/// the serve shutdown path both guarantee.
pub fn drain() -> TraceData {
    flush_thread();
    let mut c = collector().lock().unwrap();
    let events = std::mem::take(&mut c.events);
    let overflow = c.overflow.drain().map(|(p, (n, ns))| (p, n, ns)).collect();
    let dropped = std::mem::replace(&mut c.dropped, 0);
    drop(c);
    TraceData { events, overflow, dropped, paths: path_nodes() }
}

/// Discards everything recorded so far (benches and tests).
pub fn reset() {
    let _ = drain();
}

/// Serializes tests that force enablement / drain the collector.
#[cfg(test)]
pub(crate) static TRACE_TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn name_of(data: &TraceData, path: PathId) -> &'static str {
        data.paths[path as usize].1
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = TRACE_TEST_LOCK.lock().unwrap();
        set_enabled(Some(false));
        {
            let _s = crate::span!("test.disabled");
        }
        set_enabled(Some(true));
        let data = drain();
        assert!(data.events.iter().all(|e| name_of(&data, e.path) != "test.disabled"));
        set_enabled(None);
    }

    #[test]
    fn nested_spans_build_parent_chains() {
        let _guard = TRACE_TEST_LOCK.lock().unwrap();
        set_enabled(Some(true));
        reset();
        {
            let _a = crate::span!("test.outer");
            {
                let _b = crate::span!("test.inner");
                let _c = crate::span!("test.leaf");
            }
            {
                let _b2 = crate::span!("test.inner");
            }
        }
        let data = drain();
        set_enabled(None);

        let find = |name: &str| {
            data.events
                .iter()
                .filter(|e| name_of(&data, e.path) == name)
                .collect::<Vec<_>>()
        };
        let outer = find("test.outer");
        let inner = find("test.inner");
        let leaf = find("test.leaf");
        assert_eq!(outer.len(), 1);
        assert_eq!(inner.len(), 2, "re-entering a name reuses its path id");
        assert_eq!(leaf.len(), 1);
        // Both inner occurrences intern to the same path, parented on outer.
        assert_eq!(inner[0].path, inner[1].path);
        assert_eq!(data.paths[inner[0].path as usize].0, outer[0].path);
        // The leaf chains through inner.
        assert_eq!(data.paths[leaf[0].path as usize].0, inner[0].path);
        // And outer is a root span.
        assert_eq!(data.paths[outer[0].path as usize].0, ROOT_PATH);
        // Children close before parents, and lie within them in time.
        assert!(outer[0].dur_ns >= inner[0].dur_ns + inner[1].dur_ns);
        assert!(inner[0].start_ns >= outer[0].start_ns);
    }

    #[test]
    fn reentrant_same_name_nests_under_itself() {
        let _guard = TRACE_TEST_LOCK.lock().unwrap();
        set_enabled(Some(true));
        reset();
        fn recurse(depth: usize) {
            let _s = crate::span!("test.recursive");
            if depth > 0 {
                recurse(depth - 1);
            }
        }
        recurse(2);
        let data = drain();
        set_enabled(None);

        let events: Vec<_> = data
            .events
            .iter()
            .filter(|e| name_of(&data, e.path) == "test.recursive")
            .collect();
        assert_eq!(events.len(), 3);
        // Three distinct paths: self, self→self, self→self→self.
        let mut paths: Vec<PathId> = events.iter().map(|e| e.path).collect();
        paths.sort_unstable();
        paths.dedup();
        assert_eq!(paths.len(), 3, "each recursion depth is its own chain");
    }

    #[test]
    fn worker_thread_buffers_flush_on_exit() {
        let _guard = TRACE_TEST_LOCK.lock().unwrap();
        set_enabled(Some(true));
        reset();
        // A plain join, not `thread::scope`: a scope may return before the
        // worker's thread-local destructors (which do the flush) have run.
        std::thread::spawn(|| {
            let _s = crate::span!("test.worker");
        })
        .join()
        .unwrap();
        let data = drain();
        set_enabled(None);
        assert!(data.events.iter().any(|e| name_of(&data, e.path) == "test.worker"));
    }
}
