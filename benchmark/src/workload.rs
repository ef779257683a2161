//! The four workloads and their seeded request streams.
//!
//! Request `i` of a stream is a pure function of `(seed, workload, i)`:
//! each request draws from its own generator, so the mix a run sends does
//! not depend on how many requests a faster or slower server completes,
//! and the replay's "first 256 requests" are exactly the live run's.

use datagen::{Behavior, Knobs, Strategy};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};
use serve::json::Json;

/// Share of renders whose identifiers borrow another behaviour's
/// keywords (the corpus generator's own default).
pub const MISLEADING: f64 = 0.2;

/// Arrival rate of the open-loop workload, requests per second.
pub const OPEN_RATE: f64 = 50.0;

/// Neighbours `search` requests ask for.
pub const SEARCH_K: usize = 10;

/// One `canon_index` request in this many, drawn at random, sends a
/// program no earlier request sent: see [`offset_result`]. Its canonical
/// form is new, so the canon memo, the artifact store and, for `index`,
/// the index miss and grow. The other requests are variants of forms
/// that the warm-up already cached.
pub const NOVEL_EVERY: u64 = 8;

/// The behaviours `canon_index` renders: a fixed set of 8, so variants
/// keep colliding on the same canonical forms and the caches see reuse.
/// Each ends in an `int` return, which [`offset_result`] relies on.
pub const CANON_BEHAVIORS: [Behavior; 8] = [
    Behavior::SumArray,
    Behavior::ProductArray,
    Behavior::MaxArray,
    Behavior::MinArray,
    Behavior::CountPositive,
    Behavior::Factorial,
    Behavior::Gcd,
    Behavior::SumDigits,
];

/// One traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop: `embed` of MiniLang source, half `Behavior` and half
    /// `Strategy` renders. Extraction does most of the work.
    SourceEmbed,
    /// Closed loop: `embed` of pre-extracted programs from a seeded pool.
    /// Extraction is skipped; frame decode, batching and the encoder work.
    ProgramEmbed,
    /// Open loop: `name` of `Behavior` renders (the method-naming corpus;
    /// `Strategy` renders are all named `solve`) at [`OPEN_RATE`], timed
    /// from each request's due time.
    NameOpen,
    /// Closed loop: `"canon": true` index (1 in 5) and search (k 10) over
    /// renders of [`CANON_BEHAVIORS`], 1 in [`NOVEL_EVERY`] a new program;
    /// the memo, store and index work.
    CanonIndex,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::SourceEmbed,
        Workload::ProgramEmbed,
        Workload::NameOpen,
        Workload::CanonIndex,
    ];

    /// The workload's name on the command line and in every report.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SourceEmbed => "source_embed",
            Workload::ProgramEmbed => "program_embed",
            Workload::NameOpen => "name_open",
            Workload::CanonIndex => "canon_index",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether requests follow an arrival schedule instead of replies.
    pub fn open_loop(self) -> bool {
        self == Workload::NameOpen
    }

    fn tag(self) -> u64 {
        Workload::ALL
            .iter()
            .position(|&w| w == self)
            .expect("listed in ALL") as u64
    }
}

/// What a request asks the server to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `embed`.
    Embed,
    /// `name`.
    Name,
    /// `index` (canonical).
    Index,
    /// `search` with `k` = [`SEARCH_K`] (canonical).
    Search,
}

/// One request of a stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The op.
    pub op: Op,
    /// The MiniLang source: sent as-is, or the source the pooled program
    /// was extracted from.
    pub source: String,
    /// Sent with `"canon": true`.
    pub canon: bool,
    /// For `program_embed`: the pool slot whose program is sent.
    pub pool: Option<usize>,
}

impl Request {
    /// The request object sent on the wire. `program` is the pooled
    /// program's JSON when [`Request::pool`] is set.
    pub fn to_json(&self, program: Option<&Json>) -> Json {
        let op = match self.op {
            Op::Embed => "embed",
            Op::Name => "name",
            Op::Index => "index",
            Op::Search => "search",
        };
        let mut fields = vec![("op", Json::str(op))];
        match program {
            Some(p) => fields.push(("program", p.clone())),
            None => fields.push(("source", Json::str(self.source.clone()))),
        }
        if self.canon {
            fields.push(("canon", Json::Bool(true)));
        }
        if self.op == Op::Search {
            fields.push(("k", Json::num(SEARCH_K)));
        }
        Json::obj(fields)
    }
}

/// Stream tags beyond the workload indices.
const POOL_TAG: u64 = 100;
const WARM_TAG: u64 = 101;
const ARRIVAL_TAG: u64 = 102;

/// A generator private to one `(seed, stream, index)` triple.
fn rng_for(seed: u64, tag: u64, i: u64) -> StdRng {
    let mut h = store::hash::Fnv64::new();
    h.num(seed);
    h.num(tag);
    h.num(i);
    StdRng::seed_from_u64(h.finish())
}

/// Half `Behavior`, half `Strategy` renders with random knobs.
fn mixed_source(rng: &mut StdRng) -> String {
    if rng.random::<bool>() {
        let b = *Behavior::ALL.choose(rng).expect("behaviours exist");
        b.render(&Knobs::random(rng, MISLEADING))
    } else {
        let s = *Strategy::ALL.choose(rng).expect("strategies exist");
        s.render(&Knobs::random(rng, MISLEADING))
    }
}

/// The source behind pool slot `slot` of `program_embed`. Slots take
/// the templates in turn (stratified sampling), so every seed's pool has
/// the same template mix and seeds differ only in knobs: a 512-slot pool
/// drawn at random shifts its mean program size by about 10% from seed
/// to seed, which would read as a throughput change.
pub fn pool_source(seed: u64, slot: usize) -> String {
    let knobs = Knobs::random(&mut rng_for(seed, POOL_TAG, slot as u64), MISLEADING);
    let t = slot % (Behavior::ALL.len() + Strategy::ALL.len());
    match Behavior::ALL.get(t) {
        Some(b) => b.render(&knobs),
        None => Strategy::ALL[t - Behavior::ALL.len()].render(&knobs),
    }
}

/// `src` with its last `return E;` rewritten to `return E + c;`: the same
/// control flow, a different function, and so a canonical form no other
/// `c` shares. `src` must end in an `int` return.
fn offset_result(src: &str, c: u64) -> String {
    let at = src.rfind("return ").expect("a render ends in a return");
    let semi = at + src[at..].find(';').expect("a return ends in ';'");
    format!("{} + {c}{}", &src[..semi], &src[semi..])
}

/// One variant per [`CANON_BEHAVIORS`] entry: what `canon_index` indexes
/// before its warm-up, so no search meets an empty index.
pub fn warm_index_sources(seed: u64) -> Vec<String> {
    CANON_BEHAVIORS
        .iter()
        .enumerate()
        .map(|(i, b)| {
            b.render(&Knobs::random(
                &mut rng_for(seed, WARM_TAG, i as u64),
                MISLEADING,
            ))
        })
        .collect()
}

/// Request `i` of `workload`'s stream for `seed`; `pool_len` is the size
/// of the `program_embed` pool.
pub fn request(workload: Workload, seed: u64, i: u64, pool_len: usize) -> Request {
    let mut rng = rng_for(seed, workload.tag(), i);
    match workload {
        Workload::SourceEmbed => Request {
            op: Op::Embed,
            source: mixed_source(&mut rng),
            canon: false,
            pool: None,
        },
        Workload::ProgramEmbed => {
            let slot = rng.random_range(0..pool_len);
            Request {
                op: Op::Embed,
                source: pool_source(seed, slot),
                canon: false,
                pool: Some(slot),
            }
        }
        Workload::NameOpen => {
            let b = *Behavior::ALL.choose(&mut rng).expect("behaviours exist");
            let source = b.render(&Knobs::random(&mut rng, MISLEADING));
            Request {
                op: Op::Name,
                source,
                canon: false,
                pool: None,
            }
        }
        Workload::CanonIndex => {
            let b = *CANON_BEHAVIORS.choose(&mut rng).expect("behaviours exist");
            let op = if rng.random_range(0..5) == 0 {
                Op::Index
            } else {
                Op::Search
            };
            let mut source = b.render(&Knobs::random(&mut rng, MISLEADING));
            if rng.random_range(0..NOVEL_EVERY) == 0 {
                // Stream indices are unique within a run, so `i + 1` is
                // an offset no other request of the run uses.
                source = offset_result(&source, i + 1);
            }
            Request {
                op,
                source,
                canon: true,
                pool: None,
            }
        }
    }
}

/// Open-loop arrival times, in seconds from the start of a phase of
/// `secs` seconds: a Poisson process at `rate` conditioned on its count,
/// that is `round(rate × secs)` uniform instants, sorted. Fixing the
/// count keeps the offered load identical across seeds while bursts and
/// gaps still vary with the seed. `phase` separates warm-up from the
/// measured window.
pub fn arrivals(seed: u64, phase: u64, rate: f64, secs: f64) -> Vec<f64> {
    let n = (rate * secs).round() as usize;
    let mut rng = rng_for(seed, ARRIVAL_TAG, phase);
    let mut times: Vec<f64> = (0..n).map(|_| rng.random::<f64>() * secs).collect();
    times.sort_by(f64::total_cmp);
    times
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(w: Workload, seed: u64, n: u64) -> Vec<Request> {
        (0..n).map(|i| request(w, seed, i, 512)).collect()
    }

    #[test]
    fn streams_repeat_for_a_seed_and_differ_across_seeds() {
        for w in Workload::ALL {
            assert_eq!(stream(w, 1, 40), stream(w, 1, 40), "{}", w.name());
            assert_ne!(stream(w, 1, 40), stream(w, 2, 40), "{}", w.name());
            let frames: Vec<String> = stream(w, 3, 5)
                .iter()
                .map(|r| r.to_json(None).to_string())
                .collect();
            let again: Vec<String> = stream(w, 3, 5)
                .iter()
                .map(|r| r.to_json(None).to_string())
                .collect();
            assert_eq!(frames, again, "frames must be byte-identical");
        }
    }

    #[test]
    fn request_i_does_not_depend_on_how_many_came_before() {
        // Drawn backwards or alone, request 900 is the same request: a
        // server that completed 10 requests and one that completed 899
        // are sent the same thing next.
        let w = Workload::NameOpen;
        let forward = stream(w, 9, 1000);
        let backward: Vec<Request> = (0..1000).rev().map(|i| request(w, 9, i, 512)).collect();
        assert!(forward.iter().eq(backward.iter().rev()));
        assert_eq!(forward[900], request(w, 9, 900, 512));
    }

    #[test]
    fn mixes_follow_their_workloads() {
        let canon = stream(Workload::CanonIndex, 4, 500);
        assert!(canon.iter().all(|r| r.canon));
        let index = canon.iter().filter(|r| r.op == Op::Index).count();
        assert!(
            (60..140).contains(&index),
            "about 1 in 5 index requests, got {index}"
        );
        let pooled = stream(Workload::ProgramEmbed, 4, 200);
        assert!(pooled.iter().all(|r| r.pool.is_some_and(|s| s < 512)));
        assert_eq!(pooled[0].source, pool_source(4, pooled[0].pool.unwrap()));
        let strategies = |seed| {
            (0..53)
                .filter(|&s| pool_source(seed, s).starts_with("fn solve("))
                .count()
        };
        assert_eq!(
            (strategies(1), strategies(2)),
            (26, 26),
            "pool slots take every template in turn"
        );
        assert_ne!(
            pool_source(1, 0),
            pool_source(2, 0),
            "seeds still vary the knobs"
        );
        let named = stream(Workload::NameOpen, 4, 50);
        assert!(named.iter().all(|r| r.op == Op::Name && !r.canon));
        assert!(
            named.iter().all(|r| !r.source.starts_with("fn solve(")),
            "behaviour renders only"
        );
        assert_eq!(warm_index_sources(4).len(), CANON_BEHAVIORS.len());
    }

    #[test]
    fn canon_stream_mixes_cached_forms_with_new_ones() {
        let canon_hash = |src: &str| {
            let program = minilang::parse(src).expect("parses");
            minilang::typecheck(&program).expect("type-checks");
            analysis::canonicalize(&program).hash
        };
        for b in CANON_BEHAVIORS {
            let src = b.render(&Knobs::plain());
            let (one, two) = (offset_result(&src, 1), offset_result(&src, 2));
            assert_ne!(canon_hash(&src), canon_hash(&one), "{}", b.name());
            assert_ne!(canon_hash(&one), canon_hash(&two), "{}", b.name());
        }
        // The warm-up caches about one form per behaviour; about 1 in 8
        // requests brings a form of its own.
        let n = 400;
        let mut forms: Vec<u64> = stream(Workload::CanonIndex, 4, n)
            .iter()
            .map(|r| canon_hash(&r.source))
            .collect();
        forms.sort_unstable();
        forms.dedup();
        let novel = forms.len() as f64 - CANON_BEHAVIORS.len() as f64;
        let expected = n as f64 / NOVEL_EVERY as f64;
        assert!(
            (novel - expected).abs() < 0.4 * expected,
            "{novel} new forms in {n} requests"
        );
    }

    #[test]
    fn arrival_schedule_is_seeded_sorted_and_fixed_in_count() {
        let a = arrivals(5, 1, OPEN_RATE, 20.0);
        assert_eq!(a.len(), (OPEN_RATE * 20.0) as usize);
        assert_eq!(a, arrivals(5, 1, OPEN_RATE, 20.0));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&a),
            bits(&arrivals(5, 1, OPEN_RATE, 20.0)),
            "byte-identical"
        );
        assert_ne!(a, arrivals(6, 1, OPEN_RATE, 20.0));
        assert_ne!(a, arrivals(5, 0, OPEN_RATE, 20.0));
        assert!(a.windows(2).all(|p| p[0] <= p[1]));
        assert!(a.iter().all(|&t| (0.0..20.0).contains(&t)));
        // Roughly exponential gaps: the mean gap is 1/rate.
        let gaps: Vec<f64> = a.windows(2).map(|p| p[1] - p[0]).collect();
        let mean_gap = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!(
            (mean_gap - 1.0 / OPEN_RATE).abs() < 0.002,
            "mean gap {mean_gap}"
        );
        let short = gaps.iter().filter(|&&g| g < 1.0 / OPEN_RATE).count() as f64;
        // P(gap < mean) = 1 − 1/e ≈ 0.63 for exponential gaps.
        assert!((short / gaps.len() as f64 - 0.632).abs() < 0.06);
    }
}
