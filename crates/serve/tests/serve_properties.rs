//! Property tests for the serve layer.
//!
//! Two contracts are gated here:
//!
//! 1. **Framing codec under adversarial I/O.** The incremental
//!    [`FrameReader`] must decode any frame sequence no matter how the
//!    transport slices it: byte-by-byte partial reads, many frames
//!    coalesced into one read, oversized length headers (rejected from
//!    the header alone, before any payload buffers), and mid-frame
//!    disconnects (clean `Ok(0)` EOF with the partial frame detectable).
//! 2. **Sharded serving determinism.** For random programs and random
//!    shard counts, embeddings served through the event-loop front end
//!    are bitwise identical to the training tape's `LigerModel::encode`
//!    — routing and batch composition never leak into results.

use proptest::prelude::*;
use serve::json::Json;
use serve::protocol::{
    embedding_from_json, infer_request, write_frame_into, FrameReader, InferInput, InferKind,
    MAX_FRAME,
};
use serve::server::{serve, Client, ServerConfig};
use std::io::Read;
use std::sync::OnceLock;

use liger::{
    train_namer, EncBlended, EncState, EncStep, EncTree, EncVar, EncodedProgram, LigerConfig,
    LigerNamer, ModelBundle, NameSample, OutVocab, TrainConfig, Vocab,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

// ---------------------------------------------------------------------------
// Framing codec under adversarial splits
// ---------------------------------------------------------------------------

/// A reader that returns the stream in caller-chosen slices, emulating a
/// peer whose writes arrive arbitrarily fragmented or coalesced.
struct ChunkedReader {
    data: Vec<u8>,
    /// Exclusive end of each read's slice, ascending; the final read
    /// (past the last cut) drains the remainder, then EOF.
    cuts: Vec<usize>,
    pos: usize,
    next_cut: usize,
}

impl ChunkedReader {
    fn new(data: Vec<u8>, mut cuts: Vec<usize>) -> ChunkedReader {
        let len = data.len();
        for c in &mut cuts {
            *c = (*c).min(len);
        }
        cuts.sort_unstable();
        ChunkedReader { data, cuts, pos: 0, next_cut: 0 }
    }
}

impl Read for ChunkedReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        // Skip cuts at or before the current position (zero-length
        // slices would read as spurious EOFs).
        while self.next_cut < self.cuts.len() && self.cuts[self.next_cut] <= self.pos {
            self.next_cut += 1;
        }
        let end = if self.next_cut < self.cuts.len() {
            self.cuts[self.next_cut]
        } else {
            self.data.len()
        };
        let n = (end - self.pos).min(buf.len());
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// A frame payload whose content is parameterized by the drawn values.
fn frame_value(tag: usize, text_len: usize) -> Json {
    Json::obj(vec![
        ("tag", Json::num(tag)),
        ("text", Json::Str("x".repeat(text_len))),
        ("nested", Json::Arr((0..tag % 5).map(Json::num).collect())),
    ])
}

/// Decodes every frame available from `reader`, returning the frames and
/// whether EOF arrived mid-frame.
fn decode_all(reader: &mut FrameReader, from: &mut impl Read) -> (Vec<Json>, bool) {
    let mut frames = Vec::new();
    loop {
        match reader.next_frame().expect("valid stream must decode") {
            Some(frame) => frames.push(frame),
            None => {
                if reader.fill_from(from).expect("chunked reads never fail") == 0 {
                    return (frames, reader.has_buffered());
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn framing_survives_adversarial_chunk_splits(
        tags in proptest::collection::vec(0usize..1000, 1..=8),
        text_lens in proptest::collection::vec(0usize..200, 1..=8),
        cuts in proptest::collection::vec(0usize..4096, 0..=64),
    ) {
        // Encode a run of frames back-to-back into one byte stream.
        let frames: Vec<Json> = tags
            .iter()
            .zip(&text_lens)
            .map(|(&tag, &len)| frame_value(tag, len))
            .collect();
        let mut stream = Vec::new();
        let mut scratch = String::new();
        for frame in &frames {
            write_frame_into(&mut stream, &mut scratch, frame);
        }

        // However the transport slices that stream — byte-by-byte, all
        // at once, or anything between — the reader yields exactly the
        // original frames, in order, with nothing left over.
        let mut reader = FrameReader::new();
        let mut from = ChunkedReader::new(stream, cuts);
        let (decoded, mid_frame) = decode_all(&mut reader, &mut from);
        prop_assert_eq!(decoded.len(), frames.len());
        for (got, want) in decoded.iter().zip(&frames) {
            prop_assert_eq!(got.to_string(), want.to_string());
        }
        prop_assert!(!mid_frame, "fully-consumed stream left buffered bytes");
    }

    #[test]
    fn oversized_length_header_is_rejected_from_the_header_alone(
        over in 1usize..=1 << 20,
        junk_len in 0usize..64,
    ) {
        // Only the length line arrives — no payload. The reader must
        // refuse it outright instead of waiting to buffer `len` bytes.
        let len = MAX_FRAME + over;
        let header = format!("{len}\n");
        let mut reader = FrameReader::new();
        let mut from = ChunkedReader::new(header.into_bytes(), vec![]);
        prop_assert!(reader.fill_from(&mut from).unwrap() > 0);
        let err = reader.next_frame().expect_err("oversized frame must be rejected");
        prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // Garbage headers (no parseable length) are rejected too.
        let junk = format!("{}x\n", "9".repeat(junk_len % 8 + 1));
        let mut reader = FrameReader::new();
        let mut from = ChunkedReader::new(junk.into_bytes(), vec![]);
        prop_assert!(reader.fill_from(&mut from).unwrap() > 0);
        prop_assert!(reader.next_frame().is_err(), "non-numeric header must be rejected");
    }

    #[test]
    fn mid_frame_disconnect_is_a_clean_partial_eof(
        tags in proptest::collection::vec(0usize..1000, 1..=5),
        cut_seed in 0usize..usize::MAX,
        cuts in proptest::collection::vec(0usize..2048, 0..=16),
    ) {
        let frames: Vec<Json> = tags.iter().map(|&t| frame_value(t, t % 40)).collect();
        let mut stream = Vec::new();
        let mut scratch = String::new();
        let mut last_start = 0;
        for frame in &frames {
            last_start = stream.len();
            write_frame_into(&mut stream, &mut scratch, frame);
        }

        // Truncate strictly inside the final frame: at least one of its
        // bytes arrives, but not all of them.
        let span = stream.len() - last_start;
        prop_assume!(span >= 2);
        let cut_at = last_start + 1 + cut_seed % (span - 1);
        stream.truncate(cut_at);

        let mut reader = FrameReader::new();
        let mut from = ChunkedReader::new(stream, cuts);
        let (decoded, mid_frame) = decode_all(&mut reader, &mut from);
        // Every complete frame decoded; the torn one is detectable.
        prop_assert_eq!(decoded.len(), frames.len() - 1);
        prop_assert!(mid_frame, "mid-frame EOF must leave the partial frame visible");
    }
}

// ---------------------------------------------------------------------------
// Sharded serving determinism
// ---------------------------------------------------------------------------

/// A synthetic program drawn from the 12-token vocabulary below.
fn prog_from(tokens: &[usize]) -> EncodedProgram {
    let tok = |i: usize| tokens[i % tokens.len()] % 12;
    EncodedProgram::from_traces(vec![EncBlended {
        steps: (0..1 + tokens.len() % 3)
            .map(|s| EncStep {
                tree: EncTree {
                    token: tok(s),
                    children: vec![EncTree { token: tok(s + 1), children: vec![] }],
                },
                states: vec![
                    EncState { vars: vec![EncVar::Primitive(tok(s + 2))] },
                    EncState { vars: vec![EncVar::Object(vec![tok(s), tok(s + 3)])] },
                ],
            })
            .collect(),
    }])
}

/// Trains the shared tiny bundle once for every case.
fn bundle() -> &'static ModelBundle {
    static BUNDLE: OnceLock<ModelBundle> = OnceLock::new();
    BUNDLE.get_or_init(|| {
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
            .map(|t| NameSample {
                program: prog_from(&[t, t + 1, t + 2]),
                target: vec![3 + (t - 1), liger::EOS],
            })
            .collect();
        train_namer(
            &namer,
            &mut store,
            &samples,
            &TrainConfig { epochs: 4, lr: 0.02, batch_size: 2 },
            &mut rng,
        );
        ModelBundle::for_namer(cfg, vocab, out, store)
    })
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    // Each case spins up a real server, so keep the count modest; the
    // chunk-split properties above carry the high-volume fuzzing.
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn sharded_serving_is_bitwise_identical_to_the_tape(
        token_sets in proptest::collection::vec(
            proptest::collection::vec(0usize..12, 1..=6),
            1..=10,
        ),
        shards in proptest::sample::select(vec![1usize, 2, 4]),
    ) {
        let bundle = bundle();
        let programs: Vec<EncodedProgram> =
            token_sets.iter().map(|t| prog_from(t)).collect();

        // Offline reference: the training tape.
        let (task, store) = bundle.instantiate().unwrap();
        let reference: Vec<Vec<u32>> = programs
            .iter()
            .map(|p| {
                let mut g = tensor::Graph::new();
                let out = task.model().encode(&mut g, &store, p);
                bits(g.value(out.program).data())
            })
            .collect();

        let handle = serve(
            bundle,
            ServerConfig { shards, batch_max: 4, batch_timeout_ms: 2, ..ServerConfig::default() },
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
            prop_assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
            let served = bits(&embedding_from_json(reply.get("embedding").unwrap()).unwrap());
            prop_assert_eq!(&served, expected, "shards={} program {} diverged", shards, i);
        }
        handle.shutdown();
        handle.join();
    }
}
