//! `LGRS1` payload codecs for analysis artifacts, plus store-aware
//! wrappers the rest of the stack calls.
//!
//! Two artifact families live here: distilled dataflow facts
//! ([`ProgramFacts`], consumed by symexec's pruning and the corpus
//! static screen) and lint reports ([`LintReport`], consumed by
//! `liger-lint` and the corpus filter). Both codecs emit their
//! unordered containers in sorted order so an artifact's bytes are a
//! pure function of its value — the warm-rerun bitwise-identity gate
//! depends on that.
//!
//! The wrappers ([`facts_with_store`], [`lint_with_store`]) implement
//! the red-green contract: key = content hash of the source, so an
//! edited program misses automatically; fingerprint = codec version,
//! so a codec change invalidates every cached artifact at once rather
//! than misparsing old bytes.

use crate::facts::{program_facts, ProgramFacts};
use crate::lint::{self, Diagnostic, LintKind, LintReport};
use minilang::{Program, StmtId};
use store::{ArtifactKind, Store, StoreError};
use tensor::codec::{ByteReader, ByteWriter, DecodeError};

/// Fingerprint stamped on cached facts artifacts. Bump when the codec
/// or the analysis stack's observable output changes.
pub const FACTS_FINGERPRINT: &str = "facts@1";
/// Fingerprint stamped on cached lint artifacts.
pub const LINT_FINGERPRINT: &str = "lint@1";

/// Every lint kind, in its stable wire order. The wire tag is the
/// index; appending new kinds is compatible, reordering is not.
const LINT_KINDS: [LintKind; 11] = [
    LintKind::DeadCode,
    LintKind::UnusedDef,
    LintKind::GuardAlwaysTrue,
    LintKind::GuardAlwaysFalse,
    LintKind::PossiblyUninitRead,
    LintKind::DivergentLoop,
    LintKind::MaybeDivergentLoop,
    LintKind::DivisionByZero,
    LintKind::SelfAssignment,
    LintKind::AlwaysTakenGuard,
    LintKind::WriteNeverRead,
];

fn kind_tag(kind: LintKind) -> u8 {
    LINT_KINDS.iter().position(|&k| k == kind).expect("kind in wire table") as u8
}

/// Serializes program facts. Map/set entries are written in ascending
/// statement-id order, so equal facts always produce equal bytes.
#[must_use]
pub fn facts_to_bytes(facts: &ProgramFacts) -> Vec<u8> {
    let mut w = ByteWriter::new();
    let mut decided: Vec<_> = facts.decided.iter().map(|(&s, &b)| (s, b)).collect();
    decided.sort_unstable();
    w.seq(&decided, |w, &(stmt, taken)| {
        w.u32(stmt.0);
        w.bool(taken);
    });
    let mut reachable: Vec<_> = facts.reachable.iter().copied().collect();
    reachable.sort_unstable();
    w.seq(&reachable, |w, stmt| w.u32(stmt.0));
    w.u64(facts.num_blocks as u64);
    w.u64(facts.num_loops as u64);
    w.into_bytes()
}

/// Parses a facts payload written by [`facts_to_bytes`].
///
/// # Errors
///
/// Typed [`StoreError`] on truncation, trailing bytes, or an invalid
/// boolean tag.
pub fn facts_from_bytes(buf: &[u8]) -> Result<ProgramFacts, StoreError> {
    let mut r = ByteReader::new(buf);
    let decided = r.seq(5, |r| Ok::<_, DecodeError>((StmtId(r.u32()?), r.bool()?)))?;
    let reachable = r.seq(4, |r| r.u32().map(StmtId))?;
    let num_blocks = usize::try_from(r.u64()?).map_err(|_| StoreError::BadRecord)?;
    let num_loops = usize::try_from(r.u64()?).map_err(|_| StoreError::BadRecord)?;
    r.finish()?;
    Ok(ProgramFacts {
        decided: decided.into_iter().collect(),
        reachable: reachable.into_iter().collect(),
        num_blocks,
        num_loops,
    })
}

/// Serializes a lint report. Severity is derived from the kind, so only
/// the kind tag travels.
#[must_use]
pub fn lint_to_bytes(report: &LintReport) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.seq(&report.diagnostics, |w, d| {
        w.u8(kind_tag(d.kind));
        w.u32(d.stmt.0);
        w.u32(d.line);
        w.str(&d.message);
    });
    w.into_bytes()
}

/// Parses a lint payload written by [`lint_to_bytes`].
///
/// # Errors
///
/// Typed [`StoreError`] on truncation, trailing bytes, an unknown kind
/// tag, or a non-UTF-8 message.
pub fn lint_from_bytes(buf: &[u8]) -> Result<LintReport, StoreError> {
    let mut r = ByteReader::new(buf);
    let diagnostics = r.seq(13, |r| {
        let kind = *LINT_KINDS.get(r.u8()? as usize).ok_or(DecodeError::BadRecord)?;
        let stmt = StmtId(r.u32()?);
        let line = r.u32()?;
        let message = r.str()?;
        Ok::<_, DecodeError>(Diagnostic { kind, severity: kind.severity(), stmt, line, message })
    })?;
    r.finish()?;
    Ok(LintReport { diagnostics })
}

/// Computes (or loads) the distilled facts for `program`, keyed by
/// `key` — the FNV-1a hash of the source the program was parsed from.
/// With no store this is exactly [`program_facts`].
///
/// # Errors
///
/// Typed [`StoreError`] when the store itself is corrupt; a absent or
/// stale entry silently recomputes instead.
pub fn facts_with_store(
    program: &Program,
    key: u64,
    store: Option<&Store>,
) -> Result<ProgramFacts, StoreError> {
    if let Some(store) = store {
        if let Some(payload) = store.get(ArtifactKind::Facts, key, FACTS_FINGERPRINT)? {
            return facts_from_bytes(&payload);
        }
        let facts = program_facts(program);
        store.put(ArtifactKind::Facts, key, FACTS_FINGERPRINT, &facts_to_bytes(&facts))?;
        Ok(facts)
    } else {
        Ok(program_facts(program))
    }
}

/// Runs (or loads) the lint pass for `program`, keyed by `key` — the
/// FNV-1a hash of the source. With no store this is exactly
/// [`lint::run`].
///
/// # Errors
///
/// Typed [`StoreError`] when the store itself is corrupt.
pub fn lint_with_store(
    program: &Program,
    key: u64,
    store: Option<&Store>,
) -> Result<LintReport, StoreError> {
    if let Some(store) = store {
        if let Some(payload) = store.get(ArtifactKind::Lint, key, LINT_FINGERPRINT)? {
            return lint_from_bytes(&payload);
        }
        let report = lint::run(program);
        store.put(ArtifactKind::Lint, key, LINT_FINGERPRINT, &lint_to_bytes(&report))?;
        Ok(report)
    } else {
        Ok(lint::run(program))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_program() -> Program {
        let src = "fn f(n: int) -> int {\n\
                   let s: int = 0;\n\
                   if (true) { s = s + n; }\n\
                   while (false) { s = s - 1; }\n\
                   return s;\n\
                   }";
        let mut p = minilang::parse(src).unwrap();
        minilang::typecheck(&p).unwrap();
        p.assign_ids();
        p
    }

    #[test]
    fn facts_roundtrip_is_lossless_and_deterministic() {
        let p = sample_program();
        let facts = program_facts(&p);
        assert!(!facts.decided.is_empty(), "sample must decide a guard");
        let bytes = facts_to_bytes(&facts);
        let back = facts_from_bytes(&bytes).unwrap();
        assert_eq!(back.decided, facts.decided);
        assert_eq!(back.reachable, facts.reachable);
        assert_eq!(back.num_blocks, facts.num_blocks);
        assert_eq!(back.num_loops, facts.num_loops);
        // Bitwise determinism despite HashMap/HashSet iteration order:
        // re-encoding the decoded value gives identical bytes, across
        // fresh containers with different hash seeds.
        assert_eq!(facts_to_bytes(&back), bytes);
    }

    #[test]
    fn lint_roundtrip_preserves_diagnostics() {
        let p = sample_program();
        let report = lint::run(&p);
        assert!(!report.diagnostics.is_empty(), "sample must lint dirty");
        let bytes = lint_to_bytes(&report);
        let back = lint_from_bytes(&bytes).unwrap();
        assert_eq!(back.diagnostics, report.diagnostics);
    }

    #[test]
    fn corrupt_payloads_are_typed() {
        let p = sample_program();
        let bytes = facts_to_bytes(&program_facts(&p));
        for cut in 0..bytes.len() {
            assert!(facts_from_bytes(&bytes[..cut]).is_err(), "prefix {cut}");
        }
        let mut long = bytes;
        long.push(0);
        assert_eq!(facts_from_bytes(&long).unwrap_err(), StoreError::TrailingBytes);

        let mut lint_bytes = lint_to_bytes(&lint::run(&p));
        lint_bytes[4] = 200; // first kind tag -> unknown
        assert_eq!(lint_from_bytes(&lint_bytes).unwrap_err(), StoreError::BadRecord);
    }

    #[test]
    fn store_wrappers_hit_on_second_call() {
        let dir =
            std::env::temp_dir().join(format!("lgrs-analysis-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = Store::open(&dir).unwrap();
        let p = sample_program();
        let key = store::hash::fnv1a_str("sample-src");

        let cold = facts_with_store(&p, key, Some(&store)).unwrap();
        let warm = facts_with_store(&p, key, Some(&store)).unwrap();
        assert_eq!(cold.decided, warm.decided);
        assert_eq!(cold.reachable, warm.reachable);
        assert!(!store.is_empty(ArtifactKind::Facts).unwrap());

        let cold = lint_with_store(&p, key, Some(&store)).unwrap();
        let warm = lint_with_store(&p, key, Some(&store)).unwrap();
        assert_eq!(cold.diagnostics, warm.diagnostics);
        assert!(!store.is_empty(ArtifactKind::Lint).unwrap());

        // A different key (an edited program) does not see the entry.
        assert_eq!(
            store.get(ArtifactKind::Facts, key ^ 1, FACTS_FINGERPRINT).unwrap(),
            None
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_kind_tag_roundtrips() {
        for (i, &kind) in LINT_KINDS.iter().enumerate() {
            assert_eq!(kind_tag(kind) as usize, i);
            let report = LintReport {
                diagnostics: vec![Diagnostic {
                    kind,
                    severity: kind.severity(),
                    stmt: StmtId(3),
                    line: 7,
                    message: kind.name().to_string(),
                }],
            };
            let back = lint_from_bytes(&lint_to_bytes(&report)).unwrap();
            assert_eq!(back.diagnostics, report.diagnostics);
        }
    }
}
