//! `LGRS1` payload codec for blended path groups.
//!
//! The artifact store caches the expensive half of the pipeline — the
//! per-program [`PathGroup`] list that `randgen::generate_grouped`
//! produces by running the tracing interpreter over sampled inputs.
//! This module defines the byte grammar of those payloads (kind
//! `TraceGroups` / `CorpusOutcome` in `store::ArtifactKind`) on top of
//! the shared `tensor::codec` cursors, so a reload is bitwise-faithful:
//! every state slot, guard direction, return value, and input vector
//! survives exactly, and any corruption surfaces as a typed
//! [`StoreError`], never a panic.
//!
//! Grammar (integers little-endian, strings length-prefixed):
//!
//! ```text
//! groups  := ngroups:u32 group*
//! group   := nsteps:u32 step* ntraces:u32 trace*
//! step    := stmt:u32 kind
//! kind    := 0 | 1 taken:u8
//! trace   := state nevents:u32 event* value nvals:u32 value*
//! event   := stmt:u32 line:u32 kind state
//! state   := nslots:u32 slot*
//! slot    := 0 | 1 value
//! value   := 0 i64 | 1 u8 | 2 str | 3 len:u32 i64*
//! ```

use crate::blended::PathGroup;
use crate::execution::{ExecutionTrace, SymbolicTrace};
use interp::{EventKind, PathStep, State, TraceEvent, Value};
use minilang::StmtId;
use store::StoreError;
use tensor::codec::{ByteReader, ByteWriter, DecodeError};

fn write_value(w: &mut ByteWriter, v: &Value) {
    match v {
        Value::Int(i) => {
            w.u8(0);
            w.i64(*i);
        }
        Value::Bool(b) => {
            w.u8(1);
            w.bool(*b);
        }
        Value::Str(s) => {
            w.u8(2);
            w.str(s);
        }
        Value::Array(a) => {
            w.u8(3);
            w.seq(a, |w, &x| w.i64(x));
        }
    }
}

fn read_value(r: &mut ByteReader) -> Result<Value, DecodeError> {
    match r.u8()? {
        0 => Ok(Value::Int(r.i64()?)),
        1 => Ok(Value::Bool(r.bool()?)),
        2 => Ok(Value::Str(r.str()?)),
        3 => Ok(Value::Array(r.seq(8, ByteReader::i64)?)),
        _ => Err(DecodeError::BadRecord),
    }
}

fn write_state(w: &mut ByteWriter, s: &State) {
    w.seq(&s.values, |w, slot| {
        w.bool(slot.is_some());
        if let Some(v) = slot {
            write_value(w, v);
        }
    });
}

fn read_state(r: &mut ByteReader) -> Result<State, DecodeError> {
    let values = r.seq(1, |r| r.bool()?.then(|| read_value(r)).transpose())?;
    Ok(State { values })
}

fn write_kind(w: &mut ByteWriter, k: EventKind) {
    match k {
        EventKind::Exec => w.u8(0),
        EventKind::Guard { taken } => {
            w.u8(1);
            w.bool(taken);
        }
    }
}

fn read_kind(r: &mut ByteReader) -> Result<EventKind, DecodeError> {
    match r.u8()? {
        0 => Ok(EventKind::Exec),
        1 => Ok(EventKind::Guard { taken: r.bool()? }),
        _ => Err(DecodeError::BadRecord),
    }
}

fn write_trace(w: &mut ByteWriter, t: &ExecutionTrace) {
    write_state(w, &t.initial_state);
    w.seq(&t.events, |w, e| {
        w.u32(e.stmt.0);
        w.u32(e.line);
        write_kind(w, e.kind);
        write_state(w, &e.state);
    });
    write_value(w, &t.return_value);
    w.seq(&t.inputs, write_value);
}

fn read_trace(r: &mut ByteReader) -> Result<ExecutionTrace, DecodeError> {
    let initial_state = read_state(r)?;
    let events = r.seq(13, |r| {
        let stmt = StmtId(r.u32()?);
        let line = r.u32()?;
        let kind = read_kind(r)?;
        let state = read_state(r)?;
        Ok::<_, DecodeError>(TraceEvent { stmt, line, kind, state })
    })?;
    let return_value = read_value(r)?;
    let inputs = r.seq(2, read_value)?;
    Ok(ExecutionTrace { initial_state, events, return_value, inputs })
}

/// Writes one path group (a [`ByteWriter::seq`] item, for payloads
/// that embed groups alongside other fields, like datagen's corpus
/// outcomes).
pub fn write_group(w: &mut ByteWriter, g: &PathGroup) {
    w.seq(&g.symbolic.steps, |w, step| {
        w.u32(step.stmt.0);
        write_kind(w, step.kind);
    });
    w.seq(&g.traces, write_trace);
}

/// The fewest bytes one [`write_group`] record occupies.
pub const MIN_GROUP_LEN: usize = 8;

/// Reads one path group written by [`write_group`].
///
/// # Errors
///
/// [`DecodeError::Truncated`] when the input ends mid-record and
/// [`DecodeError::BadRecord`] for an invalid tag byte.
pub fn read_group(r: &mut ByteReader) -> Result<PathGroup, DecodeError> {
    let steps = r.seq(5, |r| {
        let stmt = StmtId(r.u32()?);
        Ok::<_, DecodeError>(PathStep { stmt, kind: read_kind(r)? })
    })?;
    let traces = r.seq(14, read_trace)?;
    Ok(PathGroup { symbolic: SymbolicTrace { steps }, traces })
}

/// Serializes blended path groups into an artifact payload.
#[must_use]
pub fn groups_to_bytes(groups: &[PathGroup]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.seq(groups, write_group);
    w.into_bytes()
}

/// Parses an artifact payload written by [`groups_to_bytes`].
///
/// # Errors
///
/// [`StoreError::Truncated`] when the payload ends mid-record,
/// [`StoreError::TrailingBytes`] when data follows the last group, and
/// [`StoreError::BadRecord`] for an invalid tag byte.
pub fn groups_from_bytes(buf: &[u8]) -> Result<Vec<PathGroup>, StoreError> {
    let mut r = ByteReader::new(buf);
    let groups = r.seq(MIN_GROUP_LEN, read_group)?;
    r.finish()?;
    Ok(groups)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_groups() -> Vec<PathGroup> {
        let state = |vals: Vec<Option<Value>>| State { values: vals };
        let t = ExecutionTrace {
            initial_state: state(vec![Some(Value::Int(4)), None]),
            events: vec![
                TraceEvent {
                    stmt: StmtId(0),
                    line: 2,
                    kind: EventKind::Guard { taken: true },
                    state: state(vec![Some(Value::Int(4)), Some(Value::Bool(false))]),
                },
                TraceEvent {
                    stmt: StmtId(1),
                    line: 3,
                    kind: EventKind::Exec,
                    state: state(vec![
                        Some(Value::Array(vec![1, -2, 3])),
                        Some(Value::Str("höi".into())),
                    ]),
                },
            ],
            return_value: Value::Int(-9),
            inputs: vec![Value::Int(4), Value::Array(vec![])],
        };
        vec![
            PathGroup {
                symbolic: SymbolicTrace {
                    steps: vec![
                        PathStep { stmt: StmtId(0), kind: EventKind::Guard { taken: true } },
                        PathStep { stmt: StmtId(1), kind: EventKind::Exec },
                    ],
                },
                traces: vec![t.clone(), t],
            },
            PathGroup { symbolic: SymbolicTrace { steps: vec![] }, traces: vec![] },
        ]
    }

    #[test]
    fn roundtrip_is_lossless() {
        let groups = sample_groups();
        let bytes = groups_to_bytes(&groups);
        assert_eq!(groups_from_bytes(&bytes).unwrap(), groups);
    }

    #[test]
    fn empty_roundtrips() {
        assert_eq!(groups_from_bytes(&groups_to_bytes(&[])).unwrap(), Vec::<PathGroup>::new());
    }

    #[test]
    fn every_truncation_is_typed() {
        let bytes = groups_to_bytes(&sample_groups());
        for cut in 0..bytes.len() {
            match groups_from_bytes(&bytes[..cut]) {
                Err(StoreError::Truncated) | Err(StoreError::BadRecord) => {}
                other => panic!("prefix of {cut} bytes: expected typed error, got {other:?}"),
            }
        }
    }

    #[test]
    fn trailing_bytes_are_typed() {
        let mut bytes = groups_to_bytes(&sample_groups());
        bytes.push(7);
        assert_eq!(groups_from_bytes(&bytes).unwrap_err(), StoreError::TrailingBytes);
    }

    #[test]
    fn bad_tags_are_typed() {
        let groups = sample_groups();
        let mut bytes = groups_to_bytes(&groups);
        // The first kind tag byte lives right after ngroups, nsteps,
        // and the first stmt id.
        let tag_at = 4 + 4 + 4;
        bytes[tag_at] = 9;
        assert_eq!(groups_from_bytes(&bytes).unwrap_err(), StoreError::BadRecord);
    }
}
