//! The one binary codec behind every on-disk format.
//!
//! Checkpoints (`LGR1`), model bundles (`LGRB1`), the embedding
//! index (`LGRI1`), artifact-store entries (`LGRS1`) and every store
//! payload (trace groups, corpus outcomes, facts, lints, embeddings)
//! read and write through these two cursors, so they share one
//! discipline:
//!
//! - integers and floats are little-endian, floats as raw IEEE-754 bits
//!   (bitwise lossless);
//! - every read is bounds-checked and every malformed input is a typed
//!   [`DecodeError`], never a panic;
//! - a count read from the input never sizes an allocation larger than
//!   the remaining input ([`ByteReader::seq`], [`ByteReader::repeat`],
//!   [`ByteReader::max_items`]), so a hostile length field fails with
//!   [`DecodeError::Truncated`] instead of aborting the process.
//!
//! [`write_atomic`] is the one crash-safe file write: a file is either
//! the old version or the new one, never torn.

use std::io::Write;
use std::path::Path;

/// Why a byte buffer failed to decode. Format owners map this onto
/// their own error types (`From<DecodeError>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended in the middle of a record.
    Truncated,
    /// Bytes remained after the last record.
    TrailingBytes,
    /// A structurally invalid value: a bad tag or boolean byte, or
    /// non-UTF-8 text.
    BadRecord,
    /// The input does not start with the format's magic bytes.
    BadMagic,
    /// The magic matched but the version byte is not the expected one.
    VersionMismatch {
        /// The version byte found in the input.
        found: u8,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "input ends mid-record"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after the last record"),
            DecodeError::BadRecord => write!(f, "structurally invalid record"),
            DecodeError::BadMagic => write!(f, "bad magic bytes"),
            DecodeError::VersionMismatch { found } => {
                write!(f, "unsupported version {:?}", char::from(*found))
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Append-only little-endian writer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    #[must_use]
    #[inline]
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// An empty writer with room for `n` bytes.
    #[must_use]
    #[inline]
    pub fn with_capacity(n: usize) -> ByteWriter {
        ByteWriter { buf: Vec::with_capacity(n) }
    }

    /// Finishes and returns the accumulated bytes.
    #[must_use]
    #[inline]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes a format's magic bytes and version byte.
    #[inline]
    pub fn header(&mut self, magic: &[u8], version: u8) {
        self.raw(magic);
        self.u8(version);
    }

    /// Appends raw bytes verbatim (no length prefix).
    #[inline]
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a boolean as one `0`/`1` byte.
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes a `u32`-length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.raw(s.as_bytes());
    }

    /// Writes one text line: `s` and a `\n`.
    #[inline]
    pub fn line(&mut self, s: &str) {
        self.raw(s.as_bytes());
        self.u8(b'\n');
    }

    /// Writes a `u32` count followed by every item (the inverse of
    /// [`ByteReader::seq`]).
    pub fn seq<T>(&mut self, items: &[T], mut item: impl FnMut(&mut ByteWriter, &T)) {
        self.u32(items.len() as u32);
        for x in items {
            item(self, x);
        }
    }
}

/// Bounds-checked little-endian cursor over a byte buffer. Every read
/// fails with [`DecodeError::Truncated`] when the input ends before the
/// value does; other errors are named per method.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A cursor positioned at the start of `buf`.
    #[must_use]
    #[inline]
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The most of `n` items, each at least `min_len` bytes on the wire,
    /// that the remaining bytes could hold: a safe size for an
    /// allocation driven by a count read from the input.
    #[must_use]
    #[inline]
    pub fn max_items(&self, n: usize, min_len: usize) -> usize {
        n.min(self.remaining() / min_len.max(1))
    }

    /// Takes the next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.remaining() {
            return Err(DecodeError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// Checks a format's magic bytes and version byte:
    /// [`DecodeError::BadMagic`] / [`DecodeError::VersionMismatch`] for
    /// a foreign or future format.
    #[inline]
    pub fn header(&mut self, magic: &[u8], version: u8) -> Result<(), DecodeError> {
        if self.take(magic.len())? != magic {
            return Err(DecodeError::BadMagic);
        }
        match self.u8()? {
            v if v == version => Ok(()),
            found => Err(DecodeError::VersionMismatch { found }),
        }
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a strict boolean byte: [`DecodeError::BadRecord`] for any
    /// byte other than `0`/`1`.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::BadRecord),
        }
    }

    /// Reads a `u32`-length-prefixed UTF-8 string:
    /// [`DecodeError::BadRecord`] on invalid UTF-8.
    #[inline]
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        Ok(std::str::from_utf8(bytes).map_err(|_| DecodeError::BadRecord)?.to_owned())
    }

    /// Reads one text line up to (and consuming) the next `\n`:
    /// [`DecodeError::BadRecord`] on invalid UTF-8.
    #[inline]
    pub fn line(&mut self) -> Result<&'a str, DecodeError> {
        let rest = &self.buf[self.pos..];
        let end = rest.iter().position(|&b| b == b'\n').ok_or(DecodeError::Truncated)?;
        self.pos += end + 1;
        std::str::from_utf8(&rest[..end]).map_err(|_| DecodeError::BadRecord)
    }

    /// Reads a `u32` count, then that many items (the inverse of
    /// [`ByteWriter::seq`]); see [`ByteReader::repeat`].
    pub fn seq<T, E: From<DecodeError>>(
        &mut self,
        min_len: usize,
        item: impl FnMut(&mut ByteReader<'a>) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let n = self.u32()? as usize;
        self.repeat(n, min_len, item)
    }

    /// Reads `n` items, failing with the first error `item` returns.
    /// `min_len` is the fewest bytes one item occupies on the wire; the
    /// up-front reservation takes no more bytes than remain in the
    /// input, also for items larger in memory than on the wire, so a
    /// corrupt count runs out of input instead of memory. Such items
    /// grow the result as they decode.
    pub fn repeat<T, E: From<DecodeError>>(
        &mut self,
        n: usize,
        min_len: usize,
        mut item: impl FnMut(&mut ByteReader<'a>) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let mut out = Vec::with_capacity(self.max_items(n, min_len.max(std::mem::size_of::<T>())));
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// Asserts the input ends here: [`DecodeError::TrailingBytes`]
    /// when bytes remain.
    #[inline]
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes)
        }
    }
}

/// Defines the little-endian writer and reader method for each
/// primitive type.
macro_rules! le_primitives {
    ($($t:ident),*) => {
        impl ByteWriter {$(
            #[doc = concat!("Writes a little-endian `", stringify!($t), "`.")]
            #[inline]
            pub fn $t(&mut self, v: $t) {
                self.raw(&v.to_le_bytes());
            }
        )*}

        impl ByteReader<'_> {$(
            #[doc = concat!("Reads a little-endian `", stringify!($t), "`.")]
            #[inline]
            pub fn $t(&mut self) -> Result<$t, DecodeError> {
                Ok($t::from_le_bytes(self.array()?))
            }
        )*}
    };
}

le_primitives!(u32, u64, i64, f32, f64);

/// Replaces `path` with `bytes` crash-safely: writes a `.tmp` sibling,
/// syncs it to disk, and renames it over `path`. A crash leaves either
/// the old file or a `.tmp` orphan, never a torn file.
///
/// # Errors
///
/// The underlying filesystem error.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_primitives() {
        let mut w = ByteWriter::new();
        w.header(b"TST", b'1');
        w.u8(7);
        w.bool(true);
        w.u32(0xdead_beef);
        w.u64(u64::MAX);
        w.i64(-42);
        w.f32(1.5);
        w.f64(-0.0);
        w.str("héllo");
        w.line("a line");
        w.seq(&[3u32, 1, 4], |w, &x| w.u32(x));
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        r.header(b"TST", b'1').unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f32().unwrap(), 1.5);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.line().unwrap(), "a line");
        assert_eq!(r.seq(4, ByteReader::u32), Ok(vec![3, 1, 4]));
        r.finish().unwrap();
    }

    #[test]
    fn malformed_input_is_typed() {
        let mut w = ByteWriter::new();
        w.u64(1);
        let bytes = w.into_bytes();
        assert_eq!(ByteReader::new(&bytes[..7]).u64(), Err(DecodeError::Truncated));
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u32(), Ok(1));
        assert_eq!(r.finish(), Err(DecodeError::TrailingBytes));

        assert_eq!(ByteReader::new(&[2]).bool(), Err(DecodeError::BadRecord));
        assert_eq!(ByteReader::new(&[2, 0, 0, 0, 0xff, 0xfe]).str(), Err(DecodeError::BadRecord));
        assert_eq!(ByteReader::new(b"no newline").line(), Err(DecodeError::Truncated));
        assert_eq!(ByteReader::new(&[0; 10]).max_items(usize::MAX, 4), 2);
        assert_eq!(ByteReader::new(&[0; 10]).max_items(1, 4), 1);

        assert_eq!(ByteReader::new(b"TS").header(b"TST", b'1'), Err(DecodeError::Truncated));
        assert_eq!(ByteReader::new(b"XYZ1").header(b"TST", b'1'), Err(DecodeError::BadMagic));
        assert_eq!(
            ByteReader::new(b"TST9").header(b"TST", b'1'),
            Err(DecodeError::VersionMismatch { found: b'9' })
        );
    }
}
