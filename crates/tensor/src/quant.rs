//! Quantized parameter stores: the `LGRq` checkpoint extension.
//!
//! A [`QuantStore`] is the inference-only counterpart of a
//! [`ParamStore`]: every weight matrix is held as an int8 [`QuantMat`]
//! (per-row absmax scales, DESIGN.md §2f) and every vector (biases,
//! attention probes) as f16-rounded f32 values. Matrices never get
//! dequantized on the hot path — [`QuantMat::matvec_quant`] consumes the
//! codes directly — so a quantized checkpoint is both ~4× smaller on disk
//! and faster to run than its f32 source.
//!
//! On disk the format reuses the `LGR` magic with version byte `q`, so
//! pre-quantization loaders reject it with a typed
//! [`LoadError::VersionMismatch`] instead of reading garbage. It shares
//! the `LGR1` record header and reads and writes through
//! [`crate::codec`]:
//!
//! ```text
//! "LGR" 'q'
//! u32 count
//! per parameter:
//!   u32 name_len, name bytes (UTF-8)
//!   u32 rows, u32 cols
//!   u8 tag          — 0: f16 vector, 1: int8 matrix
//!   payload         — tag 0: rows·cols × u16 (IEEE binary16, LE)
//!                     tag 1: rows × f32 scales (LE), rows·cols × i8 codes
//! ```

use crate::codec::{ByteReader, ByteWriter};
use crate::serialize::{read_checkpoint, LoadError, Record, MAGIC};
use crate::store::{ParamId, ParamStore};
use crate::tensor::{f16_bits_to_f32, f32_to_f16_bits, QuantMat, Tensor};

/// The version byte of quantized checkpoints (`LGRq`).
pub const QUANT_VERSION: u8 = b'q';

/// One quantized parameter's payload.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantData {
    /// An int8 weight matrix with per-row absmax scales.
    Mat(QuantMat),
    /// A vector stored as f16 (held dequantized for direct use).
    Vecf(Vec<f32>),
}

/// One quantized parameter: name, shape, payload.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantParam {
    /// The registration name (matches the f32 checkpoint).
    pub name: String,
    /// Row count of the original tensor.
    pub rows: usize,
    /// Column count of the original tensor.
    pub cols: usize,
    /// The quantized payload.
    pub data: QuantData,
}

/// A full quantized parameter store, indexed by the same [`ParamId`]s as
/// the [`ParamStore`] it was built from (registration order).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuantStore {
    params: Vec<QuantParam>,
}

impl QuantStore {
    /// Quantizes every parameter of `store`: matrices (`cols > 1`) to
    /// int8 with per-row absmax scales, vectors to f16.
    pub fn quantize(store: &ParamStore) -> QuantStore {
        let params = store
            .iter()
            .map(|p| {
                let (rows, cols) = (p.value.rows(), p.value.cols());
                let data = if cols > 1 {
                    QuantData::Mat(QuantMat::quantize(&p.value))
                } else {
                    QuantData::Vecf(
                        p.value
                            .data()
                            .iter()
                            .map(|&v| f16_bits_to_f32(f32_to_f16_bits(v)))
                            .collect(),
                    )
                };
                QuantParam { name: p.name.clone(), rows, cols, data }
            })
            .collect();
        QuantStore { params }
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the store holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// The parameter registered as `id`.
    pub fn get(&self, id: ParamId) -> &QuantParam {
        &self.params[id.0]
    }

    /// The int8 matrix registered as `id`.
    ///
    /// # Panics
    ///
    /// Panics when the parameter is a vector.
    pub fn mat(&self, id: ParamId) -> &QuantMat {
        match &self.params[id.0].data {
            QuantData::Mat(m) => m,
            QuantData::Vecf(_) => {
                panic!("parameter {:?} is a vector, not a matrix", self.params[id.0].name)
            }
        }
    }

    /// The f16-stored vector registered as `id`.
    ///
    /// # Panics
    ///
    /// Panics when the parameter is a matrix.
    pub fn vecf(&self, id: ParamId) -> &[f32] {
        match &self.params[id.0].data {
            QuantData::Vecf(v) => v,
            QuantData::Mat(_) => {
                panic!("parameter {:?} is a matrix, not a vector", self.params[id.0].name)
            }
        }
    }

    /// Dequantizes row `r` of matrix `id` into `out` (embedding lookups).
    ///
    /// # Panics
    ///
    /// Panics when the parameter is a vector, `r` is out of range, or
    /// `out` is not `cols` long.
    pub fn row(&self, id: ParamId, r: usize, out: &mut [f32]) {
        let m = self.mat(id);
        assert!(r < m.rows(), "row {r} out of {}", m.rows());
        assert_eq!(out.len(), m.cols(), "row buffer length mismatch");
        let s = m.scales()[r];
        for (o, &q) in out.iter_mut().zip(&m.codes()[r * m.cols()..(r + 1) * m.cols()]) {
            *o = q as f32 * s;
        }
    }

    /// Rebuilds an f32 [`ParamStore`] from the quantized values (lossy:
    /// int8/f16 precision). Lets f32-only consumers read a quantized
    /// checkpoint.
    pub fn dequantize(&self) -> ParamStore {
        let mut store = ParamStore::new();
        for p in &self.params {
            let value = match &p.data {
                QuantData::Mat(m) => m.dequantize(),
                QuantData::Vecf(v) => Tensor::from_vec(p.rows, p.cols, v.clone()),
            };
            store.add(p.name.clone(), value);
        }
        store
    }

    /// The serialized payload size in bytes (codes + scales + f16s,
    /// without record framing) — the number behind the "~4× smaller"
    /// claim in the README.
    pub fn payload_bytes(&self) -> usize {
        self.params
            .iter()
            .map(|p| match &p.data {
                QuantData::Mat(m) => m.codes().len() + 4 * m.scales().len(),
                QuantData::Vecf(v) => 2 * v.len(),
            })
            .sum()
    }
}

/// Serializes a quantized store in the binary `LGRq` format.
pub fn save_store_quantized(qs: &QuantStore) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(8 + qs.payload_bytes() + qs.len() * 32);
    w.header(MAGIC, QUANT_VERSION);
    w.u32(qs.len() as u32);
    for p in &qs.params {
        w.str(&p.name);
        w.u32(p.rows as u32);
        w.u32(p.cols as u32);
        match &p.data {
            QuantData::Vecf(v) => {
                w.u8(0);
                for &x in v {
                    w.u16(f32_to_f16_bits(x));
                }
            }
            QuantData::Mat(m) => {
                w.u8(1);
                for &s in m.scales() {
                    w.f32(s);
                }
                // SAFETY: i8 and u8 have the same size and alignment and
                // every bit pattern is a valid u8, so the codes slice reads
                // as bytes over exactly its own length.
                w.raw(unsafe {
                    std::slice::from_raw_parts(m.codes().as_ptr().cast::<u8>(), m.codes().len())
                });
            }
        }
    }
    w.into_bytes()
}

/// Reconstructs a quantized store from [`save_store_quantized`] output.
///
/// # Errors
///
/// Returns [`LoadError::BadMagic`] / [`LoadError::VersionMismatch`] for
/// foreign inputs (an `LGR1` f32 checkpoint reports version `'1'`),
/// [`LoadError::DuplicateParam`] when a name repeats, and
/// [`LoadError::UnexpectedEof`] / [`LoadError::BadRecord`] on truncation
/// or malformed records.
pub fn load_store_quantized(bytes: &[u8]) -> Result<QuantStore, LoadError> {
    let params = read_checkpoint(bytes, QUANT_VERSION, 13, |r, rec| {
        let Record { index, name, rows, cols, len } = rec;
        let data = match r.u8()? {
            0 => QuantData::Vecf(r.repeat(len, 2, |r| r.u16().map(f16_bits_to_f32))?),
            1 => {
                let scales = r.repeat(rows, 4, ByteReader::f32)?;
                let codes: Vec<i8> = r.take(len)?.iter().map(|&b| b as i8).collect();
                QuantData::Mat(QuantMat::from_parts(rows, cols, codes, scales))
            }
            _ => return Err(LoadError::BadRecord { index }),
        };
        Ok(QuantParam { name, rows, cols, data })
    })?;
    Ok(QuantStore { params })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize::load_store_binary;

    fn sample_store() -> ParamStore {
        let mut store = ParamStore::new();
        store.add(
            "enc.w",
            Tensor::from_vec(3, 4, (0..12).map(|i| (i as f32 - 5.5) * 0.17).collect()),
        );
        store.add("enc.b", Tensor::vector(vec![0.125, -0.75, 1.0e-3]));
        store.add("zero.w", Tensor::from_vec(2, 3, vec![0.0; 6]));
        store
    }

    #[test]
    fn quantized_roundtrip_is_bitwise() {
        let qs = QuantStore::quantize(&sample_store());
        let loaded = load_store_quantized(&save_store_quantized(&qs)).unwrap();
        assert_eq!(qs, loaded);
    }

    #[test]
    fn f32_loader_rejects_quantized_checkpoints() {
        let qs = QuantStore::quantize(&sample_store());
        let bytes = save_store_quantized(&qs);
        assert_eq!(
            load_store_binary(&bytes).unwrap_err(),
            LoadError::VersionMismatch { found: b'q' }
        );
    }

    #[test]
    fn quantized_loader_rejects_f32_checkpoints() {
        let bytes = crate::serialize::save_store_binary(&sample_store());
        assert_eq!(
            load_store_quantized(&bytes).unwrap_err(),
            LoadError::VersionMismatch { found: b'1' }
        );
    }

    #[test]
    fn truncated_quantized_checkpoint_is_rejected() {
        let qs = QuantStore::quantize(&sample_store());
        let bytes = save_store_quantized(&qs);
        assert!(load_store_quantized(&bytes[..bytes.len() - 2]).is_err());
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(load_store_quantized(&extended).is_err());
    }

    #[test]
    fn dequantize_stays_within_half_a_step() {
        let store = sample_store();
        let qs = QuantStore::quantize(&store);
        let deq = qs.dequantize();
        let id = ParamId(0);
        let (orig, back) = (&store.get(id).value, &deq.get(id).value);
        let m = qs.mat(id);
        for r in 0..orig.rows() {
            let bound = m.scales()[r] / 2.0 + 1e-12;
            for c in 0..orig.cols() {
                let err = (orig.data()[r * 4 + c] - back.data()[r * 4 + c]).abs();
                assert!(err <= bound, "row {r} col {c}: err {err} > {bound}");
            }
        }
        // Vectors hold the f16 rounding of the originals.
        let want: Vec<f32> = [0.125f32, -0.75, 1.0e-3]
            .iter()
            .map(|&v| f16_bits_to_f32(f32_to_f16_bits(v)))
            .collect();
        assert_eq!(deq.get(ParamId(1)).value.data(), &want[..]);
    }

    #[test]
    fn row_matches_dequantized_matrix() {
        let qs = QuantStore::quantize(&sample_store());
        let deq = qs.mat(ParamId(0)).dequantize();
        let mut row = vec![0.0; 4];
        qs.row(ParamId(0), 2, &mut row);
        assert_eq!(&row[..], &deq.data()[8..12]);
    }

    #[test]
    fn payload_is_about_four_times_smaller() {
        let mut store = ParamStore::new();
        store.add("big.w", crate::gradcheck::pseudo_tensor(64, 64, 3));
        let qs = QuantStore::quantize(&store);
        // 4096 i8 codes + 64 f32 scales vs 4096 f32 values.
        assert!(qs.payload_bytes() * 3 < 4096 * 4);
    }
}
