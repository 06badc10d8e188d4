//! The compression pipeline: Lorenzo prediction → error-bounded
//! quantization → canonical Huffman → LZSS.
//!
//! The hot path is a fused point kernel driven by the Lorenzo row walker
//! shared with the decoder ([`predictor::replay`](crate::predictor)): one
//! pass over the data performs prediction, quantization *and* Huffman
//! frequency counting, with zero-neighbour rows reduced to one add and
//! the other rows interleaved in pairs to shorten the serial
//! floating-point chain. Each pipeline worker
//! carries its own [`Scratch`] — frequency counts are accumulated
//! per-worker and merged into the Huffman build in a single sparse
//! rebuild, so no stage shares mutable state across workers. The
//! produced stream is byte-identical to the scalar reference
//! implementation ([`compress_reference`]) on every input.

use crate::config::{Config, Dims};
use crate::element::Element;
use crate::error::{Result, SzError};
use crate::huffman::{EncoderWorkspace, HuffmanEncoder};
use crate::lossless;
use crate::predictor::{replay, Lorenzo, PointKernel, Strides};
use crate::quantizer::{round_half_away, Quantizer, UNPREDICTABLE};
use crate::stream::{put_f64, put_u32, put_varint, BitWriter};

/// Stream magic: "SZL1".
pub const MAGIC: u32 = 0x314C5A53;
/// Current stream version.
pub const VERSION: u8 = 1;

/// Summary of one compression run, used by benchmarks and the ratio
/// model validation experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressStats {
    /// Number of points compressed.
    pub n_points: usize,
    /// Uncompressed size in bytes.
    pub raw_bytes: usize,
    /// Final compressed size in bytes (including header).
    pub compressed_bytes: usize,
    /// Points stored as raw literals (outside the codebook).
    pub n_unpredictable: usize,
    /// Serialized Huffman table size in bytes.
    pub huffman_table_bytes: usize,
    /// Bits used by the Huffman-coded symbol stream.
    pub code_bits: u64,
    /// Resolved absolute error bound.
    pub eb: f64,
}

impl CompressStats {
    /// Compression ratio (raw / compressed).
    pub fn ratio(&self) -> f64 {
        self.raw_bytes as f64 / self.compressed_bytes as f64
    }

    /// Bit-rate: average bits stored per point.
    pub fn bit_rate(&self) -> f64 {
        self.compressed_bytes as f64 * 8.0 / self.n_points as f64
    }
}

/// Reusable compressor workspace: quantization codes, literal bytes,
/// the reconstruction grid, Huffman frequency counts, the serialized
/// payload, the bit-stream backing buffer and the LZSS matcher state.
///
/// The per-chunk hot path allocates all of this state afresh when
/// going through [`compress_with_stats`]; a worker that compresses
/// many chunks keeps one `Scratch` and calls [`compress_into`] so the
/// buffers are recycled — steady-state compression then performs no
/// per-chunk allocation at all. The scratch never changes the produced
/// stream — output is byte-identical either way.
#[derive(Debug, Default)]
pub struct Scratch {
    codes: Vec<u32>,
    literals: Vec<u8>,
    recon: Vec<f64>,
    /// Frequency histogram over the full alphabet. Invariant: all-zero
    /// between calls — entries touched by a run are re-zeroed through
    /// `present` on the way out, so the (large) array is never memset.
    freqs: Vec<u64>,
    /// Symbols observed by the current run, unsorted until the Huffman
    /// build.
    present: Vec<u32>,
    payload: Vec<u8>,
    bits: Vec<u8>,
    zero_row: Vec<f64>,
    enc: HuffmanEncoder,
    enc_ws: EncoderWorkspace,
    lz: lossless::LzScratch,
    lz_out: Vec<u8>,
}

impl Scratch {
    /// Empty workspace; buffers grow to steady-state on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Compress `data` of shape `dims` under configuration `cfg`.
pub fn compress<T: Element>(data: &[T], dims: &Dims, cfg: &Config) -> Result<Vec<u8>> {
    compress_with_stats(data, dims, cfg).map(|(bytes, _)| bytes)
}

/// Compress and also return run statistics.
pub fn compress_with_stats<T: Element>(
    data: &[T],
    dims: &Dims,
    cfg: &Config,
) -> Result<(Vec<u8>, CompressStats)> {
    let mut scratch = Scratch::new();
    let mut out = Vec::new();
    let stats = compress_into(data, dims, cfg, &mut scratch, &mut out)?;
    Ok((out, stats))
}

/// Fused quantization + frequency-count kernel at one grid point, driven
/// by the shared Lorenzo row walker (`predictor::replay`).
///
/// Validity of the residual → code mapping folds into one predicate,
/// and only the rare escape leaves the straight-line path. The
/// floating operation order matches [`compress_reference`] exactly —
/// division by `2·eb` stays a division, [`round_half_away`] is
/// `f64::round` bit for bit, and the integral `q` multiplies `2·eb`
/// directly (`q as i64 as f64` is `q` for every in-range `q`; a `-0.0`
/// product adds to a prediction that is never `-0.0`) — so emitted
/// codes and reconstructions are bit-identical. Escapes are only
/// counted here; their literals are gathered afterwards in index order.
struct Quantize<'a, T> {
    data: &'a [T],
    codes: &'a mut [u32],
    /// Alphabet-sized histogram; `present` lists its nonzero entries.
    freqs: &'a mut [u64],
    present: &'a mut Vec<u32>,
    eb: f64,
    twice_eb: f64,
    radius: i64,
    radius_f: f64,
}

impl<T: Element> PointKernel for Quantize<'_, T> {
    #[inline(always)]
    fn point(&mut self, i: usize, pred: f64) -> f64 {
        let xv = self.data[i].to_f64();
        let q = round_half_away((xv - pred) / self.twice_eb);
        // Every comparison is false on NaN, so a non-finite value or
        // prediction lands in the escape lane.
        let in_range = q.abs() < self.radius_f;
        let r64 = pred + q * self.twice_eb;
        // Round through the storage type so the decoder (which emits T)
        // sees exactly this value.
        let rt = T::from_f64(r64).to_f64();
        let ok = in_range & ((xv - r64).abs() <= self.eb) & ((xv - rt).abs() <= self.eb);
        let code = if ok {
            (q as i64 + self.radius) as u32
        } else {
            UNPREDICTABLE
        };
        self.codes[i] = code;
        let f = &mut self.freqs[code as usize];
        if *f == 0 {
            self.present.push(code);
        }
        *f += 1;
        if ok {
            rt
        } else if xv.is_finite() {
            xv
        } else {
            0.0
        }
    }
}

/// Compress `data`, writing the stream into `out` (cleared first) and
/// reusing `scratch` for all transient compressor state.
pub fn compress_into<T: Element>(
    data: &[T],
    dims: &Dims,
    cfg: &Config,
    scratch: &mut Scratch,
    out: &mut Vec<u8>,
) -> Result<CompressStats> {
    let _span = obs::span_arg("sz.compress", std::mem::size_of_val(data) as u64);
    out.clear();
    if data.is_empty() {
        return Err(SzError::EmptyInput);
    }
    if dims.len() != data.len() {
        return Err(SzError::DimMismatch {
            expected: dims.len(),
            actual: data.len(),
        });
    }

    // Resolve the error bound. Only range-relative bounds scan for
    // min/max inside resolve_for; with an absolute bound the
    // prediction pass below is the single data traversal.
    let eb = cfg.error_bound.resolve_for(data)?;

    let quant = Quantizer::new(eb, cfg.radius);
    let st = Strides::new(dims);

    let n = data.len();
    let Scratch {
        codes,
        literals,
        recon,
        freqs,
        present,
        payload,
        bits,
        zero_row,
        enc,
        enc_ws,
        lz,
        lz_out,
    } = scratch;
    codes.clear();
    codes.resize(n, 0);
    literals.clear();
    recon.clear();
    recon.resize(n, 0.0);
    let alphabet = quant.alphabet();
    if freqs.len() < alphabet {
        freqs.resize(alphabet, 0);
    }
    present.clear();

    let radius = i64::from(cfg.radius.max(2));
    let mut kernel = Quantize {
        data,
        codes,
        freqs: &mut freqs[..alphabet],
        present,
        eb,
        twice_eb: 2.0 * eb,
        radius,
        radius_f: radius as f64,
    };
    replay(&st, recon, zero_row, &mut kernel);
    // Escapes, in index order; the escape symbol's count is their
    // number, so an escape-free run skips the scan.
    let n_unpred = freqs[UNPREDICTABLE as usize] as usize;
    if n_unpred > 0 {
        for (&c, &v) in codes.iter().zip(data) {
            if c == UNPREDICTABLE {
                v.write_le(literals);
            }
        }
    }

    // Huffman stage: the per-worker frequency counts fused into the
    // pass above merge into one sparse in-place table rebuild.
    present.sort_unstable();
    enc.rebuild_sparse(alphabet, &freqs[..alphabet], present, enc_ws);
    payload.clear();
    enc.serialize(payload);
    let table_bytes = payload.len();
    let mut bw = BitWriter::with_buffer(std::mem::take(bits));
    enc.encode(codes, &mut bw);
    let code_bits = bw.bit_len() as u64;
    let code_bytes = bw.finish();
    put_varint(payload, codes.len() as u64);
    put_varint(payload, code_bytes.len() as u64);
    payload.extend_from_slice(&code_bytes);
    // Reclaim the bit buffer's allocation for the next run.
    *bits = code_bytes;
    put_varint(payload, n_unpred as u64);
    payload.extend_from_slice(literals);

    // Restore the all-zero freqs invariant without touching the
    // alphabet-sized array.
    for &s in present.iter() {
        freqs[s as usize] = 0;
    }

    // Lossless stage.
    let (mode, body): (u8, &[u8]) = if cfg.lossless {
        lossless::compress_into(payload, lz_out, lz);
        (1u8, lz_out)
    } else {
        (0u8, payload)
    };

    // Header.
    out.reserve(body.len() + 64);
    put_u32(out, MAGIC);
    out.push(VERSION);
    out.push(T::DTYPE);
    out.push(dims.ndims() as u8);
    for &d in dims.extents() {
        put_varint(out, d as u64);
    }
    put_f64(out, eb);
    put_u32(out, cfg.radius);
    out.push(mode);
    put_varint(out, body.len() as u64);
    out.extend_from_slice(body);

    let stats = CompressStats {
        n_points: n,
        raw_bytes: n * T::BYTES,
        compressed_bytes: out.len(),
        n_unpredictable: n_unpred,
        huffman_table_bytes: table_bytes,
        code_bits,
        eb,
    };
    Ok(stats)
}

/// Scalar reference implementation of the compressor: per-point
/// [`Lorenzo::predict`] with its boundary branches, [`Quantizer`]
/// returning `Option`, a separate frequency-count pass and a dense
/// [`HuffmanEncoder::from_freqs`] build.
///
/// This is the original (pre-fusion) pipeline, kept as the oracle for
/// the byte-identity test suite: [`compress_into`] must produce exactly
/// these bytes on every input. It is not a hot path — it allocates per
/// call and makes three data passes.
pub fn compress_reference<T: Element>(data: &[T], dims: &Dims, cfg: &Config) -> Result<Vec<u8>> {
    if data.is_empty() {
        return Err(SzError::EmptyInput);
    }
    if dims.len() != data.len() {
        return Err(SzError::DimMismatch {
            expected: dims.len(),
            actual: data.len(),
        });
    }
    let eb = cfg.error_bound.resolve_for(data)?;
    let quant = Quantizer::new(eb, cfg.radius);
    let lorenzo = Lorenzo::new(dims);
    let st = *lorenzo.strides();

    let n = data.len();
    let mut codes: Vec<u32> = Vec::with_capacity(n);
    let mut literals: Vec<u8> = Vec::new();
    let mut recon = vec![0.0f64; n];
    let mut n_unpred = 0usize;

    let mut idx = 0usize;
    for z in 0..st.ext[0] {
        for y in 0..st.ext[1] {
            for x in 0..st.ext[2] {
                let xv = data[idx].to_f64();
                let pred = lorenzo.predict(&recon, z, y, x);
                let mut stored = false;
                if xv.is_finite() {
                    if let Some((code, r64)) = quant.quantize(xv, pred) {
                        // Round through the storage type so the decoder
                        // (which emits T) sees exactly this value.
                        let rt = T::from_f64(r64).to_f64();
                        if (xv - rt).abs() <= eb {
                            codes.push(code);
                            recon[idx] = rt;
                            stored = true;
                        }
                    }
                }
                if !stored {
                    codes.push(UNPREDICTABLE);
                    data[idx].write_le(&mut literals);
                    recon[idx] = if xv.is_finite() { xv } else { 0.0 };
                    n_unpred += 1;
                }
                idx += 1;
            }
        }
    }

    // Huffman stage.
    let mut freqs = vec![0u64; quant.alphabet()];
    for &c in codes.iter() {
        freqs[c as usize] += 1;
    }
    let enc = HuffmanEncoder::from_freqs(&freqs);
    let mut payload = Vec::new();
    enc.serialize(&mut payload);
    let mut bw = BitWriter::new();
    enc.encode(&codes, &mut bw);
    let code_bytes = bw.finish();
    put_varint(&mut payload, codes.len() as u64);
    put_varint(&mut payload, code_bytes.len() as u64);
    payload.extend_from_slice(&code_bytes);
    put_varint(&mut payload, n_unpred as u64);
    payload.extend_from_slice(&literals);

    // Lossless stage.
    let lz;
    let (mode, body): (u8, &[u8]) = if cfg.lossless {
        lz = lossless::compress(&payload);
        (1u8, &lz)
    } else {
        (0u8, &payload)
    };

    // Header.
    let mut out = Vec::with_capacity(body.len() + 64);
    put_u32(&mut out, MAGIC);
    out.push(VERSION);
    out.push(T::DTYPE);
    out.push(dims.ndims() as u8);
    for &d in dims.extents() {
        put_varint(&mut out, d as u64);
    }
    put_f64(&mut out, eb);
    put_u32(&mut out, cfg.radius);
    out.push(mode);
    put_varint(&mut out, body.len() as u64);
    out.extend_from_slice(body);
    Ok(out)
}

/// Convenience wrapper: compress an `f32` array.
pub fn compress_f32(data: &[f32], dims: &Dims, cfg: &Config) -> Result<Vec<u8>> {
    compress(data, dims, cfg)
}

/// Convenience wrapper: compress an `f64` array.
pub fn compress_f64(data: &[f64], dims: &Dims, cfg: &Config) -> Result<Vec<u8>> {
    compress(data, dims, cfg)
}
