//! Compression-ratio prediction from sampled quantization codes.
//!
//! Implements the sampling-based ratio model of Jin et al. \[25\]
//! (arXiv:2111.09815), the enabler of the paper's entire design: the
//! predicted compressed size of every partition is known *before*
//! compression, so write offsets can be pre-computed and compression
//! overlapped with writes.
//!
//! The estimate has three parts:
//! 1. **Huffman stage** — build a canonical Huffman code over the
//!    sampled histogram; expected bits/point is the frequency-weighted
//!    code length (plus the table, amortized over the partition).
//! 2. **Literals** — unpredictable points cost the full element width.
//! 3. **Lossless stage** — a run-length-based correction: long runs of
//!    the dominant code compress further under LZSS; near-random code
//!    streams do not (the paper notes the model degrades above ratio
//!    32× for exactly this reason, §III-D).

use szlite::huffman::{sparse_cost, EncoderWorkspace};
use szlite::SampleCodes;

/// Tunable constants of the lossless-stage correction.
///
/// Defaults were calibrated once against `szlite` on synthetic Nyx/RTM
/// fields (see `tests/model_accuracy.rs`); they are data-independent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LosslessGain {
    /// Fraction of Huffman output that survives LZSS at infinite run
    /// length (floor of the gain curve).
    pub floor: f64,
    /// Run length at which half the possible gain is realized.
    pub half_run: f64,
}

impl Default for LosslessGain {
    fn default() -> Self {
        LosslessGain {
            floor: 0.08,
            half_run: 12.0,
        }
    }
}

impl LosslessGain {
    /// Multiplicative factor applied to the Huffman-stage bits.
    pub fn factor(&self, mean_run_length: f64) -> f64 {
        let r = mean_run_length.max(1.0) - 1.0;
        // 1.0 at r = 0, approaching `floor` as r → ∞.
        self.floor + (1.0 - self.floor) / (1.0 + r / self.half_run)
    }
}

/// A predicted partition size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatioPrediction {
    /// Predicted compressed bits per point.
    pub bits_per_point: f64,
    /// Predicted compressed size in bytes.
    pub bytes: u64,
    /// Predicted compression ratio vs. the original element width.
    pub ratio: f64,
    /// The Huffman-stage estimate before the lossless correction.
    pub huffman_bits_per_point: f64,
    /// Estimated unpredictable (literal) fraction.
    pub unpredictable_fraction: f64,
}

/// Fixed per-stream overhead (header + small sections), bytes.
const STREAM_OVERHEAD: u64 = 64;

/// Predict the compressed size of a partition of `n_total` elements of
/// width `elem_bits` from its sampled code statistics.
pub fn predict(s: &SampleCodes, elem_bits: u32, gain: &LosslessGain) -> RatioPrediction {
    let n_total = s.n_total as f64;

    // Huffman expected code length over the sampled histogram, built
    // from the observed symbols only.
    let (code_bits, table_bytes) = sparse_cost(
        s.alphabet,
        &s.symbols,
        &s.counts,
        &mut EncoderWorkspace::default(),
    );
    let sampled: u64 = s.counts.iter().sum();
    let huff_bits = if sampled == 0 {
        0.0
    } else {
        code_bits as f64 / sampled as f64
    };

    // Table overhead amortized over the whole partition. The sampled
    // alphabet under-counts the full-partition alphabet slightly; a
    // 1.5× safety factor keeps the estimate centered in practice.
    let table_bits = table_bytes as f64 * 8.0 * 1.5 / n_total;

    // Literal cost for unpredictable points.
    let unpred = s.unpredictable_fraction();
    let literal_bits = unpred * f64::from(elem_bits);

    // Lossless correction applies to the Huffman-coded stream only;
    // literals are near-incompressible floats.
    let lz = gain.factor(s.mean_run_length());
    let bits_pp = huff_bits * lz + literal_bits + table_bits;

    let bytes = ((bits_pp * n_total / 8.0).ceil() as u64 + STREAM_OVERHEAD).max(1);
    let ratio = (n_total * f64::from(elem_bits) / 8.0) / bytes as f64;
    RatioPrediction {
        bits_per_point: bytes as f64 * 8.0 / n_total,
        bytes,
        ratio,
        huffman_bits_per_point: huff_bits,
        unpredictable_fraction: unpred,
    }
}

/// Convenience: predict with default lossless-gain constants.
pub fn predict_default(s: &SampleCodes, elem_bits: u32) -> RatioPrediction {
    predict(s, elem_bits, &LosslessGain::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use szlite::{sample_quantization, Config, Dims};

    fn sample(data: &[f32], eb: f64) -> SampleCodes {
        sample_quantization(data, &Dims::d1(data.len()), &Config::abs(eb), 1.0).unwrap()
    }

    #[test]
    fn smooth_data_predicts_high_ratio() {
        let data: Vec<f32> = (0..100_000).map(|i| i as f32 * 1e-4).collect();
        let p = predict_default(&sample(&data, 0.01), 32);
        assert!(p.ratio > 20.0, "ratio {}", p.ratio);
    }

    #[test]
    fn random_data_predicts_low_ratio() {
        let mut x = 7u32;
        let data: Vec<f32> = (0..50_000)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                (x >> 8) as f32 / 1e4
            })
            .collect();
        let p = predict_default(&sample(&data, 1e-3), 32);
        assert!(p.ratio < 4.0, "ratio {}", p.ratio);
    }

    /// The prediction as first written: a dense `from_freqs` Huffman
    /// build over the whole alphabet.
    fn predict_dense(s: &SampleCodes, elem_bits: u32, gain: &LosslessGain) -> RatioPrediction {
        let mut histogram = vec![0u64; s.alphabet];
        for (&sym, &c) in s.symbols.iter().zip(&s.counts) {
            histogram[sym as usize] = c;
        }
        let n_total = s.n_total as f64;
        let enc = szlite::huffman::HuffmanEncoder::from_freqs(&histogram);
        let sampled: u64 = histogram.iter().sum();
        let huff_bits = if sampled == 0 {
            0.0
        } else {
            enc.encoded_bits(&histogram) as f64 / sampled as f64
        };
        let table_bits = enc.table_bytes() as f64 * 8.0 * 1.5 / n_total;
        let unpred = s.unpredictable_fraction();
        let literal_bits = unpred * f64::from(elem_bits);
        let lz = gain.factor(s.mean_run_length());
        let bits_pp = huff_bits * lz + literal_bits + table_bits;
        let bytes = ((bits_pp * n_total / 8.0).ceil() as u64 + STREAM_OVERHEAD).max(1);
        let ratio = (n_total * f64::from(elem_bits) / 8.0) / bytes as f64;
        RatioPrediction {
            bits_per_point: bytes as f64 * 8.0 / n_total,
            bytes,
            ratio,
            huffman_bits_per_point: huff_bits,
            unpredictable_fraction: unpred,
        }
    }

    #[test]
    fn sparse_prediction_matches_dense_build() {
        let g = LosslessGain::default();
        let mut x = 11u32;
        let noisy: Vec<f32> = (0..60_000)
            .map(|i| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                (i as f32 * 1e-3).sin() + (x >> 12) as f32 * 1e-6
            })
            .collect();
        let outliers: Vec<f32> = (0..9_000)
            .map(|i| if i % 97 == 0 { 1e30 } else { i as f32 })
            .collect();
        for (data, dims) in [
            (&noisy, Dims::d1(noisy.len())),
            (&noisy, Dims::d3(30, 40, 50)),
            (&outliers, Dims::d2(90, 100)),
        ] {
            for eb in [1e-6, 1e-3, 0.5] {
                for radius in [2, 64, 32768] {
                    let cfg = Config::abs(eb).with_radius(radius);
                    let s = sample_quantization(data, &dims, &cfg, 0.1).unwrap();
                    assert_eq!(predict(&s, 32, &g), predict_dense(&s, 32, &g));
                }
            }
        }
    }

    #[test]
    fn gain_factor_monotone() {
        let g = LosslessGain::default();
        assert!(g.factor(1.0) > g.factor(5.0));
        assert!(g.factor(5.0) > g.factor(100.0));
        assert!((g.factor(1.0) - 1.0).abs() < 1e-9);
        assert!(g.factor(1e9) >= g.floor);
    }

    #[test]
    fn prediction_internally_consistent() {
        let data: Vec<f32> = (0..10_000).map(|i| (i as f32 * 0.01).sin()).collect();
        let p = predict_default(&sample(&data, 1e-3), 32);
        let implied = 10_000.0 * 32.0 / 8.0 / p.bytes as f64;
        assert!((p.ratio - implied).abs() < 1e-9);
        assert!(p.bits_per_point > 0.0);
    }
}
