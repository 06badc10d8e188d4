//! Error-bounded linear-scale quantization of prediction residuals.
//!
//! Residual `d = x − pred` maps to the integer code
//! `q = round(d / (2·eb))`; the reconstruction `pred + q·2·eb` is then
//! within `eb` of `x`. Codes are offset by `radius` so they are
//! non-negative; code `0` is reserved for *unpredictable* points whose
//! raw value is stored verbatim (either because `|q| ≥ radius` or
//! because rounding to the storage type would break the bound).

/// `v.round()` — nearest integer, ties away from zero — inlined.
///
/// On the x86-64 baseline (SSE2, no `roundsd`) `f64::round` is an
/// out-of-line libm call, and the compressor calls it on its serial
/// Lorenzo chain. Here the common case is two adds and a sign select;
/// the rare inputs that need more — exact ties rounded the wrong way,
/// magnitudes from 2^52 up, NaN — branch off to `f64::round`, so the
/// result is bit-identical to `f64::round` on every input.
#[inline(always)]
pub fn round_half_away(v: f64) -> f64 {
    // From 2^52 up every f64 is an integer.
    const INTEGRAL: f64 = 4_503_599_627_370_496.0;
    let a = v.abs();
    // Below 2^52, adding and removing 2^52 rounds to nearest, ties to
    // even; `t - a` is exact (Sterbenz), so a tie that went down shows.
    let t = (a + INTEGRAL) - INTEGRAL;
    if a < INTEGRAL && t - a != -0.5 {
        return t.copysign(v);
    }
    round_rare(v)
}

/// The out-of-line tail of [`round_half_away`].
#[cold]
#[inline(never)]
fn round_rare(v: f64) -> f64 {
    v.round()
}

/// Linear quantizer with a bounded codebook.
#[derive(Debug, Clone, Copy)]
pub struct Quantizer {
    eb: f64,
    twice_eb: f64,
    radius: i64,
}

/// Symbol reserved for unpredictable (literal) points.
pub const UNPREDICTABLE: u32 = 0;

impl Quantizer {
    /// Create a quantizer for absolute bound `eb` (> 0) and codebook
    /// half-size `radius` (≥ 2).
    pub fn new(eb: f64, radius: u32) -> Self {
        debug_assert!(eb > 0.0 && eb.is_finite());
        Quantizer {
            eb,
            twice_eb: 2.0 * eb,
            radius: i64::from(radius.max(2)),
        }
    }

    /// Absolute error bound.
    pub fn error_bound(&self) -> f64 {
        self.eb
    }

    /// Alphabet size (number of distinct symbols including the
    /// unpredictable escape).
    pub fn alphabet(&self) -> usize {
        (2 * self.radius) as usize
    }

    /// Quantize `x` against prediction `pred`. Returns the symbol and
    /// the double-precision reconstruction, or `None` when the point
    /// must be stored as a literal.
    #[inline]
    pub fn quantize(&self, x: f64, pred: f64) -> Option<(u32, f64)> {
        let d = x - pred;
        let q = (d / self.twice_eb).round();
        if !q.is_finite() || q.abs() >= self.radius as f64 {
            return None;
        }
        let q = q as i64;
        let recon = pred + q as f64 * self.twice_eb;
        if (x - recon).abs() > self.eb {
            // Rare: accumulated floating error pushed us out of bound.
            return None;
        }
        Some(((q + self.radius) as u32, recon))
    }

    /// Invert a symbol produced by [`Self::quantize`].
    #[inline]
    pub fn reconstruct(&self, code: u32, pred: f64) -> f64 {
        let q = i64::from(code) - self.radius;
        pred + q as f64 * self.twice_eb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_within_bound() {
        let q = Quantizer::new(0.5, 16);
        for (x, pred) in [(1.0, 0.0), (-3.7, 2.1), (0.0, 0.49), (7.2, 7.1)] {
            let (code, recon) = q.quantize(x, pred).unwrap();
            assert!((x - recon).abs() <= 0.5, "x={x} recon={recon}");
            assert_eq!(q.reconstruct(code, pred), recon);
            assert_ne!(code, UNPREDICTABLE);
        }
    }

    #[test]
    fn far_point_is_unpredictable() {
        let q = Quantizer::new(0.5, 16);
        // |q| = 100 / 1.0 = 100 >= 16
        assert!(q.quantize(100.0, 0.0).is_none());
    }

    #[test]
    fn nan_is_unpredictable() {
        let q = Quantizer::new(0.5, 16);
        assert!(q.quantize(f64::NAN, 0.0).is_none());
        assert!(q.quantize(f64::INFINITY, 0.0).is_none());
    }

    #[test]
    fn codes_are_in_alphabet() {
        let q = Quantizer::new(1e-3, 512);
        for i in -400..400 {
            let x = i as f64 * 1.9e-3;
            if let Some((code, _)) = q.quantize(x, 0.0) {
                assert!((code as usize) < q.alphabet());
                assert!(code > 0);
            }
        }
    }

    #[test]
    fn zero_residual_maps_to_radius() {
        let q = Quantizer::new(0.1, 8);
        let (code, recon) = q.quantize(5.0, 5.0).unwrap();
        assert_eq!(code, 8);
        assert_eq!(recon, 5.0);
    }
}
