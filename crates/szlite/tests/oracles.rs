//! The fast codec paths against their scalar oracles, on random grids.
//!
//! `compress_into` must emit exactly `compress_reference`'s bytes and
//! `decompress_into` must return exactly `decompress_reference`'s
//! values, bit for bit, for `f32` and `f64`. The generator covers the
//! row shapes the shared Lorenzo walker distinguishes — 1-D rows, a
//! grid's first row, row pairs, a plane's odd last row, `nx = 1`, and
//! `ny = 1` with `nz > 1` — and sprinkles NaN, ±∞, ±1e30 and `-0.0`
//! into the data, with bounds and radii tight enough that escapes land
//! in both rows of a pair.

use proptest::prelude::*;
use szlite::quantizer::round_half_away;
use szlite::{
    compress_into, compress_reference, decompress_into, decompress_reference, Config,
    DecompressScratch, Dims, Element, Scratch,
};

fn shape() -> impl Strategy<Value = Vec<usize>> {
    prop_oneof![
        (1usize..300).prop_map(|n| vec![n]),
        ((1usize..20), (1usize..20)).prop_map(|(y, x)| vec![y, x]),
        ((1usize..7), (1usize..8), (1usize..12)).prop_map(|(z, y, x)| vec![z, y, x]),
        ((2usize..7), (1usize..12)).prop_map(|(z, x)| vec![z, 1, x]),
        ((1usize..7), (1usize..9)).prop_map(|(z, y)| vec![z, y, 1]),
    ]
}

/// A shape and its values: a smooth wave plus noise, with about one
/// point in sixteen replaced by a value the quantizer must escape.
fn grid() -> impl Strategy<Value = (Vec<usize>, Vec<f64>)> {
    (shape(), 0.01f64..10.0).prop_flat_map(|(dims, amp)| {
        let n: usize = dims.iter().product();
        proptest::collection::vec((0u8..96, -1.0f64..1.0), n..=n).prop_map(move |pts| {
            let data = pts
                .iter()
                .enumerate()
                .map(|(i, &(kind, noise))| match kind {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3 => 1e30,
                    4 => -1e30,
                    5 => -0.0,
                    _ => (i as f64 * 0.21).sin() * amp + noise * amp * 0.05,
                })
                .collect();
            (dims.clone(), data)
        })
    })
}

fn config() -> impl Strategy<Value = Config> {
    (-8i32..0, prop_oneof![Just(32768u32), 2u32..40], 0u8..3).prop_map(|(exp, radius, mode)| {
        let eb = 10f64.powi(exp);
        let cfg = if mode == 0 {
            Config::rel(eb)
        } else {
            Config::abs(eb)
        };
        cfg.with_radius(radius).with_lossless(mode != 1)
    })
}

fn check<T: Element + std::fmt::Debug>(
    data: &[T],
    dims: &Dims,
    cfg: &Config,
    bits: impl Fn(&T) -> u64,
) -> Result<(), TestCaseError> {
    let reference = compress_reference(data, dims, cfg).unwrap();
    let mut fast = Vec::new();
    compress_into(data, dims, cfg, &mut Scratch::new(), &mut fast).unwrap();
    prop_assert!(fast == reference, "compress_into diverged on {:?}", dims);

    let (want, want_dims) = decompress_reference::<T>(&reference).unwrap();
    let mut got = Vec::new();
    let got_dims = decompress_into(&reference, &mut DecompressScratch::new(), &mut got).unwrap();
    prop_assert_eq!(&got_dims, &want_dims);
    let (got, want): (Vec<u64>, Vec<u64>) = (
        got.iter().map(&bits).collect(),
        want.iter().map(&bits).collect(),
    );
    prop_assert!(got == want, "decompress_into diverged on {:?}", dims);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_and_seed(160, 0x0A_C1E5) /* pinned: deterministic CI */)]

    #[test]
    fn fast_codec_matches_oracles((dims, data) in grid(), cfg in config()) {
        let d = Dims::from_slice(&dims).unwrap();
        check(&data, &d, &cfg, |v| v.to_bits())?;
        let narrow: Vec<f32> = data.iter().map(|&v| v as f32).collect();
        check(&narrow, &d, &cfg, |v| u64::from(v.to_bits()))?;
    }

    #[test]
    fn round_half_away_is_f64_round(bits in any::<u64>(), k in -5000i64..5000) {
        // Arbitrary bit patterns (every exponent, NaNs included) and
        // exact ties k + 0.5.
        for v in [f64::from_bits(bits), k as f64 + 0.5, k as f64 - 0.5] {
            let (got, want) = (round_half_away(v), v.round());
            prop_assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "round_half_away({:e}) = {:e}, f64::round = {:e}", v, got, want
            );
        }
    }
}

#[test]
fn round_half_away_edge_cases() {
    let two51 = (1u64 << 51) as f64;
    let cases = [
        0.0,
        0.5,
        1.5,
        2.5,
        0.49999999999999994,
        1.0 - f64::EPSILON / 2.0,
        two51 - 1.0,
        two51 + 1.0,
        two51 + 0.5,
        2.0 * two51 - 0.5,
        2.0 * two51 + 1.0,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 2.0,
        f64::from_bits(1),
        f64::MAX,
        f64::INFINITY,
    ];
    for v in cases.into_iter().flat_map(|v| [v, -v]) {
        assert_eq!(
            round_half_away(v).to_bits(),
            v.round().to_bits(),
            "round_half_away({v:e})"
        );
    }
    assert!(round_half_away(f64::NAN).is_nan());
    assert!(round_half_away(-f64::NAN).is_nan());
}
