//! Bit-identity of the fast codec paths against the scalar reference
//! pipelines on real workload data.
//!
//! `szlite::compress_into` and `decompress_into` replay the Lorenzo
//! recurrence through one shared row walker (zero-neighbour rows, row
//! pairs); `szlite/tests/oracles.rs` pins them against
//! `compress_reference` and `decompress_reference` on random grids.
//! These tests close the remaining gap: every field of each paper
//! workload (Nyx, VPIC, RTM), at both a loose and a tight bound, with
//! one `Scratch` and one `DecompressScratch` reused across all of them
//! — the exact usage pattern of the streaming pipeline.

use szlite::{
    compress_into, compress_reference, decompress_into, decompress_reference, Config,
    DecompressScratch, Dims, Scratch,
};
use workloads::{nyx, rtm, vpic, Dataset, NyxParams, RtmParams, VpicParams};

fn assert_identical(ds: &Dataset, scratch: &mut Scratch) {
    let mut dscratch = DecompressScratch::new();
    let mut decoded: Vec<f32> = Vec::new();
    for field in &ds.fields {
        let dims = Dims::from_slice(&field.dims).unwrap();
        for cfg in [Config::rel(1e-2), Config::rel(1e-4).with_lossless(false)] {
            let reference = compress_reference(&field.data, &dims, &cfg).unwrap();
            let mut fused = Vec::new();
            compress_into(&field.data, &dims, &cfg, scratch, &mut fused).unwrap();
            assert_eq!(
                fused, reference,
                "fused stream diverged on field '{}' (dims {:?})",
                field.name, field.dims
            );
            let (want, _) = decompress_reference::<f32>(&reference).unwrap();
            decompress_into(&reference, &mut dscratch, &mut decoded).unwrap();
            assert!(
                decoded
                    .iter()
                    .map(|v| v.to_bits())
                    .eq(want.iter().map(|v| v.to_bits())),
                "decoded values diverged on field '{}' (dims {:?})",
                field.name,
                field.dims
            );
        }
    }
}

#[test]
fn nyx_fields_byte_identical() {
    let mut scratch = Scratch::new();
    assert_identical(&nyx::snapshot(NyxParams::with_side(24)), &mut scratch);
}

#[test]
fn vpic_fields_byte_identical() {
    let mut scratch = Scratch::new();
    assert_identical(
        &vpic::snapshot(VpicParams::with_particles(6000)),
        &mut scratch,
    );
}

#[test]
fn rtm_fields_byte_identical() {
    let mut scratch = Scratch::new();
    assert_identical(&rtm::snapshot(RtmParams::with_side(24)), &mut scratch);
}
