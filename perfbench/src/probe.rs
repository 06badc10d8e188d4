//! Host probe, recorded with every run but never gated: how much a
//! second spinning thread adds on this host, and the throughput of a
//! fixed serial compression. Readers use it to tell host drift (shared
//! cores, frequency changes) from a code change.

use std::hint::black_box;
use std::time::Instant;
use szlite::{compress_into, Config, Dims, Scratch};

/// Spin-loop iterations per thread.
const SPIN_ITERS: u64 = 60_000_000;

fn spin(iters: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..iters {
        x = black_box(
            x.wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407),
        );
    }
    x
}

/// Throughput of two threads each spinning `SPIN_ITERS` over one
/// thread spinning the same: 2.0 on two free cores, 1.0 on one.
pub fn spin_speedup() -> f64 {
    let t = Instant::now();
    black_box(spin(SPIN_ITERS));
    let one = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::thread::scope(|s| {
        let a = s.spawn(|| spin(SPIN_ITERS));
        let b = s.spawn(|| spin(SPIN_ITERS));
        black_box(a.join().expect("spin thread panicked"));
        black_box(b.join().expect("spin thread panicked"));
    });
    let two = t.elapsed().as_secs_f64();
    2.0 * one / two
}

/// Serial `compress_into` throughput, MB/s, on a fixed input that no
/// seed changes (a smooth 64³ field at relative bound 1e-3); the
/// median of seven compressions.
pub fn serial_compress_mbps() -> f64 {
    let n = 64usize;
    let data: Vec<f32> = (0..n * n * n)
        .map(|i| {
            let (x, y, z) = ((i % n) as f32, ((i / n) % n) as f32, (i / (n * n)) as f32);
            (0.11 * x).sin() * (0.07 * y).cos() + 0.02 * z + 0.001 * ((i * 7919) % 97) as f32
        })
        .collect();
    let dims = Dims::d3(n, n, n);
    let cfg = Config::rel(1e-3);
    let mut scratch = Scratch::new();
    let mut out = Vec::new();
    let mut rates: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            compress_into(&data, &dims, &cfg, &mut scratch, &mut out)
                .expect("probe input compresses");
            (data.len() * 4) as f64 / t.elapsed().as_secs_f64() / 1e6
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[rates.len() / 2]
}
