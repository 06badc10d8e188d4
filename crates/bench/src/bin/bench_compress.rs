//! `bench_compress` — compression-throughput experiment for the
//! parallel chunk-compression pipeline.
//!
//! Two measurements on the Nyx workload, both against the serial
//! `write_full` baseline:
//!
//! 1. **compress-only scaling** — raw pipeline MB/s at N workers with
//!    unthrottled async writes (shows CPU scaling; flat on a 1-core
//!    host);
//! 2. **overlap-async** — calibrated throttled writes (per-queue
//!    bandwidth set so one queue's write time ≈ 2× the measured
//!    compression time, the paper's I/O-bound regime). The serial
//!    baseline compresses then writes synchronously through one queue;
//!    the pipeline streams into an [`EventSet`] driving
//!    `n_write_queues` queues, so compression overlaps in-flight
//!    writes. This is the speedup mechanism of the paper's design and
//!    shows up even on a single core.
//!
//! Writes machine-readable results to `BENCH_compress.json` (override
//! with `BENCH_OUT`), and asserts the pipelined files stay
//! byte-identical to serial output.
//!
//! ```text
//! cargo run -p bench --release --bin bench_compress
//! BENCH_SIDE=128 BENCH_WORKERS=1,2,4 cargo run -p bench --release --bin bench_compress
//! ```
//!
//! Knobs: `BENCH_SIDE` (nyx cube side, default 64), `BENCH_CHUNK`
//! (chunk side, must divide side, default 16), `BENCH_WORKERS`
//! (default `1,2,4,8`), `BENCH_REPS` (default 3), `BENCH_OUT`.

use bench::setup::{best_of, env_usize};
use h5lite::{
    compress_chunks, BufferPool, DatasetSpec, Dtype, EventSet, FilterRegistry, FilterSpec, H5File,
    SzFilterParams, SZLITE_FILTER_ID,
};
use pfsim::{SharedFile, Throttle};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;
use workloads::{nyx, NyxParams};

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "bench-compress-{}-{}.h5l",
        std::process::id(),
        name
    ))
}

struct Setup {
    bytes: Vec<u8>,
    dims: [u64; 3],
    chunk: [u64; 3],
    filters: Vec<FilterSpec>,
}

impl Setup {
    fn spec(&self, name: &str) -> DatasetSpec {
        let mut s = DatasetSpec::new(name, Dtype::F32, &self.dims).chunked(&self.chunk);
        for f in &self.filters {
            s = s.with_filter(f.clone());
        }
        s
    }
}

fn write_serial(setup: &Setup, path: &std::path::Path) {
    let f = H5File::create(path).unwrap();
    let id = f.create_dataset(setup.spec("d")).unwrap();
    f.write_full(id, &setup.bytes).unwrap();
    f.close().unwrap();
}

fn write_pipelined(setup: &Setup, path: &std::path::Path, workers: usize) {
    let f = H5File::create(path).unwrap();
    let id = f.create_dataset(setup.spec("d")).unwrap();
    let es = EventSet::new(1);
    f.write_full_pipelined(id, &setup.bytes, workers, &es, None)
        .unwrap();
    es.wait().unwrap();
    f.close().unwrap();
}

fn main() {
    let side = env_usize("BENCH_SIDE", 64);
    let chunk = env_usize("BENCH_CHUNK", 16);
    assert!(
        side.is_multiple_of(chunk),
        "BENCH_CHUNK ({chunk}) must divide BENCH_SIDE ({side})"
    );
    let reps = env_usize("BENCH_REPS", 3);
    let workers: Vec<usize> = std::env::var("BENCH_WORKERS")
        .unwrap_or_else(|_| "1,2,4,8".into())
        .split(',')
        .filter_map(|w| w.trim().parse().ok())
        .collect();
    let out_path = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_compress.json".to_string());

    println!("generating nyx side={side} (chunk {chunk}³, reps {reps}) ...");
    let ds = nyx::snapshot(NyxParams::with_side(side));
    let field = ds.field("baryon_density").unwrap();
    let bytes: Vec<u8> = field.data.iter().flat_map(|v| v.to_le_bytes()).collect();
    let raw_bytes = bytes.len();
    let mb = raw_bytes as f64 / 1e6;
    let s = side as u64;
    let c = chunk as u64;
    let setup = Setup {
        bytes,
        dims: [s, s, s],
        chunk: [c, c, c],
        filters: vec![FilterSpec {
            id: SZLITE_FILTER_ID,
            params: SzFilterParams {
                // Value-range-relative 1e-3, SZ's standard mode for
                // density fields (an absolute bound would need manual
                // per-field calibration).
                absolute: false,
                bound: 1e-3,
                dims: vec![chunk, chunk, chunk],
            }
            .to_bytes(),
        }],
    };

    // ---- Experiment 1: compress-only scaling -------------------------
    let serial_path = tmp("serial");
    // Warm up caches / CPU clocks before anything is timed.
    write_serial(&setup, &serial_path);
    let serial_secs = best_of(reps, || write_serial(&setup, &serial_path));
    let serial_file = std::fs::read(&serial_path).unwrap();
    println!(
        "serial write_full        : {serial_secs:.3} s  {:.1} MB/s",
        mb / serial_secs
    );

    let mut byte_identical = true;
    let mut scaling = Vec::new();
    for &w in &workers {
        let path = tmp(&format!("pipe{w}"));
        let secs = best_of(reps, || write_pipelined(&setup, &path, w));
        byte_identical &= std::fs::read(&path).unwrap() == serial_file;
        let _ = std::fs::remove_file(&path);
        println!(
            "pipeline workers={w:<2}      : {secs:.3} s  {:.1} MB/s  ({:.2}x)",
            mb / secs,
            serial_secs / secs
        );
        scaling.push((w, secs));
    }
    let _ = std::fs::remove_file(&serial_path);
    assert!(byte_identical, "pipelined output diverged from serial");

    // ---- Experiment 2: overlap with throttled async writes -----------
    // Calibrate: measure pure compression time and total stored bytes.
    let registry = FilterRegistry::default();
    let pool = Arc::new(BufferPool::new());
    let mut stored_total = 0u64;
    let comp_secs = best_of(reps, || {
        stored_total = 0;
        compress_chunks(
            &registry,
            &setup.filters,
            &setup.bytes,
            &setup.dims,
            4,
            &setup.chunk,
            1,
            &pool,
            |_, stored, _| {
                stored_total += stored.len() as u64;
                pool.put(stored);
                Ok(())
            },
        )
        .unwrap();
    });
    // One queue takes ~3× the compression time to drain everything —
    // the I/O-bound regime the paper's overlap targets.
    let n_queues = 4usize;
    let queue_bw = (stored_total as f64 / (3.0 * comp_secs)).max(1.0);
    let throttles: Vec<Arc<Throttle>> = (0..n_queues)
        .map(|_| Arc::new(Throttle::new(queue_bw, Duration::ZERO)))
        .collect();
    println!(
        "\noverlap experiment: compression {comp_secs:.3} s, {} queues x {:.1} MB/s",
        n_queues,
        queue_bw / 1e6
    );

    // Serial baseline: compress, then write synchronously, one queue.
    let sync_path = tmp("sync");
    let serial_sync_secs = best_of(reps, || {
        let file = SharedFile::create(&sync_path).unwrap();
        compress_chunks(
            &registry,
            &setup.filters,
            &setup.bytes,
            &setup.dims,
            4,
            &setup.chunk,
            1,
            &pool,
            |_, stored, _| {
                throttles[0].acquire(stored.len() as u64);
                let off = file.reserve(stored.len() as u64);
                file.write_at(off, &stored).unwrap();
                pool.put(stored);
                Ok(())
            },
        )
        .unwrap();
    });
    let _ = std::fs::remove_file(&sync_path);
    println!("serial compress+sync-write: {serial_sync_secs:.3} s");

    let mut overlap = Vec::new();
    for &w in &workers {
        let path = tmp(&format!("ovl{w}"));
        let secs = best_of(reps, || {
            let file = SharedFile::create(&path).unwrap();
            let es = EventSet::new(n_queues);
            compress_chunks(
                &registry,
                &setup.filters,
                &setup.bytes,
                &setup.dims,
                4,
                &setup.chunk,
                w,
                &pool,
                |i, stored, _| {
                    let off = file.reserve(stored.len() as u64);
                    es.write_at_recycled(
                        &file,
                        off,
                        stored,
                        Some(Arc::clone(&throttles[i as usize % n_queues])),
                        Arc::clone(&pool),
                    );
                    Ok(())
                },
            )
            .unwrap();
            es.wait().unwrap();
        });
        let _ = std::fs::remove_file(&path);
        println!(
            "overlap  workers={w:<2}      : {secs:.3} s  ({:.2}x)",
            serial_sync_secs / secs
        );
        overlap.push((w, secs));
    }

    // ---- Machine-readable output -------------------------------------
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"workload\": \"nyx/baryon_density\",");
    let _ = writeln!(json, "  \"side\": {side},");
    let _ = writeln!(json, "  \"chunk\": {chunk},");
    let _ = writeln!(json, "  \"raw_bytes\": {raw_bytes},");
    let _ = writeln!(json, "  \"stored_bytes\": {stored_total},");
    let _ = writeln!(
        json,
        "  \"host_parallelism\": {},",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"byte_identical\": {byte_identical},");
    let _ = writeln!(json, "  \"compress_only\": {{");
    let _ = writeln!(json, "    \"serial_secs\": {serial_secs:.6},");
    let _ = writeln!(json, "    \"serial_mb_per_s\": {:.3},", mb / serial_secs);
    let _ = writeln!(json, "    \"pipeline\": [");
    for (i, &(w, secs)) in scaling.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"workers\": {w}, \"secs\": {secs:.6}, \"mb_per_s\": {:.3}, \"speedup\": {:.3}}}{}",
            mb / secs,
            serial_secs / secs,
            if i + 1 < scaling.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"overlap_async\": {{");
    let _ = writeln!(json, "    \"n_write_queues\": {n_queues},");
    let _ = writeln!(
        json,
        "    \"queue_bandwidth_mb_per_s\": {:.3},",
        queue_bw / 1e6
    );
    let _ = writeln!(json, "    \"compress_secs\": {comp_secs:.6},");
    let _ = writeln!(json, "    \"serial_sync_secs\": {serial_sync_secs:.6},");
    let _ = writeln!(json, "    \"pipeline\": [");
    for (i, &(w, secs)) in overlap.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"workers\": {w}, \"secs\": {secs:.6}, \"speedup\": {:.3}}}{}",
            serial_sync_secs / secs,
            if i + 1 < overlap.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");
    std::fs::write(&out_path, &json).unwrap();
    println!("\nwrote {out_path}");
}
