//! `bench_decompress` — read-path throughput experiment for the
//! parallel decode pipeline.
//!
//! The read-side mirror of `bench_compress`: each workload's tiles
//! (Nyx cube, VPIC particle dump, RTM wavefield) are written once
//! through the sz filter, then read back two ways —
//!
//! 1. **serial** — `H5Reader::read_raw`, one thread, one reused
//!    `FilterScratch` (the baseline every consumer used before the
//!    pipelined reader existed);
//! 2. **pipelined** — `H5Reader::read_full_pipelined` at 1/2/4/8
//!    workers, each worker reading and de-filtering its own chunks
//!    with a worker-local scratch, tiles reassembled in chunk order.
//!
//! On top of the file-level reads, the binary measures the **serial
//! entropy-decode floor** per workload: each tile is compressed to a
//! single szlite stream and the decode stages are timed separately —
//! LZSS expansion, Huffman decode (table reinit + the LUT-driven
//! `decode_into`), and the Lorenzo/quantizer reconstruction (total
//! minus the other two). The Huffman stage is also re-timed through
//! the retained bit-at-a-time `decode_one_reference` oracle, and the
//! binary **asserts** the LUT path is at least as fast — a regression
//! in the table-driven decoder fails the smoke run outright.
//!
//! The binary asserts that every pipelined read is value-identical to
//! the serial result, and writes machine-readable timings (including
//! the per-stage `entropy` breakdown) to `BENCH_decompress.json`
//! (override with `BENCH_OUT`).
//!
//! ```text
//! cargo run -p bench --release --bin bench_decompress
//! BENCH_SIDE=128 BENCH_WORKERS=1,2,4 cargo run -p bench --release --bin bench_decompress
//! ```
//!
//! Knobs: `BENCH_SIDE` (cube side, default 64; VPIC uses side³
//! particles), `BENCH_CHUNK` (chunk side, must divide side, default
//! 16), `BENCH_WORKERS` (default `1,2,4,8`), `BENCH_REPS` (default 3),
//! `BENCH_OUT`.

use bench::setup::{best_of, env_usize};
use h5lite::{DatasetSpec, Dtype, FilterSpec, H5File, H5Reader, SzFilterParams, SZLITE_FILTER_ID};
use std::fmt::Write as _;
use workloads::{nyx, rtm, vpic, NyxParams, RtmParams, VpicParams};

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "bench-decompress-{}-{}.h5l",
        std::process::id(),
        name
    ))
}

struct Tile {
    name: &'static str,
    data: Vec<f32>,
    dims: Vec<u64>,
    chunk: Vec<u64>,
}

/// Per-stage serial decode timings over one whole-tile szlite stream.
struct EntropyBreakdown {
    n_points: usize,
    total_secs: f64,
    lossless_secs: f64,
    huffman_secs: f64,
    lorenzo_secs: f64,
    /// Huffman stage re-timed through `decode_one_reference`.
    reference_secs: f64,
}

/// Per-workload timing record for the JSON report.
struct Outcome {
    name: &'static str,
    raw_bytes: usize,
    stored_bytes: u64,
    n_chunks: usize,
    serial_secs: f64,
    pipeline: Vec<(usize, f64)>,
    value_identical: bool,
    entropy: EntropyBreakdown,
}

/// Time the decode stages of a single szlite stream covering the whole
/// tile: LZSS, Huffman (reinit + LUT `decode_into`), and Lorenzo as
/// the remainder. Small tiles are looped so every timed sample covers
/// a few million points — the smoke run at side 16 stays noise-proof.
fn entropy_breakdown(tile: &Tile, reps: usize) -> EntropyBreakdown {
    use szlite::huffman::HuffmanDecoder;
    use szlite::stream::{get_varint, BitReader};

    let dims_usize: Vec<usize> = tile.dims.iter().map(|&d| d as usize).collect();
    let dims = szlite::Dims::from_slice(&dims_usize).unwrap();
    let cfg = szlite::Config::rel(1e-3);
    let bytes = szlite::compress_f32(&tile.data, &dims, &cfg).unwrap();
    let info = szlite::stream_info(&bytes).unwrap();
    let n_points = tile.data.len();
    let iters = (4_000_000 / n_points).max(1);

    let mut scratch = szlite::DecompressScratch::new();
    let mut out: Vec<f32> = Vec::new();
    let total_secs = best_of(reps, || {
        for _ in 0..iters {
            szlite::decompress_into::<f32>(&bytes, &mut scratch, &mut out).unwrap();
        }
    }) / iters as f64;

    let body = &bytes[info.payload_offset..info.payload_offset + info.payload_len];
    let mut payload = Vec::new();
    let lossless_secs = if info.lossless {
        best_of(reps, || {
            for _ in 0..iters {
                szlite::lossless::decompress_into(body, &mut payload).unwrap();
            }
        }) / iters as f64
    } else {
        payload.extend_from_slice(body);
        0.0
    };

    // Locate the Huffman code bytes inside the payload (table, code
    // count, code byte length, code bits — the decompressor's layout).
    let mut dec = HuffmanDecoder::default();
    let mut codes: Vec<u32> = Vec::new();
    let mut pos = 0usize;
    dec.reinit(&payload, &mut pos).unwrap();
    let n_codes = get_varint(&payload, &mut pos).unwrap() as usize;
    let code_len = get_varint(&payload, &mut pos).unwrap() as usize;
    let code_bytes = payload[pos..pos + code_len].to_vec();

    let huffman_secs = best_of(reps, || {
        for _ in 0..iters {
            let mut p = 0usize;
            dec.reinit(&payload, &mut p).unwrap();
            let mut br = BitReader::new(&code_bytes);
            dec.decode_into(&mut br, n_codes, &mut codes).unwrap();
        }
    }) / iters as f64;

    // Same stage through the retained oracle (reinit included, so the
    // two timings cover identical work).
    let reference_secs = best_of(reps, || {
        for _ in 0..iters {
            let mut p = 0usize;
            dec.reinit(&payload, &mut p).unwrap();
            let mut br = BitReader::new(&code_bytes);
            codes.clear();
            for _ in 0..n_codes {
                codes.push(dec.decode_one_reference(&mut br).unwrap());
            }
        }
    }) / iters as f64;

    let mb = n_points as f64 * 4.0 / 1e6;
    println!(
        "{:<6} entropy split         : huffman {:.4} s ({:.1} MB/s lut, {:.1} MB/s ref, {:.2}x) \
         lossless {:.4} s  lorenzo {:.4} s",
        tile.name,
        huffman_secs,
        mb / huffman_secs,
        mb / reference_secs,
        reference_secs / huffman_secs,
        lossless_secs,
        (total_secs - lossless_secs - huffman_secs).max(0.0),
    );
    assert!(
        huffman_secs <= reference_secs,
        "{}: LUT huffman decode slower than the reference walk ({huffman_secs:.6}s vs {reference_secs:.6}s)",
        tile.name
    );

    EntropyBreakdown {
        n_points,
        total_secs,
        lossless_secs,
        huffman_secs,
        lorenzo_secs: (total_secs - lossless_secs - huffman_secs).max(0.0),
        reference_secs,
    }
}

fn run_tile(tile: &Tile, reps: usize, workers: &[usize]) -> Outcome {
    let bytes: Vec<u8> = tile.data.iter().flat_map(|v| v.to_le_bytes()).collect();
    let chunk_usize: Vec<usize> = tile.chunk.iter().map(|&c| c as usize).collect();
    let spec = DatasetSpec::new("d", Dtype::F32, &tile.dims)
        .chunked(&tile.chunk)
        .with_filter(FilterSpec {
            id: SZLITE_FILTER_ID,
            params: SzFilterParams {
                // Value-range-relative 1e-3, SZ's standard mode.
                absolute: false,
                bound: 1e-3,
                dims: chunk_usize,
            }
            .to_bytes(),
        });

    let path = tmp(tile.name);
    let f = H5File::create(&path).unwrap();
    let id = f.create_dataset(spec).unwrap();
    f.write_full(id, &bytes).unwrap();
    f.close().unwrap();

    let r = H5Reader::open(&path).unwrap();
    let meta = r.meta("d").unwrap();
    let stored_bytes = meta.stored_bytes();
    let n_chunks = meta.chunks.len();
    let mb = bytes.len() as f64 / 1e6;

    // Warm the page cache before anything is timed.
    let serial = r.read_raw("d").unwrap();
    let serial_secs = best_of(reps, || {
        let _ = r.read_raw("d").unwrap();
    });
    println!(
        "{:<6} serial read_raw       : {serial_secs:.3} s  {:.1} MB/s",
        tile.name,
        mb / serial_secs
    );

    let mut value_identical = true;
    let mut pipeline = Vec::new();
    for &w in workers {
        value_identical &= r.read_full_pipelined("d", w).unwrap() == serial;
        let secs = best_of(reps, || {
            let _ = r.read_full_pipelined("d", w).unwrap();
        });
        println!(
            "{:<6} pipeline workers={w:<2}   : {secs:.3} s  {:.1} MB/s  ({:.2}x)",
            tile.name,
            mb / secs,
            serial_secs / secs
        );
        pipeline.push((w, secs));
    }
    let _ = std::fs::remove_file(&path);
    assert!(
        value_identical,
        "{}: pipelined read diverged from serial",
        tile.name
    );

    Outcome {
        name: tile.name,
        raw_bytes: bytes.len(),
        stored_bytes,
        n_chunks,
        serial_secs,
        pipeline,
        value_identical,
        entropy: entropy_breakdown(tile, reps),
    }
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
    let out_path =
        std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_decompress.json".to_string());

    let s = side as u64;
    let c = chunk as u64;
    let n_particles = side * side * side;
    println!(
        "generating nyx/rtm side={side} (chunk {chunk}³) and vpic n={n_particles}, reps {reps} ..."
    );
    let tiles = [
        Tile {
            name: "nyx",
            data: nyx::snapshot(NyxParams::with_side(side))
                .field("baryon_density")
                .unwrap()
                .data
                .clone(),
            dims: vec![s, s, s],
            chunk: vec![c, c, c],
        },
        Tile {
            name: "vpic",
            data: vpic::snapshot(VpicParams::with_particles(n_particles))
                .field("mom_x")
                .unwrap()
                .data
                .clone(),
            dims: vec![n_particles as u64],
            chunk: vec![(c * c * c).min(n_particles as u64)],
        },
        Tile {
            name: "rtm",
            data: rtm::snapshot(RtmParams::with_side(side)).fields[0]
                .data
                .clone(),
            // Anisotropic tiles: full rows along x, chunked in z/y.
            dims: vec![s, s, s],
            chunk: vec![c, c, s],
        },
    ];

    let outcomes: Vec<Outcome> = tiles.iter().map(|t| run_tile(t, reps, &workers)).collect();

    // ---- Machine-readable output -------------------------------------
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"side\": {side},");
    let _ = writeln!(json, "  \"chunk\": {chunk},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"lut_bits\": {},", szlite::huffman::LUT_BITS);
    let _ = writeln!(
        json,
        "  \"host_parallelism\": {},",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let _ = writeln!(json, "  \"workloads\": [");
    for (i, o) in outcomes.iter().enumerate() {
        let mb = o.raw_bytes as f64 / 1e6;
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{}\",", o.name);
        let _ = writeln!(json, "      \"raw_bytes\": {},", o.raw_bytes);
        let _ = writeln!(json, "      \"stored_bytes\": {},", o.stored_bytes);
        let _ = writeln!(json, "      \"n_chunks\": {},", o.n_chunks);
        let _ = writeln!(json, "      \"value_identical\": {},", o.value_identical);
        let _ = writeln!(json, "      \"serial_secs\": {:.6},", o.serial_secs);
        let _ = writeln!(
            json,
            "      \"serial_mb_per_s\": {:.3},",
            mb / o.serial_secs
        );
        let _ = writeln!(json, "      \"pipeline\": [");
        for (j, &(w, secs)) in o.pipeline.iter().enumerate() {
            let _ = writeln!(
                json,
                "        {{\"workers\": {w}, \"secs\": {secs:.6}, \"mb_per_s\": {:.3}, \"speedup\": {:.3}}}{}",
                mb / secs,
                o.serial_secs / secs,
                if j + 1 < o.pipeline.len() { "," } else { "" }
            );
        }
        let _ = writeln!(json, "      ],");
        let e = &o.entropy;
        let emb = e.n_points as f64 * 4.0 / 1e6;
        let _ = writeln!(json, "      \"entropy\": {{");
        let _ = writeln!(json, "        \"n_points\": {},", e.n_points);
        let _ = writeln!(json, "        \"total_secs\": {:.6},", e.total_secs);
        let _ = writeln!(json, "        \"lossless_secs\": {:.6},", e.lossless_secs);
        let _ = writeln!(json, "        \"huffman_secs\": {:.6},", e.huffman_secs);
        let _ = writeln!(json, "        \"lorenzo_secs\": {:.6},", e.lorenzo_secs);
        let _ = writeln!(
            json,
            "        \"huffman_lut_mb_per_s\": {:.3},",
            emb / e.huffman_secs
        );
        let _ = writeln!(
            json,
            "        \"huffman_reference_mb_per_s\": {:.3},",
            emb / e.reference_secs
        );
        let _ = writeln!(
            json,
            "        \"lut_speedup\": {:.3}",
            e.reference_secs / e.huffman_secs
        );
        let _ = writeln!(json, "      }}");
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < outcomes.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    std::fs::write(&out_path, &json).unwrap();
    println!("\nwrote {out_path}");
}
