//! Schema validation of the committed `BENCH_*.json` artifacts.
//!
//! The bench binaries hand-write their JSON (no serde in the tree), so
//! nothing guarantees the committed artifacts stay parseable or keep
//! the keys the CI jobs and downstream tooling grep for. This test
//! walks the repository root, parses every `BENCH_*.json` with the
//! workspace's strict JSON parser ([`obs::json`], which also backs the
//! flight recorder and `scrub --json`), and checks:
//!
//! - the file is valid JSON and a non-empty object,
//! - every number is finite (hand-formatted floats can silently turn
//!   into `inf`/`NaN` text that some parsers accept),
//! - `host_parallelism` is present at the top level and ≥ 1 — the
//!   record of whether the numbers came from a multi-core or a 1-core
//!   host,
//! - per-file required keys exist with the right shapes (sweeps,
//!   workloads, per-config metrics, observability overheads).

use obs::{json, Json};
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .canonicalize()
        .expect("repo root resolves")
}

fn bench_files() -> Vec<(String, Json)> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(repo_root()).expect("read repo root") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            let text = std::fs::read_to_string(entry.path()).expect("read artifact");
            let json = json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            found.push((name, json));
        }
    }
    found.sort_by(|a, b| a.0.cmp(&b.0));
    found
}

#[test]
fn every_committed_bench_artifact_is_valid() {
    let files = bench_files();
    assert!(
        files.len() >= 5,
        "expected the committed bench artifacts, found {:?}",
        files.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>()
    );
    for (name, json) in &files {
        match json {
            Json::Obj(m) => assert!(!m.is_empty(), "{name}: empty top-level object"),
            _ => panic!("{name}: top level is not an object"),
        }
        // Multi-core vs 1-core provenance of the numbers.
        let par = json
            .num("host_parallelism")
            .unwrap_or_else(|| panic!("{name}: missing host_parallelism"));
        assert!(
            par >= 1.0 && par.fract() == 0.0,
            "{name}: bad host_parallelism {par}"
        );
        let mut nums = Vec::new();
        json.numbers(&mut nums);
        assert!(!nums.is_empty(), "{name}: no numeric fields");
        for n in nums {
            assert!(n.is_finite(), "{name}: non-finite number {n}");
        }
    }
}

#[test]
fn scale_artifact_has_the_sweep_schema() {
    let files = bench_files();
    let (name, json) = files
        .iter()
        .find(|(n, _)| n == "BENCH_scale.json")
        .expect("BENCH_scale.json is committed");
    assert!(matches!(json.get("multi_core_host"), Some(Json::Bool(_))));
    assert!(json.num("steps").unwrap_or(0.0) >= 1.0);
    assert!(json.num("fields").unwrap_or(0.0) >= 1.0);
    let sweeps = json.arr("sweeps").expect("sweeps array");
    assert!(!sweeps.is_empty(), "{name}: empty sweeps");
    let mut prev_ranks = 0.0;
    for sweep in sweeps {
        let ranks = sweep.num("ranks").expect("sweep.ranks");
        assert!(ranks > prev_ranks, "{name}: ranks not ascending");
        prev_ranks = ranks;
        let gs = sweep.num("group_size").expect("sweep.group_size");
        assert!(
            gs >= 1.0 && gs <= ranks,
            "{name}: group_size {gs} vs {ranks}"
        );
        let configs = sweep.arr("configs").expect("sweep.configs");
        assert!(configs.len() >= 3, "{name}: expected ≥ 3 configs per sweep");
        for c in configs {
            for key in ["mode", "topology"] {
                let v = c
                    .str_of(key)
                    .unwrap_or_else(|| panic!("{name}: missing {key}"));
                assert!(!v.is_empty());
            }
            for key in [
                "planner_secs",
                "collective_bytes_per_rank",
                "file_bytes",
                "compressed_bytes",
                "waste_bytes",
                "overflow_bytes",
                "overflow_partitions",
                "mean_step_secs",
                "final_rel_err",
            ] {
                let v = c
                    .num(key)
                    .unwrap_or_else(|| panic!("{name}: missing config key {key}"));
                assert!(v >= 0.0, "{name}: negative {key} = {v}");
            }
        }
        // The flat and sharded static configs must agree byte for byte
        // (the committed artifact re-states the layout-invariance pin).
        let flat = configs
            .iter()
            .find(|c| c.str_of("topology") == Some("flat") && c.str_of("mode") == Some("static"));
        let shard = configs.iter().find(|c| {
            c.str_of("topology") == Some("sharded") && c.str_of("mode") == Some("static")
        });
        if let (Some(fl), Some(sh)) = (flat, shard) {
            for key in [
                "file_bytes",
                "compressed_bytes",
                "waste_bytes",
                "overflow_bytes",
            ] {
                assert_eq!(
                    fl.num(key),
                    sh.num(key),
                    "{name}: static flat vs sharded disagree on {key}"
                );
            }
        }
    }
}

#[test]
fn workload_artifacts_keep_their_required_keys() {
    let files = bench_files();
    let by_name = |n: &str| files.iter().find(|(name, _)| name == n).map(|(_, j)| j);
    if let Some(j) = by_name("BENCH_timeline.json") {
        let workloads = j.arr("workloads").expect("timeline workloads");
        assert!(!workloads.is_empty());
        for w in workloads {
            assert!(w.str_of("workload").is_some());
            assert!(
                w.arr("modes").map_or(0, <[Json]>::len) >= 2,
                "two modes per workload"
            );
        }
    }
    if let Some(j) = by_name("BENCH_faults.json") {
        for w in j.arr("workloads").expect("fault workloads") {
            assert_eq!(w.get("recovered"), Some(&Json::Bool(true)));
        }
    }
    if let Some(j) = by_name("BENCH_compress.json") {
        assert!(j.num("raw_bytes").unwrap_or(0.0) > 0.0);
        assert!(j.num("stored_bytes").unwrap_or(0.0) > 0.0);
    }
}

#[test]
fn decompress_artifact_has_the_entropy_schema() {
    let files = bench_files();
    let (name, json) = files
        .iter()
        .find(|(n, _)| n == "BENCH_decompress.json")
        .expect("BENCH_decompress.json is committed");
    // Width of the decoder's primary table, recorded so the artifact is
    // interpretable without the source at that commit.
    let lut_bits = json
        .num("lut_bits")
        .unwrap_or_else(|| panic!("{name}: missing lut_bits"));
    assert!(
        (1.0..=24.0).contains(&lut_bits) && lut_bits.fract() == 0.0,
        "{name}: implausible lut_bits {lut_bits}"
    );
    let workloads = json.arr("workloads").expect("decompress workloads");
    assert!(!workloads.is_empty(), "{name}: empty workloads");
    for w in workloads {
        let wname = w.str_of("name").expect("workload name");
        assert_eq!(
            w.get("value_identical"),
            Some(&Json::Bool(true)),
            "{name}/{wname}: decode paths diverged"
        );
        assert!(w.num("serial_mb_per_s").unwrap_or(0.0) > 0.0);
        let e = w
            .get("entropy")
            .unwrap_or_else(|| panic!("{name}/{wname}: missing entropy breakdown"));
        for key in [
            "n_points",
            "total_secs",
            "lossless_secs",
            "huffman_secs",
            "lorenzo_secs",
            "huffman_lut_mb_per_s",
            "huffman_reference_mb_per_s",
            "lut_speedup",
        ] {
            let v = e
                .num(key)
                .unwrap_or_else(|| panic!("{name}/{wname}: missing entropy key {key}"));
            assert!(v >= 0.0, "{name}/{wname}: negative {key} = {v}");
        }
        // The committed artifact must never record the table-driven
        // decoder losing to the bit-at-a-time reference walk.
        let speedup = e.num("lut_speedup").unwrap();
        assert!(
            speedup >= 1.0,
            "{name}/{wname}: LUT slower than reference ({speedup})"
        );
        // The stage split must roughly cover the measured total (the
        // Lorenzo share is derived as the remainder, so the sum can
        // only undershoot through rounding).
        let sum = e.num("lossless_secs").unwrap()
            + e.num("huffman_secs").unwrap()
            + e.num("lorenzo_secs").unwrap();
        let total = e.num("total_secs").unwrap();
        assert!(
            sum <= total * 1.05 + 1e-6,
            "{name}/{wname}: stage sum {sum} exceeds total {total}"
        );
    }
}

// (Malformed-JSON rejection is covered by the parser's own unit tests
// in `obs::json` now that the parser lives there.)

#[test]
fn obs_artifact_has_the_overhead_and_trace_schema() {
    let files = bench_files();
    let (name, json) = files
        .iter()
        .find(|(n, _)| n == "BENCH_obs.json")
        .expect("BENCH_obs.json is committed");
    for key in [
        "steps",
        "ranks",
        "disabled_span_ns",
        "serial_compress_secs",
        "overhead_fraction",
        "trace_events",
        "trace_threads",
        "trace_max_depth",
        "flight_records",
        "total_reserved_bytes",
        "total_waste_bytes",
        "total_overflow_bytes",
    ] {
        let v = json
            .num(key)
            .unwrap_or_else(|| panic!("{name}: missing {key}"));
        assert!(v >= 0.0 && v.is_finite(), "{name}: bad {key} = {v}");
    }
    // The committed artifact must never record the disabled fast path
    // costing a visible fraction of a serial compress.
    let ov = json.num("overhead_fraction").unwrap();
    assert!(ov < 0.02, "{name}: disabled-span overhead {ov} ≥ 2%");
    // A recorded trace with no nesting means the span plumbing broke.
    assert!(json.num("trace_events").unwrap() >= 1.0);
    assert!(json.num("trace_max_depth").unwrap() >= 1.0);
}

#[test]
fn generated_flight_records_byte_match_the_timeline_report() {
    use timeline::{run_timeline, AdaptMode, TimelineConfig};

    let stream = workloads::SnapshotStream::nyx(12);
    let nranks = 2;
    let data: Vec<_> = (0..3)
        .map(|s| bench::partition_stream_step(&stream, s, nranks))
        .collect();
    for mode in [
        AdaptMode::Static,
        AdaptMode::Adaptive(ratiomodel::OnlineConfig::default()),
    ] {
        let dir = std::env::temp_dir().join(format!(
            "bench-schema-flight-{}-{}",
            std::process::id(),
            mode.label()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = TimelineConfig::quick(3, data[0][0].len(), mode, dir.clone());
        cfg.keep_files = true;
        let report = run_timeline(&cfg, |s| &data[s]).expect("timeline run");
        assert_eq!(report.steps.len(), 3);
        for (i, row) in report.steps.iter().enumerate() {
            let fpath = obs::flight_path(&cfg.step_path(i));
            let scan = obs::read_flight(&fpath).unwrap_or_else(|e| panic!("read {fpath:?}: {e}"));
            assert!(scan.errors.is_empty(), "flight errors: {:?}", scan.errors);
            // The flight line read back is the report row, every field
            // and every f64 bit included.
            assert_eq!(scan.records.last(), Some(row), "{} step {i}", mode.label());
            assert_eq!(row.step, i);
            assert!(row.host_parallelism >= 1);
            // Every step exchanges reservation sizes over the wire.
            assert!(row.collective_wire_bytes > 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
