//! The benchmark's own contract: `BENCHMARK.json` and the metric
//! catalogue agree, every metric is printed with its unit, names use
//! only `[A-Za-z0-9_.-]`, every span of a traced run carries a step id
//! and nests inside its parent, and a timed run refuses the
//! environment variables that change thread counts or tracing.

use obs::Json;
use perfbench::report::{def, valid_name, Kind, CATALOGUE};
use perfbench::trace::validate_chrome;
use perfbench::workload::{Spec, Workload};
use perfbench::{check_env, run_benchmark};
use std::ffi::OsString;
use std::path::PathBuf;
use workloads::SnapshotStream;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    obs::json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

/// `(name, unit, kind)` of every metric `BENCHMARK.json` declares.
fn declared() -> Vec<(String, String, Kind)> {
    let j = benchmark_json();
    let mut out = Vec::new();
    for (key, kind) in [
        ("end_to_end", Kind::EndToEnd),
        ("per_layer", Kind::PerLayer),
    ] {
        for m in j.arr(key).unwrap_or_else(|| panic!("{key} is a list")) {
            out.push((
                m.str_of("name").expect("metric name").to_string(),
                m.str_of("unit").expect("metric unit").to_string(),
                kind,
            ));
        }
    }
    out
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let declared = declared();
    for (name, unit, kind) in &declared {
        assert!(valid_name(name), "{name:?} is not a valid metric name");
        let d = def(name).unwrap_or_else(|| panic!("{name} is not in the catalogue"));
        assert_eq!(&d.unit, unit, "{name}: unit");
        assert_eq!(d.kind, *kind, "{name}: kind");
    }
    for d in CATALOGUE {
        assert!(
            declared.iter().any(|(n, _, _)| n == d.name),
            "{} is measured but not declared",
            d.name
        );
    }
    let j = benchmark_json();
    let names: Vec<&str> = j
        .arr("workloads")
        .expect("workloads is a list")
        .iter()
        .map(|w| w.str_of("name").expect("workload name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
    assert!(names.iter().all(|n| valid_name(n)));
}

#[test]
fn names_are_checked() {
    for good in ["ckpt_s.p50", "nyx-io", "a", "9x"] {
        assert!(valid_name(good), "{good}");
    }
    for bad in ["", ".x", "-x", "a b", "a/b", "ü", &"x".repeat(65)] {
        assert!(!valid_name(bad), "{bad:?}");
    }
}

#[test]
fn timed_runs_refuse_thread_and_trace_knobs() {
    assert!(check_env(|_| None).is_ok());
    for var in ["SZ_THREADS", "ES_WORKERS", "OBS_TRACE"] {
        let err = check_env(|v| (v == var).then(|| OsString::from("2"))).unwrap_err();
        assert!(err.contains(var), "{err}");
    }
}

#[test]
fn trace_validation_rejects_missing_steps_and_orphans() {
    let ok = r#"[
      {"name": "a", "ph": "X", "ts": 0.0, "dur": 10.0, "tid": 1, "args": {"step": 3, "depth": 0}},
      {"name": "b", "ph": "X", "ts": 2.0, "dur": 5.0, "tid": 1, "args": {"step": 3, "depth": 1}}
    ]"#;
    assert_eq!(validate_chrome(ok).unwrap().len(), 2);
    let no_step = ok.replace("\"step\": 3, \"depth\": 1", "\"depth\": 1");
    assert!(validate_chrome(&no_step).unwrap_err().contains("step"));
    let outside = ok.replace("\"ts\": 2.0, \"dur\": 5.0", "\"ts\": 8.0, \"dur\": 5.0");
    assert!(validate_chrome(&outside).unwrap_err().contains("outside"));
    let other_step = ok.replace("\"step\": 3, \"depth\": 1", "\"step\": 4, \"depth\": 1");
    assert!(validate_chrome(&other_step).is_err());
}

/// A miniature nyx-io: same code path, 16³ grid, a handful of steps.
fn tiny_spec() -> Spec {
    Spec {
        workload: Workload::NyxIo,
        stream: SnapshotStream::nyx(16),
        bits: vec![0.8, 0.5, 2.0, 3.2, 3.2, 3.2],
        throttle_scale: 0.25,
        distinct_snapshots: 3,
        min_steps: 6,
        filter_every: 3,
        nocomp_every: 6,
    }
}

fn state_dir() -> PathBuf {
    let dir = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/.perfbench/contract-test"
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("state dir");
    dir
}

/// Both passes run in one test: tracing state is process-wide.
#[test]
fn untraced_and_traced_passes_print_every_metric_and_a_valid_trace() {
    let state = state_dir();
    let spec = tiny_spec();
    let declared = declared();
    for (trace, kind) in [(false, Kind::EndToEnd), (true, Kind::PerLayer)] {
        let line = run_benchmark(&spec, 7, 0.01, trace, &state).expect("benchmark pass runs");
        let r = obs::json::parse(&line).expect("result line is JSON");
        // The traced pass also checks its byte counts against the
        // untraced pass's fingerprint.
        assert_eq!(r.bool_of("correct"), Some(true), "{line}");
        assert_eq!(r.num("failed"), Some(0.0));
        assert!(r.num("attempted").unwrap_or(0.0) >= 9.0);
        let metrics = r.get("metrics").expect("metrics object");
        let Json::Obj(entries) = metrics else {
            panic!("metrics is not an object");
        };
        let wanted: Vec<_> = declared.iter().filter(|(_, _, k)| *k == kind).collect();
        assert_eq!(entries.len(), wanted.len(), "{line}");
        for (name, unit, _) in wanted {
            let m = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(m.str_of("unit"), Some(unit.as_str()), "{name}");
            assert!(m.num("value").is_some_and(f64::is_finite), "{name}");
        }
    }

    let text = std::fs::read_to_string(state.join("trace-nyx-io-7.json")).expect("trace file");
    let events = validate_chrome(&text).expect("trace is valid");
    for layer in [
        "predwrite.run_real_with",
        "h5lite.read_f32",
        "szlite.compress_into",
        "szlite.decompress_into",
        "ratiomodel.estimate_partition",
        "predwrite.build_reserved",
        "commsim.try_all_gather",
        "real.rank",
    ] {
        assert!(
            events.iter().any(|e| e.name == layer),
            "no {layer} span in the trace"
        );
    }
    assert!(events.iter().any(|e| e.depth > 0), "no nested spans");
    let _ = std::fs::remove_dir_all(&state);
}
