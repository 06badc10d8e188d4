//! `bench_obs` — observability overhead and flight/trace validation.
//!
//! Three measurements in one run:
//!
//! 1. **Disabled-span overhead.** With recording off, a span guard is
//!    one relaxed atomic load and a branch; this bench times that fast
//!    path directly against a serial szlite compress of one Nyx field
//!    and asserts the per-compress span cost stays under 2% — the
//!    "compiled in but disabled" contract of `obs::trace`.
//! 2. **Chrome-trace export.** Recording on, a keep-files timeline
//!    stream runs with `OBS_TRACE` set (a temp path is substituted
//!    when the variable is unset); the exported trace is re-parsed
//!    with the strict `obs::json` parser and checked structurally:
//!    every event is a complete (`"ph": "X"`) event with ts/dur/tid,
//!    and every nested span (depth > 0) is contained in an enclosing
//!    span on the same thread.
//! 3. **Flight recorder.** The per-step `step-NNNN.obs.jsonl` records
//!    are read back and each is asserted equal, field for field, to
//!    the engine's own `TimelineReport` row for that step.
//!
//! Writes machine-readable results to `BENCH_obs.json` (override with
//! `BENCH_OUT`).
//!
//! ```text
//! cargo run -p bench --release --bin bench_obs
//! OBS_TRACE=/tmp/trace.json BENCH_STEPS=4 cargo run -p bench --release --bin bench_obs
//! ```
//!
//! Knobs: `BENCH_STEPS` (default 24), `BENCH_SIDE` (Nyx cube side,
//! default 32), `BENCH_RANKS` (default 4), `BENCH_OUT`, `OBS_TRACE`.

use bench::partition_stream_step;
use bench::setup::env_usize;
use predwrite::RankFieldData;
use ratiomodel::OnlineConfig;
use std::fmt::Write as _;
use std::time::Instant;
use timeline::{run_timeline, AdaptMode, TimelineConfig};
use workloads::SnapshotStream;

/// Per-call cost of a disabled span guard, in nanoseconds, and the
/// wall-clock of one serial compress of `field`, in seconds.
fn measure_disabled_overhead(field: &RankFieldData) -> (f64, f64) {
    obs::set_enabled(false);
    let mut scratch = szlite::Scratch::new();
    let cfgc = szlite::Config::rel(1e-3);
    let mut out = Vec::new();

    // Warm up, then time the serial compress floor (median of 5).
    szlite::compress_into(&field.data, &field.dims, &cfgc, &mut scratch, &mut out).unwrap();
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            szlite::compress_into(&field.data, &field.dims, &cfgc, &mut scratch, &mut out).unwrap();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    let compress_secs = times[times.len() / 2];

    // Time the disabled guard. The loop body must not be optimizable
    // away: the guard's Drop runs the armed check per iteration.
    let n = 2_000_000u64;
    let t0 = Instant::now();
    for i in 0..n {
        let s = obs::span_arg("bench.disabled", i);
        std::hint::black_box(&s);
    }
    let span_ns = t0.elapsed().as_secs_f64() * 1e9 / n as f64;
    (span_ns, compress_secs)
}

/// Structural check of an exported Chrome trace: parseable strict
/// JSON, complete events only, and depth-nesting containment per
/// thread. Returns (events, distinct threads, max depth).
fn validate_trace(path: &str) -> (usize, usize, u64) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let v = obs::json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    let obs::Json::Arr(items) = &v else {
        panic!("{path}: trace is not a JSON array");
    };
    assert!(!items.is_empty(), "{path}: empty trace");
    let mut spans: Vec<(u64, u64, f64, f64)> = Vec::new(); // (tid, depth, ts, end)
    for it in items {
        assert_eq!(it.str_of("ph"), Some("X"), "non-complete event");
        assert_eq!(it.str_of("cat"), Some("obs"));
        let ts = it.num("ts").expect("ts");
        let dur = it.num("dur").expect("dur");
        let tid = it.num("tid").expect("tid") as u64;
        let depth = it
            .get("args")
            .and_then(|a| a.num("depth"))
            .expect("args.depth") as u64;
        assert!(ts >= 0.0 && dur >= 0.0);
        spans.push((tid, depth, ts, ts + dur));
    }
    // Every nested span sits inside some shallower span of its thread
    // (µs rounding in the export grants a small tolerance).
    let eps = 0.002;
    for &(tid, depth, ts, end) in &spans {
        if depth == 0 {
            continue;
        }
        let contained = spans.iter().any(|&(t2, d2, ts2, end2)| {
            t2 == tid && d2 < depth && ts2 <= ts + eps && end2 + eps >= end
        });
        assert!(
            contained,
            "span at tid {tid} depth {depth} [{ts}, {end}] has no enclosing span"
        );
    }
    let mut tids: Vec<u64> = spans.iter().map(|s| s.0).collect();
    tids.sort_unstable();
    tids.dedup();
    let max_depth = spans.iter().map(|s| s.1).max().unwrap_or(0);
    (spans.len(), tids.len(), max_depth)
}

fn main() {
    let steps = env_usize("BENCH_STEPS", 24);
    let side = env_usize("BENCH_SIDE", 32);
    let nranks = env_usize("BENCH_RANKS", 4);
    let out_path = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_obs.json".to_string());

    let stream = SnapshotStream::nyx(side);
    let data: Vec<Vec<Vec<RankFieldData>>> = (0..steps)
        .map(|s| partition_stream_step(&stream, s, nranks))
        .collect();

    // 1. Disabled fast path, measured before any recording happens.
    let (span_ns, compress_secs) = measure_disabled_overhead(&data[0][0][0]);
    // One span guard per compress call is what the instrumented hot
    // loop actually pays; scale to the serial compress floor.
    let overhead_fraction = span_ns * 1e-9 / compress_secs;
    println!(
        "disabled span: {span_ns:.1} ns/guard, serial compress {:.3} ms \
         → overhead {:.6}%",
        compress_secs * 1e3,
        overhead_fraction * 100.0
    );
    assert!(
        overhead_fraction < 0.02,
        "disabled-span overhead {overhead_fraction} ≥ 2% of a serial compress"
    );

    // 2. Traced timeline stream. OBS_TRACE may come from the caller
    // (the CI smoke job validates a fixed path); default to a temp
    // file so the trace pillar is always exercised.
    let trace_path = match std::env::var("OBS_TRACE").ok().filter(|v| !v.is_empty()) {
        Some(p) => p,
        None => {
            let p = std::env::temp_dir()
                .join(format!("bench-obs-trace-{}.json", std::process::id()))
                .display()
                .to_string();
            std::env::set_var("OBS_TRACE", &p);
            p
        }
    };
    obs::set_enabled(true);
    let dir = std::env::temp_dir().join(format!("bench-obs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let nfields = data[0][0].len();
    let mut cfg = TimelineConfig::quick(
        steps,
        nfields,
        AdaptMode::Adaptive(OnlineConfig::default()),
        dir.clone(),
    );
    cfg.keep_files = true; // flight records live beside the containers
    let report = run_timeline(&cfg, |s| &data[s]).expect("timeline run failed");
    obs::set_enabled(false);

    let (trace_events, trace_threads, trace_max_depth) = validate_trace(&trace_path);
    println!(
        "trace {trace_path}: {trace_events} events on {trace_threads} thread(s), \
         max depth {trace_max_depth}"
    );
    assert!(trace_max_depth >= 1, "no nested spans recorded");

    // 3. Every flight record read back equals its report row.
    for (i, row) in report.steps.iter().enumerate() {
        let fpath = obs::flight_path(&cfg.step_path(i));
        let scan = obs::read_flight(&fpath).unwrap_or_else(|e| panic!("read {fpath:?}: {e}"));
        assert!(scan.errors.is_empty(), "flight errors: {:?}", scan.errors);
        assert_eq!(scan.records.last(), Some(row), "step {i}");
    }
    let flight_records = report.steps.len();
    println!("flight: {flight_records} record(s) equal the timeline report rows");
    let _ = std::fs::remove_dir_all(&dir);

    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(
        j,
        "  \"host_parallelism\": {},",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let _ = writeln!(j, "  \"steps\": {steps},");
    let _ = writeln!(j, "  \"ranks\": {nranks},");
    let _ = writeln!(j, "  \"disabled_span_ns\": {span_ns:.3},");
    let _ = writeln!(j, "  \"serial_compress_secs\": {compress_secs:.9},");
    let _ = writeln!(j, "  \"overhead_fraction\": {overhead_fraction:.9},");
    let _ = writeln!(j, "  \"trace_events\": {trace_events},");
    let _ = writeln!(j, "  \"trace_threads\": {trace_threads},");
    let _ = writeln!(j, "  \"trace_max_depth\": {trace_max_depth},");
    let _ = writeln!(j, "  \"flight_records\": {flight_records},");
    let totals = obs::StepTotals::of(&report.steps);
    let _ = writeln!(j, "  \"total_reserved_bytes\": {},", totals.reserved_bytes);
    let _ = writeln!(j, "  \"total_waste_bytes\": {},", totals.waste_bytes);
    let _ = writeln!(j, "  \"total_overflow_bytes\": {}", totals.overflow_bytes);
    let _ = writeln!(j, "}}");
    std::fs::write(&out_path, &j).unwrap();
    println!("wrote {out_path}");
}
