//! End-to-end and per-layer benchmark of the predictive-write
//! checkpoint engine. `src/main.rs` is the command; `README.md` states
//! the workloads, the metrics and which layer metric should move which
//! end-to-end metric.

pub mod bench;
pub mod probe;
pub mod report;
pub mod stats;
pub mod step;
pub mod trace;
pub mod workload;

use bench::RunConfig;
use report::{Kind, CATALOGUE};
use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::{setup, Spec, ES_WORKERS, NRANKS, SZ_THREADS};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Each of these silently changes thread counts or turns tracing on,
/// so a timed run refuses to start under any of them.
pub const FORBIDDEN_ENV: [&str; 3] = ["SZ_THREADS", "ES_WORKERS", "OBS_TRACE"];

/// Refuse to run when any [`FORBIDDEN_ENV`] variable is set, as seen
/// through `lookup` (`std::env::var_os` in the command).
pub fn check_env(lookup: impl Fn(&str) -> Option<OsString>) -> Result<(), String> {
    match FORBIDDEN_ENV.iter().find(|v| lookup(v).is_some()) {
        Some(v) => Err(format!(
            "refusing a timed run with {v} set: it changes thread counts or tracing"
        )),
        None => Ok(()),
    }
}

/// Run-private directory, removed on drop (also when the run fails).
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set size (VmHWM), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("VmHWM: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".into())
}

/// Identity of this build of the benchmark: its executable's size and
/// modification time. Fingerprints are only compared between runs of
/// one build, so a rebuilt program starts afresh.
fn build_id() -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let meta = std::fs::metadata(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    let mtime = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    Ok(format!("{:x}-{mtime:x}", meta.len()))
}

/// Compare this run's byte-count fingerprint with the one an earlier
/// run of the same build, workload and seed left behind (traced or
/// not); the first run records it.
fn check_fingerprint(path: &Path, fp: u64) -> Result<(), String> {
    let now = format!("{fp:016x}");
    match std::fs::read_to_string(path) {
        Ok(prev) if prev.trim() == now => Ok(()),
        Ok(prev) => Err(format!(
            "byte counts differ from an earlier run with this seed (fingerprint {now}, earlier {})",
            prev.trim()
        )),
        Err(_) => std::fs::write(path, &now).map_err(|e| format!("{}: {e}", path.display())),
    }
}

/// Run one benchmark pass of `spec`: host probe, set-up, the measured
/// loop, correctness checks. Prints the human-readable report and
/// returns the result line. Checkpoints go to a run-private directory
/// under `state`, which also keeps the fingerprints and, for traced
/// runs, the Chrome trace.
pub fn run_benchmark(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    state: &Path,
) -> Result<String, String> {
    obs::set_enabled(false);
    let name = spec.workload.name();
    let tmp = TempDir(state.join(format!("run-{name}-{}", std::process::id())));
    std::fs::create_dir_all(&tmp.0).map_err(|e| format!("{}: {e}", tmp.0.display()))?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "env: nproc {nproc}, ranks {NRANKS}, sz_threads {SZ_THREADS} per rank, \
         async writers {ES_WORKERS} per rank; workload {name}, seed {seed}, seconds {seconds}, \
         trace {}",
        u8::from(trace)
    );

    let spin = probe::spin_speedup();
    let before = probe::serial_compress_mbps();
    let mut setup_secs = Vec::with_capacity(SETUP_REPS);
    let mut prep = None;
    for _ in 0..SETUP_REPS {
        // Free the previous set-up first so only one is ever resident.
        drop(prep.take());
        let t = Instant::now();
        prep = Some(setup(spec, seed)?);
        setup_secs.push(t.elapsed().as_secs_f64());
    }
    let prep = prep.ok_or("no set-up ran")?;
    let cfg = RunConfig {
        seconds,
        trace,
        dir: tmp.0.clone(),
    };
    let mut out = bench::run(&prep, &cfg);
    let after = probe::serial_compress_mbps();
    println!(
        "host probe: 2-thread spin speedup {spin:.3}, serial compress {before:.1} MB/s before, \
         {after:.1} MB/s after"
    );
    out.values.push(("setup_s", stats::median(&setup_secs)));
    out.values.push(("peak_rss_mb", peak_rss_mb()?));
    out.values.push(("host.spin_speedup", spin));
    out.values.push(("host.compress_mbps_before", before));
    out.values.push(("host.compress_mbps_after", after));

    let mut problems = Vec::new();
    let fp_path = state.join(format!("fingerprint-{}-{name}-{seed}.txt", build_id()?));
    if let Err(e) = check_fingerprint(&fp_path, out.fingerprint) {
        problems.push(e);
    }
    if trace {
        let path = state.join(format!("trace-{name}-{seed}.json"));
        let io = |e: std::io::Error| format!("{}: {e}", path.display());
        out.trace.write_chrome(&path).map_err(io)?;
        let text = std::fs::read_to_string(&path).map_err(io)?;
        match trace::validate_chrome(&text) {
            Ok(events) => println!("trace: {} spans in {}", events.len(), path.display()),
            Err(e) => problems.push(format!("trace: {e}")),
        }
    }

    for note in &out.notes {
        println!("{note}");
    }
    for def in CATALOGUE {
        if let Some((_, v)) = out.values.iter().find(|(n, _)| *n == def.name) {
            let kind = match def.kind {
                Kind::EndToEnd => "end-to-end",
                Kind::PerLayer => "per-layer",
            };
            println!("{kind:>10} {:<30} {v:>16.6} {}", def.name, def.unit);
        }
    }
    for f in &out.failures {
        eprintln!("failed: {f}");
    }
    for p in &problems {
        eprintln!("incorrect: {p}");
    }
    let kind = if trace {
        Kind::PerLayer
    } else {
        Kind::EndToEnd
    };
    let correct = out.failed == 0 && problems.is_empty();
    report::result_line(kind, correct, out.attempted, out.failed, &out.values)
}
