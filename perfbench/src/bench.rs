//! The measured loop: a closed loop of checkpoint steps, one after the
//! other, for the run's time budget.
//!
//! Every `OverlapReorder` step is followed by its restart read and a
//! bound check. Baseline steps (`FilterCollective`, `NoCompression`)
//! follow every n-th `OverlapReorder` step on the same data and are
//! read back and checked the same way. In a traced run
//! every second `OverlapReorder` step is traced and replayed layer by
//! layer; the untraced steps in between give the tracing overhead.

use crate::stats::{mean, median, percentile};
use crate::step::{check_decoded, engine_step, read_back, replay, EngineStep, Replay};
use crate::trace::TraceLog;
use crate::workload::{Prepared, StepData, NRANKS};
use predwrite::{Method, ModelSource, PredictionSource, RunResult};
use ratiomodel::OnlineConfig;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use timeline::OnlineSource;

/// Longest the loop keeps starting steps, whatever the minimums: a run
/// must end well inside three minutes.
const HARD_CAP: Duration = Duration::from_secs(120);

/// How one run is driven.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Measuring time budget, seconds.
    pub seconds: f64,
    /// Trace every second `OverlapReorder` step and replay its layers.
    pub trace: bool,
    /// Run-private directory the checkpoints are written into.
    pub dir: PathBuf,
}

/// One `OverlapReorder` step's record.
#[derive(Debug, Clone)]
struct OrStep {
    ckpt_s: f64,
    restart_s: f64,
    result: RunResult,
    /// Over the step's partitions: Σ predicted and Σ reserved bytes,
    /// the under-predicted count and Σ |predicted − actual| / actual.
    predicted: u64,
    reserved: u64,
    under: usize,
    size_err: f64,
    parts: usize,
    wire_bytes: u64,
    queue_depth_max: i64,
    observe_s: f64,
    traced: bool,
    replay: Option<Replay>,
}

/// Raw samples the loop collects.
#[derive(Debug, Default)]
struct Samples {
    /// Successful `OverlapReorder` steps, in order.
    or_steps: Vec<OrStep>,
    /// `FilterCollective` step times, seconds.
    filter_s: Vec<f64>,
    /// `NoCompression` step times, seconds.
    nocomp_s: Vec<f64>,
    /// Barrier wait per `FilterCollective` step, seconds.
    barrier_wait_s: Vec<f64>,
    /// Snapshot generation times, seconds.
    gen_secs: Vec<f64>,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct RunOutcome {
    /// Operations attempted (engine steps).
    pub attempted: u64,
    /// Operations that failed (engine error, read error, bound
    /// violation, replay or repeat mismatch).
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
    /// Measured values by catalogue name.
    pub values: Vec<(&'static str, f64)>,
    /// Hash of the byte counts of every step in the deterministic
    /// window (the first `min_steps` steps and their baselines).
    pub fingerprint: u64,
    /// Human-readable lines (sample counts, self times).
    pub notes: Vec<String>,
    /// Spans of the traced steps.
    pub trace: TraceLog,
}

impl RunOutcome {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }
}

/// FNV-1a over the byte counts that must repeat exactly.
fn fnv(h: u64, x: u64) -> u64 {
    x.to_le_bytes()
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn fingerprint(h: u64, method: Method, r: Option<&RunResult>) -> u64 {
    let h = fnv(h, method as u64);
    match r {
        Some(r) => [r.compressed_bytes, r.file_bytes, r.n_overflow as u64]
            .into_iter()
            .fold(h, fnv),
        None => fnv(h, u64::MAX),
    }
}

/// Run one operation, turning a panic into a failure so one bad step
/// never ends the run.
fn guard<T>(op: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(op)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        Err(format!("panicked: {msg}"))
    })
}

/// Restart read plus check; returns the read's wall time.
fn restart(
    path: &Path,
    data: &StepData,
    configs: Option<&[szlite::Config]>,
    step: u64,
) -> Result<f64, String> {
    let t = Instant::now();
    let decoded = read_back(path, data, step)?;
    let secs = t.elapsed().as_secs_f64();
    check_decoded(&decoded, data, configs)?;
    Ok(secs)
}

/// Run the measured loop on a prepared workload.
pub fn run(prep: &Prepared, cfg: &RunConfig) -> RunOutcome {
    let spec = &prep.spec;
    let nfields = prep.configs.len();
    let mut out = RunOutcome {
        fingerprint: 0xcbf2_9ce4_8422_2325,
        ..RunOutcome::default()
    };
    let static_source = ModelSource {
        models: &prep.models,
    };
    let mut online = spec
        .adaptive()
        .then(|| OnlineSource::new(NRANKS, nfields, prep.models, OnlineConfig::default()));
    let path = cfg.dir.join("ckpt.h5l");
    let wire = obs::counter("real.reservation_wire_bytes");
    let depth = obs::gauge("h5.asyncq.depth");

    let mut samples = Samples {
        gen_secs: prep.gen_secs.clone(),
        ..Samples::default()
    };
    let mut first_seen: BTreeMap<usize, (u64, u64, usize)> = BTreeMap::new();
    let mut current: StepData = if spec.adaptive() {
        prep.snapshots[0].clone()
    } else {
        Vec::new()
    };
    let mut step_id = 0u64;
    let start = Instant::now();

    for k in 0usize.. {
        let elapsed = start.elapsed();
        if (k >= spec.min_steps && elapsed.as_secs_f64() >= cfg.seconds) || elapsed >= HARD_CAP {
            break;
        }
        let in_window = k < spec.min_steps;
        let traced = cfg.trace && k % 2 == 1;
        obs::set_enabled(traced);
        let data: &StepData = if spec.adaptive() {
            if k > 0 {
                let span = obs::span_arg("workloads.snapshot", step_id);
                let (d, secs) = prep.generate(k);
                drop(span);
                current = d;
                samples.gen_secs.push(secs);
            }
            &current
        } else {
            &prep.snapshots[k % prep.snapshots.len()]
        };

        // The paper's method: OverlapReorder, then restart.
        out.attempted += 1;
        let source: &dyn PredictionSource = match &online {
            Some(s) => s,
            None => &static_source,
        };
        depth.reset_high_water();
        let wire0 = wire.get();
        let step = guard(|| {
            let e = engine_step(prep, Method::OverlapReorder, data, source, &path, step_id)?;
            let r = restart(&path, data, Some(&prep.configs), step_id)?;
            let rep = if traced {
                Some(replay(prep, data, &e.obs, step_id)?)
            } else {
                None
            };
            Ok((e, r, rep))
        });
        let queue_depth_max = depth.high_water();
        let wire_bytes = wire.get() - wire0;
        let _ = std::fs::remove_file(&path);
        match step {
            Ok((
                EngineStep {
                    secs,
                    result,
                    obs: observations,
                },
                restart_s,
                replay,
            )) => {
                let mut observe_s = 0.0;
                if let Some(src) = online.as_mut() {
                    let t = Instant::now();
                    let span = obs::span_arg("timeline.observe_run", step_id);
                    src.observe_run(&observations);
                    drop(span);
                    observe_s = t.elapsed().as_secs_f64();
                }
                let parts: Vec<_> = observations.iter().flatten().collect();
                let key = (
                    result.compressed_bytes,
                    result.file_bytes,
                    result.n_overflow,
                );
                if spec.adaptive()
                    || *first_seen
                        .entry(k % spec.distinct_snapshots.max(1))
                        .or_insert(key)
                        == key
                {
                    samples.or_steps.push(OrStep {
                        ckpt_s: secs,
                        restart_s,
                        result,
                        predicted: parts.iter().map(|o| o.predicted).sum(),
                        reserved: parts.iter().map(|o| o.reserved).sum(),
                        under: parts.iter().filter(|o| o.predicted < o.actual).count(),
                        size_err: parts
                            .iter()
                            .map(|o| o.predicted.abs_diff(o.actual) as f64 / o.actual.max(1) as f64)
                            .sum(),
                        parts: parts.len(),
                        wire_bytes,
                        queue_depth_max,
                        observe_s,
                        traced,
                        replay,
                    });
                } else {
                    out.fail(format!(
                        "step {k}: bytes {key:?} differ from an earlier step on the same snapshot"
                    ));
                }
                if in_window {
                    out.fingerprint =
                        fingerprint(out.fingerprint, Method::OverlapReorder, Some(&result));
                }
            }
            Err(e) => {
                out.fail(format!("step {k}: {e}"));
                if in_window {
                    out.fingerprint = fingerprint(out.fingerprint, Method::OverlapReorder, None);
                }
            }
        }
        if traced {
            out.trace.collect(step_id);
        }
        step_id += 1;

        // Baselines at fixed positions, on the same data.
        let mut baselines = Vec::new();
        if k % spec.filter_every == spec.filter_every - 1 {
            baselines.push(Method::FilterCollective);
        }
        if k % spec.nocomp_every == spec.nocomp_every / 2 {
            baselines.push(Method::NoCompression);
        }
        for method in baselines {
            out.attempted += 1;
            obs::set_enabled(cfg.trace);
            let barrier_ns = barrier_wait_ns();
            let configs = (method != Method::NoCompression).then_some(prep.configs.as_slice());
            let res = guard(|| {
                let e = engine_step(prep, method, data, &static_source, &path, step_id)?;
                restart(&path, data, configs, step_id)?;
                Ok(e)
            });
            let _ = std::fs::remove_file(&path);
            match &res {
                Ok(e) if method == Method::FilterCollective => {
                    samples.filter_s.push(e.secs);
                    samples
                        .barrier_wait_s
                        .push((barrier_wait_ns() - barrier_ns) as f64 * 1e-9);
                }
                Ok(e) => samples.nocomp_s.push(e.secs),
                Err(msg) => out.fail(format!("step {k} {}: {msg}", method.label())),
            }
            if in_window {
                out.fingerprint = fingerprint(
                    out.fingerprint,
                    method,
                    res.as_ref().ok().map(|e| &e.result),
                );
            }
            if cfg.trace {
                out.trace.collect(step_id);
            }
            step_id += 1;
        }
    }
    obs::set_enabled(false);
    summarize(prep, cfg, &samples, &mut out);
    out
}

fn barrier_wait_ns() -> u64 {
    obs::snapshot()
        .hists
        .get("comm.barrier_wait_ns")
        .map_or(0, |h| h.sum)
}

fn summarize(prep: &Prepared, cfg: &RunConfig, samples: &Samples, out: &mut RunOutcome) {
    let spec = &prep.spec;
    let steps = &samples.or_steps;
    let v = &mut out.values;
    // Deterministic figures come from the first `min_steps` steps only,
    // so they repeat exactly for a seed whatever the host's speed.
    let window = &steps[..steps.len().min(spec.min_steps)];
    let sum = |f: &dyn Fn(&OrStep) -> u64| window.iter().map(f).sum::<u64>() as f64;
    let raw = sum(&|s| s.result.raw_bytes);
    let file = sum(&|s| s.result.file_bytes);
    let compressed = sum(&|s| s.result.compressed_bytes);
    let overflow = sum(&|s| s.result.overflow_bytes);
    let reserved = sum(&|s| s.reserved);
    let parts = sum(&|s| s.parts as u64);
    let n_win = window.len().max(1) as f64;
    let overflow_parts = sum(&|s| s.result.n_overflow as u64);

    let untraced: Vec<&OrStep> = steps.iter().filter(|s| !s.traced).collect();
    let traced: Vec<&OrStep> = steps.iter().filter(|s| s.traced).collect();
    let ckpt: Vec<f64> = untraced.iter().map(|s| s.ckpt_s).collect();
    let ckpt_raw: f64 = untraced.iter().map(|s| s.result.raw_bytes as f64).sum();
    v.push(("ckpt_s.p50", median(&ckpt)));
    v.push(("ckpt_s.p90", percentile(&ckpt, 0.9)));
    v.push((
        "ckpt_mbps",
        ckpt_raw / ckpt.iter().sum::<f64>().max(1e-12) / 1e6,
    ));
    let restart: Vec<f64> = untraced.iter().map(|s| s.restart_s).collect();
    v.push(("restart_s.p50", median(&restart)));
    v.push(("filter_ckpt_s.p50", median(&samples.filter_s)));
    v.push(("nocomp_ckpt_s.p50", median(&samples.nocomp_s)));
    v.push(("eff_ratio", raw / file.max(1.0)));
    v.push(("storage_overhead", (file - compressed) / raw.max(1.0)));
    v.push((
        "ok_frac",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
    ));
    out.notes.push(format!(
        "ckpt_s deciles (untraced): {}",
        (1..=10)
            .map(|d| format!("{:.4}", percentile(&ckpt, f64::from(d) / 10.0)))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out.notes.push(format!(
        "samples: {} OverlapReorder steps ({} untraced, {} traced), {} FilterCollective, {} NoCompression; \
         deterministic window: first {} steps, {} partitions",
        steps.len(),
        untraced.len(),
        traced.len(),
        samples.filter_s.len(),
        samples.nocomp_s.len(),
        window.len(),
        parts
    ));

    // Per-layer figures. Times are medians over the traced steps.
    let med = |f: &dyn Fn(&OrStep) -> f64| median(&traced.iter().map(|s| f(s)).collect::<Vec<_>>());
    let rep = |f: &dyn Fn(&Replay) -> f64| med(&|s| s.replay.as_ref().map_or(0.0, f));
    v.push(("szlite.compress_s", rep(&|r| r.compress_s)));
    v.push((
        "szlite.compress_mbps",
        rep(&|r| r.raw_bytes as f64 / r.compress_all_s.max(1e-12) / 1e6),
    ));
    v.push(("szlite.decompress_s", rep(&|r| r.decompress_s)));
    v.push((
        "szlite.decompress_mbps",
        rep(&|r| r.raw_bytes as f64 / r.decompress_s.max(1e-12) / 1e6),
    ));
    v.push((
        "szlite.bits_per_value",
        compressed * 8.0 / (raw / 4.0).max(1.0),
    ));
    v.push(("ratiomodel.predict_s", rep(&|r| r.predict_s)));
    v.push((
        "ratiomodel.size_err",
        window.iter().map(|s| s.size_err).sum::<f64>() / parts.max(1.0),
    ));
    v.push((
        "ratiomodel.under_frac",
        sum(&|s| s.under as u64) / parts.max(1.0),
    ));
    v.push(("ratiomodel.comp_time_err", rep(&|r| r.comp_time_err)));
    v.push((
        "predwrite.phase.predict_s",
        med(&|s| s.result.breakdown.predict),
    ));
    v.push((
        "predwrite.phase.allgather_s",
        med(&|s| s.result.breakdown.allgather),
    ));
    v.push((
        "predwrite.phase.compress_s",
        med(&|s| s.result.breakdown.compress),
    ));
    v.push((
        "predwrite.phase.write_s",
        med(&|s| s.result.breakdown.write),
    ));
    v.push((
        "predwrite.phase.overflow_s",
        med(&|s| s.result.breakdown.overflow),
    ));
    v.push(("predwrite.plan_s", rep(&|r| r.plan_s)));
    v.push(("predwrite.reorder_gain_s", rep(&|r| r.reorder_gain_s)));
    v.push(("predwrite.reserved_bytes", reserved / n_win));
    v.push((
        "predwrite.waste_bytes",
        window
            .iter()
            .map(|s| {
                s.reserved
                    .saturating_sub(s.result.compressed_bytes - s.result.overflow_bytes)
            })
            .sum::<u64>() as f64
            / n_win,
    ));
    v.push(("predwrite.overflow_bytes", overflow / n_win));
    v.push(("predwrite.overflow_parts", overflow_parts));
    v.push(("predwrite.fit_frac", 1.0 - overflow_parts / parts.max(1.0)));
    v.push(("commsim.allgather_s", rep(&|r| r.allgather_s)));
    v.push(("commsim.barrier_wait_s", median(&samples.barrier_wait_s)));
    v.push(("commsim.wire_bytes", sum(&|s| s.wire_bytes) / n_win));
    let rate = spec.throttle_rate();
    v.push((
        "pfsim.bw_util",
        med(&|s| s.result.file_bytes as f64 / s.ckpt_s / rate),
    ));
    v.push(("pfsim.bytes_written", compressed / n_win));
    v.push((
        "h5lite.read_self_s",
        med(&|s| s.restart_s - s.replay.as_ref().map_or(0.0, |r| r.decompress_s)),
    ));
    v.push(("h5lite.queue_depth_max", med(&|s| s.queue_depth_max as f64)));
    v.push(("h5lite.meta_bytes", (file - reserved - overflow) / n_win));
    v.push(("timeline.observe_s", med(&|s| s.observe_s)));
    v.push((
        "timeline.headroom",
        mean(
            &window
                .iter()
                .map(|s| s.reserved as f64 / s.predicted.max(1) as f64)
                .collect::<Vec<_>>(),
        ),
    ));
    v.push(("workloads.gen_s", median(&samples.gen_secs)));
    let base = median(&ckpt);
    let traced_ckpt = med(&|s| s.ckpt_s);
    v.push((
        "trace.overhead",
        if cfg.trace && base > 0.0 {
            traced_ckpt / base - 1.0
        } else {
            0.0
        },
    ));
    if cfg.trace {
        let mut steps: Vec<u64> = out.trace.spans.iter().map(|s| s.step).collect();
        steps.dedup();
        let n = steps.len().max(1) as f64;
        let mut selfs: Vec<(&str, f64)> = out.trace.self_times().into_iter().collect();
        selfs.sort_by(|a, b| b.1.total_cmp(&a.1));
        out.notes.push(format!(
            "span self time per traced engine step: {}",
            selfs
                .iter()
                .map(|(name, s)| format!("{name} {:.3} ms", s / n * 1e3))
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
}
