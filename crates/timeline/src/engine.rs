//! The checkpoint-stream engine: drive the real predictive-write
//! engine across a sequence of timesteps.
//!
//! Each step writes one container file through
//! [`predwrite::run_real_with`]. In [`AdaptMode::Static`] every step
//! predicts with the offline models and the engine-wide extra-space
//! policy — the paper's single-shot configuration replayed per step.
//! In [`AdaptMode::Adaptive`] an [`OnlineSource`] blends the offline
//! model with the ratios observed in prior steps and adapts each
//! partition's headroom from its prediction-error band; the step's
//! observed chunk sizes are fed back afterwards, so prediction
//! sharpens (and reservations tighten) as history accumulates.

use crate::adaptive::OnlineSource;
use crate::metrics::{step_row, TimelineReport};
use pfsim::{BandwidthModel, FaultFs};
use predwrite::{
    mean_rel_err, run_real_with, ExtraSpacePolicy, Method, ModelSource, RankFieldData, RealConfig,
    RealError, ReservationTopology,
};
use ratiomodel::Models;
use std::path::PathBuf;
use std::sync::Arc;
use szlite::Config;

/// Per-step fault-injection hook: maps a step index to the
/// [`FaultFs`] its container I/O runs under (`None` = healthy step).
/// Production runs leave [`TimelineConfig::step_faults`] unset; tests
/// and the fault bench use this to crash or degrade exactly one step
/// of a stream.
#[derive(Clone)]
pub struct StepFaults(pub Arc<dyn Fn(usize) -> Option<Arc<FaultFs>> + Send + Sync>);

impl StepFaults {
    /// Hook from a closure.
    pub fn new<F>(f: F) -> Self
    where
        F: Fn(usize) -> Option<Arc<FaultFs>> + Send + Sync + 'static,
    {
        StepFaults(Arc::new(f))
    }

    /// Inject `faults` into step `step` only.
    pub fn only_step(step: usize, faults: Arc<FaultFs>) -> Self {
        StepFaults::new(move |s| (s == step).then(|| Arc::clone(&faults)))
    }
}

impl std::fmt::Debug for StepFaults {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("StepFaults(..)")
    }
}

// Historically defined here; now shared with the discrete-event scale
// simulator (`predwrite::sim::simulate_stream`), which accepts the
// same mode without this crate's real-I/O machinery.
pub use predwrite::AdaptMode;

/// Configuration of a timeline run.
#[derive(Debug, Clone)]
pub struct TimelineConfig {
    /// Number of timesteps to stream.
    pub steps: usize,
    /// Write method per step ([`Method::Overlap`] or
    /// [`Method::OverlapReorder`] exercise the predictive path).
    pub method: Method,
    /// Per-field compression configuration.
    pub configs: Vec<Config>,
    /// Offline-fitted models (the prediction baseline in both modes).
    pub models: Models,
    /// Static extra-space policy (and the adaptive mode's warm-up
    /// fallback).
    pub policy: ExtraSpacePolicy,
    /// Bandwidth model for the write throttle.
    pub bandwidth: BandwidthModel,
    /// Throttle scale (see [`RealConfig::throttle_scale`]).
    pub throttle_scale: f64,
    /// Compression/decode workers per rank (see
    /// [`RealConfig::sz_threads`]).
    pub sz_threads: usize,
    /// Prediction/headroom mode.
    pub mode: AdaptMode,
    /// Shape of each step's reservation collective (see
    /// [`ReservationTopology`]; layouts are identical either way).
    pub reservation: ReservationTopology,
    /// Read back and bound-check every step's file (the step fails on
    /// a violation).
    pub verify: bool,
    /// Directory the per-step container files are written into
    /// (created if missing).
    pub dir: PathBuf,
    /// Keep the step files on disk (default workflows delete each file
    /// once its metrics are collected, like a rotating checkpoint).
    /// Keeping files also persists a predictor sidecar per adaptive
    /// step, which is what makes crash recovery
    /// ([`crate::recovery::resume_timeline`]) possible.
    pub keep_files: bool,
    /// Optional fault-injection hook consulted once per step; the
    /// returned [`FaultFs`] is attached to that step's container.
    pub step_faults: Option<StepFaults>,
}

impl TimelineConfig {
    /// A small, fast configuration for tests and examples: `steps`
    /// streamed checkpoints of `nfields` fields at relative bound
    /// 1e-3, lightly throttled, verified, files deleted after each
    /// step.
    pub fn quick(steps: usize, nfields: usize, mode: AdaptMode, dir: PathBuf) -> Self {
        TimelineConfig {
            steps,
            method: Method::Overlap,
            configs: vec![Config::rel(1e-3); nfields],
            models: Models::with_cthr(50e6),
            policy: ExtraSpacePolicy::default(),
            bandwidth: BandwidthModel::tiny_for_tests(),
            throttle_scale: 1.0,
            sz_threads: 1,
            mode,
            reservation: ReservationTopology::Flat,
            verify: true,
            dir,
            keep_files: false,
            step_faults: None,
        }
    }

    /// Container path of one step's checkpoint.
    pub fn step_path(&self, step: usize) -> PathBuf {
        self.dir.join(format!("step-{step:04}.h5l"))
    }

    /// Predictor-sidecar path of one step's checkpoint.
    pub fn sidecar_path(&self, step: usize) -> PathBuf {
        crate::sidecar::sidecar_path(&self.step_path(step))
    }
}

/// Stream `cfg.steps` checkpoints, pulling each step's partitioned
/// data from `step_data(step)` (shape `data[rank][field]`, uniform
/// across steps). The callback may return owned data (generating each
/// step on the fly) or a borrow of pre-generated steps — e.g.
/// `|s| &data[s]` when comparing modes over identical inputs.
///
/// Returns one [`obs::StepFlight`] row per step; any engine or
/// verification failure aborts the stream with the failing step's
/// error.
pub fn run_timeline<F, D>(cfg: &TimelineConfig, step_data: F) -> Result<TimelineReport, RealError>
where
    F: FnMut(usize) -> D,
    D: std::borrow::Borrow<Vec<Vec<RankFieldData>>>,
{
    run_timeline_resumed(cfg, 0, None, step_data)
}

/// [`run_timeline`] starting at `start_step` with optional pre-warmed
/// adaptation state — the restart half of crash recovery. Steps below
/// `start_step` are assumed to already exist on disk (or to be
/// deliberately skipped); their metrics are not re-collected. When
/// `initial_online` is `Some`, adaptive steps resume from that
/// predictor history instead of a cold warm-up.
pub fn run_timeline_resumed<F, D>(
    cfg: &TimelineConfig,
    start_step: usize,
    initial_online: Option<OnlineSource>,
    mut step_data: F,
) -> Result<TimelineReport, RealError>
where
    F: FnMut(usize) -> D,
    D: std::borrow::Borrow<Vec<Vec<RankFieldData>>>,
{
    std::fs::create_dir_all(&cfg.dir)
        .map_err(|e| RealError(format!("timeline: create {}: {e}", cfg.dir.display())))?;
    let mut online: Option<OnlineSource> = initial_online;
    if let (AdaptMode::Static, Some(_)) = (&cfg.mode, &online) {
        return Err(RealError(
            "timeline: online state supplied for a static-mode stream".into(),
        ));
    }
    let mut steps = Vec::with_capacity(cfg.steps.saturating_sub(start_step));
    // One engine config serves the whole stream; only the output path
    // changes per step, so the per-field Config list is cloned once,
    // not once per timestep.
    let mut rc = RealConfig {
        method: cfg.method,
        configs: cfg.configs.clone(),
        models: cfg.models,
        policy: cfg.policy,
        bandwidth: cfg.bandwidth,
        throttle_scale: cfg.throttle_scale,
        sz_threads: cfg.sz_threads,
        verify: cfg.verify,
        path: PathBuf::new(),
        reservation: cfg.reservation,
        faults: None,
    };
    for step in start_step..cfg.steps {
        let data = step_data(step);
        let data = data.borrow();
        let nranks = data.len();
        let nfields = data.first().map_or(0, Vec::len);
        rc.path = cfg.step_path(step);
        rc.faults = cfg.step_faults.as_ref().and_then(|h| (h.0)(step));
        // Record baselines: wire bytes are deltas of the process-global
        // obs metrics, the queue gauge's high-water mark restarts so it
        // reports this step's maximum only, and fault figures are deltas
        // of the step's own injector (which a hook may share across
        // steps).
        let metrics_before = obs::snapshot();
        let faults_before = rc.faults.as_ref().map(|f| f.stats()).unwrap_or_default();
        obs::gauge("h5.asyncq.depth").reset_high_water();
        let step_span = obs::span_arg("timeline.step", step as u64);
        let (result, observed) = match &cfg.mode {
            AdaptMode::Static => run_real_with(
                data,
                &rc,
                &ModelSource {
                    models: &cfg.models,
                },
            )?,
            AdaptMode::Adaptive(ocfg) => {
                if online.is_none() {
                    online = Some(OnlineSource::new(nranks, nfields, cfg.models, *ocfg));
                }
                let src = online.as_mut().expect("just initialized");
                if src.nranks() != nranks || src.nfields() != nfields {
                    return Err(RealError(format!(
                        "timeline: step {step} changed shape to {nranks}×{nfields} \
                         (stream started at {}×{})",
                        src.nranks(),
                        src.nfields()
                    )));
                }
                let out = run_real_with(data, &rc, &*src)?;
                src.observe_run(&out.1);
                out
            }
        };
        drop(step_span);
        let mean_rel_err = match (&cfg.mode, &online) {
            (AdaptMode::Adaptive(_), Some(src)) => src.predictor().mean_rel_err(),
            // Static mode has no EWMA: report the step's own error.
            _ => mean_rel_err(observed.iter().flatten().map(|o| (o.predicted, o.actual))),
        };
        let mut row = step_row(step, &result, &observed, mean_rel_err);
        let after = obs::snapshot();
        row.collective_wire_bytes =
            after.counter_delta(&metrics_before, "real.reservation_wire_bytes");
        row.queue_depth_max = after
            .gauges
            .get("h5.asyncq.depth")
            .map_or(0, |&(_, hwm)| hwm.max(0) as u64);
        if let Some(f) = &rc.faults {
            let s = f.stats();
            row.retries = s.retries - faults_before.retries;
            row.transient_faults = s.transient - faults_before.transient;
            row.escalations = s.escalations - faults_before.escalations;
        }
        row.host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        if cfg.keep_files {
            // Persist the post-step adaptation state beside the
            // container: a restart after this step resumes prediction
            // with the same history the uninterrupted stream has.
            if let Some(src) = &online {
                crate::sidecar::save_sidecar(
                    &cfg.sidecar_path(step),
                    src.nranks(),
                    src.nfields(),
                    src.predictor(),
                )
                .map_err(|e| RealError(format!("timeline: step {step} sidecar: {e}")))?;
            }
            // The report row is the flight record: a post-crash reader
            // sees what this step was doing.
            obs::flight::write_step(&obs::flight::flight_path(&rc.path), &row)
                .map_err(|e| RealError(format!("timeline: step {step} flight record: {e}")))?;
        } else {
            let _ = std::fs::remove_file(&rc.path);
        }
        steps.push(row);
    }
    obs::trace::export_env()
        .map_err(|e| RealError(format!("timeline: chrome-trace export: {e}")))?;
    Ok(TimelineReport {
        mode: cfg.mode.label().to_string(),
        steps,
    })
}

/// [`run_timeline`] over a [`workloads::SnapshotStream`]: generates
/// and partitions each step's snapshot (3-D decomposition for grid
/// streams, uniform 1-D splits for particle streams).
pub fn run_stream(
    cfg: &TimelineConfig,
    stream: &workloads::SnapshotStream,
    nranks: usize,
) -> Result<TimelineReport, RealError> {
    run_timeline(cfg, |step| {
        crate::data::partition_stream_step(stream, step, nranks)
    })
}
