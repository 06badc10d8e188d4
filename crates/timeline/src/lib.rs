//! # timeline — timestep-streaming checkpoint engine with online
//! ratio-model adaptation
//!
//! The paper's target workloads (Nyx, VPIC, RTM) don't write one file:
//! they checkpoint a time-evolving simulation over many timesteps, and
//! the predictive-write design pays off most when prediction sharpens
//! with history — timestep *t*'s observed per-field compression ratios
//! are an excellent predictor for timestep *t + 1*. This crate closes
//! that loop on top of the real engine:
//!
//! * [`engine`] — [`run_timeline`] drives
//!   [`predwrite::run_real_with`] across a step sequence, writing one
//!   container file per checkpoint; [`run_stream`] feeds it from a
//!   [`workloads::SnapshotStream`] (deterministically evolving
//!   Nyx/VPIC/RTM snapshots).
//! * [`adaptive`] — [`OnlineSource`] plugs
//!   [`ratiomodel::OnlinePredictor`] into the engine's predict phase:
//!   per-partition EWMA bias correction over observed ratios, plus
//!   error-band-driven extra-space headroom (tight when history is
//!   stable, wide after drift, floored at the last observed size so a
//!   misprediction is recovered from on the very next step).
//! * [`metrics`] — per-step and cumulative accounting: reserved vs.
//!   wasted bytes, overflow-redirection events, prediction error,
//!   wall time. The `bench_timeline` binary compares
//!   [`AdaptMode::Static`] against [`AdaptMode::Adaptive`] on all
//!   three workloads with these numbers.
//! * [`data`] — snapshot → `data[rank][field]` partitioning shared by
//!   the engine, benches and examples.
//!
//! Every step is a pure function of `(seed, step, history)` and the
//! engine inherits the write pipeline's determinism, so streams replay
//! byte-identically at any `sz_threads` worker count.

pub mod adaptive;
pub mod data;
pub mod engine;
pub mod metrics;
pub mod recovery;
pub mod sidecar;

pub use adaptive::OnlineSource;
pub use data::{partition_1d, partition_3d, partition_stream_step};
pub use engine::{
    run_stream, run_timeline, run_timeline_resumed, AdaptMode, StepFaults, TimelineConfig,
};
pub use metrics::TimelineReport;
pub use recovery::{newest_flight, resume_timeline, ResumeReport};
pub use sidecar::{load_sidecar, save_sidecar, sidecar_path};
