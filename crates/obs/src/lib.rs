//! # obs — zero-dependency observability for the checkpoint stack
//!
//! Three pillars, all std-only so every workspace crate (down to the
//! leaf compressor) can instrument through this crate:
//!
//! * [`trace`] — scoped RAII spans in lock-free per-thread buffers,
//!   exported as Chrome trace-event JSON (`chrome://tracing`,
//!   Perfetto) via the `OBS_TRACE=path.json` env knob. Compiled in
//!   but disabled by default; the disabled path is one relaxed atomic
//!   load.
//! * [`metrics`] — a process-wide registry of named counters, gauges
//!   (with high-water marks), and log-bucketed histograms with
//!   p50/p90/p99 extraction. No allocation or locking on the record
//!   path.
//! * [`flight`] — the per-step JSONL flight recorder
//!   (`step-NNNN.obs.jsonl` beside the `.pred` sidecars), readable
//!   after a crash with typed per-line errors.
//!
//! [`json`] is the workspace's shared strict mini JSON parser /
//! escaper backing the flight recorder, the trace validator in the
//! bench suite, and `scrub --json`.

pub mod flight;
pub mod json;
pub mod metrics;
pub mod trace;

pub use flight::{flight_path, read_flight, FlightError, FlightScan, StepFlight, StepTotals};
pub use json::Json;
pub use metrics::{counter, gauge, histogram, snapshot, Counter, Gauge, Histogram, Snapshot};
pub use trace::{enabled, export_env, set_enabled, span, span_arg, Span, SpanEvent};
