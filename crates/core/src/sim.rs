//! Simulated execution of the four write methods over partition
//! profiles — the engine behind every scale/ratio sweep (Fig. 16–18).
//!
//! Identical planner code (extra space, Algorithm 1 ordering, overflow
//! planning) to the real engine; only execution is replaced by the
//! discrete-event pipeline simulator of `pfsim`.

use crate::extraspace::ExtraSpacePolicy;
use crate::metrics::{mean_rel_err, step_record, Breakdown, Method, RunResult};
use crate::plan::{
    build_rank_view, fit_split, reservation_wire_bytes, PartitionPrediction, WritePlan,
};
use crate::profile::PartitionProfile;
use crate::real::{AdaptMode, ReservationTopology};
use crate::scheduler::{identity_order, optimize_order};
use pfsim::{
    collective_write_time, simulate, simulate_concurrent_writes, BandwidthModel, PipelineTask,
    RankPipeline,
};
use ratiomodel::{BandScope, OnlinePredictor};
use std::time::Instant;

/// Simulation parameters beyond the bandwidth model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimParams {
    /// File system model.
    pub bandwidth: BandwidthModel,
    /// Extra-space policy for the predictive methods.
    pub policy: ExtraSpacePolicy,
    /// All-gather latency: `alpha + beta · nranks` seconds. The paper
    /// notes this term grows with scale (§IV-D).
    pub allgather_alpha: f64,
    /// Per-rank all-gather cost.
    pub allgather_beta: f64,
    /// Prediction overhead as a fraction of compression time (< 0.1
    /// per Jin et al. \[25\]).
    pub predict_frac: f64,
}

impl SimParams {
    /// Defaults on a given bandwidth model.
    pub fn new(bandwidth: BandwidthModel) -> Self {
        SimParams {
            bandwidth,
            policy: ExtraSpacePolicy::default(),
            allgather_alpha: 200e-6,
            allgather_beta: 1.5e-6,
            predict_frac: 0.05,
        }
    }

    /// Override the extra-space policy.
    pub fn with_policy(mut self, policy: ExtraSpacePolicy) -> Self {
        self.policy = policy;
        self
    }

    fn allgather_time(&self, nranks: usize) -> f64 {
        self.allgather_alpha + self.allgather_beta * nranks as f64
    }

    /// Latency of the reservation collective under a topology: the
    /// flat path is one world-sized all-gather; the sharded path is a
    /// group-sized all-gather plus the inter-group exchange of leader
    /// totals (two small collectives instead of one large one).
    pub fn reservation_collective_time(&self, nranks: usize, group_size: Option<usize>) -> f64 {
        match group_size {
            None => self.allgather_time(nranks),
            Some(s) => {
                let s = s.clamp(1, nranks.max(1));
                let n_groups = nranks.div_ceil(s);
                self.allgather_time(s) + self.allgather_time(n_groups)
            }
        }
    }
}

fn totals(profiles: &[Vec<PartitionProfile>]) -> (u64, u64) {
    let raw = profiles.iter().flatten().map(|p| p.raw_bytes).sum();
    let comp = profiles.iter().flatten().map(|p| p.actual_bytes).sum();
    (raw, comp)
}

/// Simulate one method over `profiles[rank][field]`.
pub fn simulate_method(
    method: Method,
    profiles: &[Vec<PartitionProfile>],
    params: &SimParams,
) -> RunResult {
    match method {
        Method::NoCompression => sim_nocomp(profiles, params),
        Method::FilterCollective => sim_filter(profiles, params),
        Method::Overlap => sim_overlap(profiles, params, false),
        Method::OverlapReorder => sim_overlap(profiles, params, true),
    }
}

/// Simulate all four methods (shared profiles → comparable results).
pub fn simulate_all(profiles: &[Vec<PartitionProfile>], params: &SimParams) -> Vec<RunResult> {
    Method::ALL
        .iter()
        .map(|&m| simulate_method(m, profiles, params))
        .collect()
}

fn sim_nocomp(profiles: &[Vec<PartitionProfile>], params: &SimParams) -> RunResult {
    let ranks: Vec<RankPipeline> = profiles
        .iter()
        .map(|fields| RankPipeline {
            release: 0.0,
            tasks: fields
                .iter()
                .map(|p| PipelineTask {
                    compute: 0.0,
                    write_bytes: p.raw_bytes as f64,
                })
                .collect(),
        })
        .collect();
    let out = simulate(&ranks, &params.bandwidth);
    let (raw, _) = totals(profiles);
    RunResult {
        method: Method::NoCompression,
        total_time: out.makespan,
        breakdown: Breakdown {
            write: out.makespan,
            ..Default::default()
        },
        raw_bytes: raw,
        compressed_bytes: raw,
        file_bytes: raw,
        n_overflow: 0,
        overflow_bytes: 0,
    }
}

fn sim_filter(profiles: &[Vec<PartitionProfile>], params: &SimParams) -> RunResult {
    let nranks = profiles.len();
    let nfields = profiles.first().map_or(0, Vec::len);
    // Phase 1: all ranks compress everything; barrier at the slowest.
    let compress = profiles
        .iter()
        .map(|fields| fields.iter().map(|p| p.comp_time).sum::<f64>())
        .fold(0.0, f64::max);
    // Phase 2: all-gather of actual sizes.
    let ag = params.allgather_time(nranks);
    // Phase 3: one collective round per field (filters force collective
    // writes; every rank participates in every round).
    let mut write = 0.0;
    for f in 0..nfields {
        let sizes: Vec<f64> = profiles.iter().map(|r| r[f].actual_bytes as f64).collect();
        write += collective_write_time(&sizes, &params.bandwidth);
    }
    let (raw, comp) = totals(profiles);
    RunResult {
        method: Method::FilterCollective,
        total_time: compress + ag + write,
        breakdown: Breakdown {
            allgather: ag,
            compress,
            write,
            ..Default::default()
        },
        raw_bytes: raw,
        compressed_bytes: comp,
        file_bytes: comp,
        n_overflow: 0,
        overflow_bytes: 0,
    }
}

fn sim_overlap(profiles: &[Vec<PartitionProfile>], params: &SimParams, reorder: bool) -> RunResult {
    let nranks = profiles.len();
    // Layout from *predicted* sizes, reserves from the uniform policy.
    let predictions: Vec<Vec<PartitionPrediction>> = profiles
        .iter()
        .map(|fields| {
            fields
                .iter()
                .map(|p| PartitionPrediction {
                    bytes: p.pred_bytes,
                    ratio: p.pred_ratio,
                })
                .collect()
        })
        .collect();
    let plan = WritePlan::build(&predictions, &params.policy, 0);
    sim_overlap_planned(
        profiles,
        params,
        reorder,
        &plan,
        params.allgather_time(nranks),
    )
}

/// The execution half of the overlap simulation, with the layout (and
/// the reservation-collective latency) supplied by the caller — shared
/// by [`sim_overlap`] (uniform policy, flat collective) and
/// [`simulate_stream`] (adaptive per-partition reserves, flat or
/// sharded collective).
fn sim_overlap_planned(
    profiles: &[Vec<PartitionProfile>],
    params: &SimParams,
    reorder: bool,
    plan: &WritePlan,
    ag: f64,
) -> RunResult {
    let nranks = profiles.len();

    // Phase 1: prediction (sampling) on every rank, then the
    // reservation collective synchronizes everyone at max(predict) + ag.
    let predict = profiles
        .iter()
        .map(|fields| fields.iter().map(|p| p.comp_time).sum::<f64>() * params.predict_frac)
        .fold(0.0, f64::max);
    let release = predict + ag;

    // Phase 3: per-rank ordered compress→write pipelines.
    let mut n_overflow = 0usize;
    let mut overflow_bytes = 0u64;
    let mut rank_overflow = vec![0u64; nranks];
    let ranks: Vec<RankPipeline> = profiles
        .iter()
        .enumerate()
        .map(|(r, fields)| {
            let order = if reorder {
                let pc: Vec<f64> = fields.iter().map(|p| p.pred_comp_time).collect();
                let pw: Vec<f64> = fields.iter().map(|p| p.pred_write_time).collect();
                optimize_order(&pc, &pw)
            } else {
                identity_order(fields.len())
            };
            let tasks = order
                .iter()
                .map(|&f| {
                    let p = &fields[f];
                    let split = fit_split(p.actual_bytes, plan.slots[r][f].reserved);
                    if split.overflow > 0 {
                        n_overflow += 1;
                        overflow_bytes += split.overflow;
                        rank_overflow[r] += split.overflow;
                    }
                    PipelineTask {
                        compute: p.comp_time,
                        write_bytes: split.in_slot as f64,
                    }
                })
                .collect();
            RankPipeline { release, tasks }
        })
        .collect();
    let out = simulate(&ranks, &params.bandwidth);
    let compress_end = out.last_compute_done();
    let makespan = out.makespan;

    // Phase 4: overflow — a second all-gather of overflow sizes, then
    // the affected ranks append concurrently.
    let mut overflow_time = 0.0;
    if overflow_bytes > 0 {
        let sizes: Vec<f64> = rank_overflow
            .iter()
            .filter(|&&b| b > 0)
            .map(|&b| b as f64)
            .collect();
        let (_, round) = simulate_concurrent_writes(&sizes, &params.bandwidth);
        overflow_time = params.allgather_time(nranks) + round;
    }

    let (raw, comp) = totals(profiles);
    // File: everything reserved stays allocated; overflow appends past
    // the end (in-slot bytes within reservations are not reclaimed).
    let file_bytes = plan.reserved_total() + overflow_bytes;
    RunResult {
        method: if reorder {
            Method::OverlapReorder
        } else {
            Method::Overlap
        },
        total_time: makespan + overflow_time,
        breakdown: Breakdown {
            predict,
            allgather: ag,
            compress: compress_end - release,
            write: makespan - compress_end,
            overflow: overflow_time,
            ..Default::default()
        },
        raw_bytes: raw,
        compressed_bytes: comp,
        file_bytes,
        n_overflow,
        overflow_bytes,
    }
}

/// Configuration of a simulated checkpoint stream — the scale-out
/// counterpart of `timeline::TimelineConfig`: same [`AdaptMode`] and
/// [`ReservationTopology`], but steps execute through the
/// discrete-event simulator instead of real threads and real I/O, so
/// thousands of ranks stream in milliseconds.
#[derive(Debug, Clone)]
pub struct StreamSimConfig {
    /// Bandwidth model, extra-space policy, collective latency model.
    pub params: SimParams,
    /// Prediction/headroom mode (adaptive mode carries its
    /// [`ratiomodel::OnlineConfig`], including the band scope).
    pub mode: AdaptMode,
    /// Shape of the per-step reservation collective.
    pub reservation: ReservationTopology,
    /// Timesteps to stream.
    pub steps: usize,
    /// Apply Algorithm 1 queue reordering per rank.
    pub reorder: bool,
}

/// Full report of a simulated stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSimReport {
    /// [`AdaptMode::label`] of the run.
    pub mode: String,
    /// [`ReservationTopology::label`] of the run.
    pub reservation: String,
    /// Stream shape.
    pub nranks: usize,
    /// Fields per rank.
    pub nfields: usize,
    /// Per-step records, in step order. A simulated step fills the
    /// fields it models (phase and total times; raw, reserved, waste,
    /// actual, file and overflow bytes; overflow parts; prediction
    /// error); the predicted, host, queue, wire and fault fields
    /// stay 0.
    pub steps: Vec<obs::StepFlight>,
    /// Measured wall-clock of the representative rank's planner work,
    /// summed over steps (layout derivation only, not the simulated
    /// pipeline). Flat topology times the full
    /// [`WritePlan::build_reserved`]; sharded times the group-local
    /// sums plus [`build_rank_view`] — the other groups' totals are
    /// computed by their own leaders concurrently in a real run, so
    /// they are excluded.
    pub planner_seconds: f64,
    /// Modeled reservation-collective traffic per rank per step, bytes
    /// (see [`reservation_wire_bytes`]).
    pub collective_bytes_per_rank: u64,
}

/// Stream `cfg.steps` simulated checkpoints over
/// `step_profiles(step)[rank][field]` (shape must be uniform across
/// steps; the callback may return owned or borrowed profile sets).
///
/// Static mode replays the offline predictions with the engine-wide
/// extra-space policy every step. Adaptive mode threads an
/// [`OnlinePredictor`] through the stream exactly like the real-I/O
/// timeline engine: per-partition bias correction plus adaptive
/// headroom (collective per-field bands under
/// [`BandScope::Field`]), fed back from each step's actual sizes.
///
/// The reservation topology changes *costs*, never *bytes*: the
/// sharded layout is byte-identical to flat (pinned by tests), but the
/// collective latency, per-rank wire traffic, and the representative
/// rank's planner wall-clock all shrink — those are what the report
/// exposes for the scale sweeps.
pub fn simulate_stream<F, D>(cfg: &StreamSimConfig, mut step_profiles: F) -> StreamSimReport
where
    F: FnMut(usize) -> D,
    D: std::borrow::Borrow<Vec<Vec<PartitionProfile>>>,
{
    let mut online: Option<OnlinePredictor> = None;
    let mut shape: Option<(usize, usize)> = None;
    let mut steps = Vec::with_capacity(cfg.steps);
    let mut planner_seconds = 0.0;
    let mut collective_bytes_per_rank = 0u64;

    for step in 0..cfg.steps {
        let profiles = step_profiles(step);
        let profiles = profiles.borrow();
        let nranks = profiles.len();
        let nfields = profiles.first().map_or(0, Vec::len);
        match shape {
            None => shape = Some((nranks, nfields)),
            Some(s) => assert_eq!(s, (nranks, nfields), "step {step} changed the stream shape"),
        }
        let gsize = cfg.reservation.effective_group_size(nranks);
        collective_bytes_per_rank = reservation_wire_bytes(nranks, nfields, gsize);

        // Predictions + reserves for this step, per mode. Mirrors the
        // real engine's wire semantics: adaptive headroom `h > 0`
        // reserves `ceil(bytes · h)`, warm-up falls back to the policy.
        let mut preds = vec![Vec::with_capacity(nfields); nranks];
        let mut reserves = vec![Vec::with_capacity(nfields); nranks];
        for (r, fields) in profiles.iter().enumerate() {
            for (f, p) in fields.iter().enumerate() {
                let (bytes, ratio, headroom) = match (&cfg.mode, &online) {
                    (AdaptMode::Adaptive(_), Some(pred)) => {
                        let est = pred.predict(r * nfields + f, p.pred_bytes);
                        let ratio = p.raw_bytes as f64 / est.bytes.max(1) as f64;
                        (est.bytes, ratio, est.headroom)
                    }
                    _ => (p.pred_bytes, p.pred_ratio, None),
                };
                let reserve = match headroom {
                    Some(h) if h > 0.0 => (bytes as f64 * h).ceil() as u64,
                    _ => cfg.params.policy.reserve_bytes(bytes, ratio),
                };
                preds[r].push(PartitionPrediction { bytes, ratio });
                reserves[r].push(reserve);
            }
        }

        // Plan the layout, timing only the representative rank's
        // critical path. Flat: every rank derives the whole matrix.
        // Sharded: a rank sums its own group per field and projects its
        // view from the exchanged totals; other groups' sums happen on
        // their own leaders in parallel, so they stay untimed here.
        let plan = match gsize {
            None => {
                let t0 = Instant::now();
                let plan = WritePlan::build_reserved(&preds, &reserves, 0);
                planner_seconds += t0.elapsed().as_secs_f64();
                plan
            }
            Some(s) => {
                let n_groups = nranks.div_ceil(s);
                let head = s.min(nranks);
                let mut group_totals: Vec<Vec<u64>> = vec![Vec::new(); n_groups];
                for (g, totals) in group_totals.iter_mut().enumerate().skip(1) {
                    let members = &reserves[g * s..((g + 1) * s).min(nranks)];
                    *totals = (0..nfields)
                        .map(|f| members.iter().map(|m| m[f]).sum())
                        .collect();
                }
                let t0 = Instant::now();
                group_totals[0] = (0..nfields)
                    .map(|f| reserves[..head].iter().map(|m| m[f]).sum())
                    .collect();
                let view =
                    build_rank_view(&group_totals, 0, &preds[..head], &reserves[..head], 0, 0);
                planner_seconds += t0.elapsed().as_secs_f64();
                let plan = WritePlan::build_reserved(&preds, &reserves, 0);
                debug_assert_eq!(view, plan.rank_view(0), "sharded view diverged from flat");
                plan
            }
        };

        let ag = cfg.params.reservation_collective_time(nranks, gsize);
        let result = sim_overlap_planned(profiles, &cfg.params, cfg.reorder, &plan, ag);
        steps.push(obs::StepFlight {
            reserved_bytes: plan.reserved_total(),
            waste_bytes: result.file_bytes.saturating_sub(result.compressed_bytes),
            mean_rel_err: mean_rel_err(
                profiles
                    .iter()
                    .zip(&preds)
                    .flat_map(|(ps, pr)| pr.iter().zip(ps).map(|(q, p)| (q.bytes, p.actual_bytes))),
            ),
            ..step_record(step, &result)
        });

        // Feed the step's actual sizes back into the predictor.
        if let AdaptMode::Adaptive(ocfg) = &cfg.mode {
            let pred = online.get_or_insert_with(|| match ocfg.band_scope {
                BandScope::Partition => OnlinePredictor::new(nranks * nfields, *ocfg),
                BandScope::Field => {
                    OnlinePredictor::with_band_groups(nranks * nfields, nfields, *ocfg)
                }
            });
            for (r, fields) in profiles.iter().enumerate() {
                for (f, p) in fields.iter().enumerate() {
                    let cell = r * nfields + f;
                    pred.observe(cell, p.pred_bytes, preds[r][f].bytes, p.actual_bytes);
                }
            }
        }
    }

    let (nranks, nfields) = shape.unwrap_or((0, 0));
    StreamSimReport {
        mode: cfg.mode.label().to_string(),
        reservation: cfg.reservation.label().to_string(),
        nranks,
        nfields,
        steps,
        planner_seconds,
        collective_bytes_per_rank,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::StepTotals;

    /// Synthetic profile set: `nranks` ranks × `nfields` fields with a
    /// spread of sizes and compression times. Partition size matches
    /// the paper's weak-scaling unit (256³ points = 64 MiB raw).
    fn synth(
        nranks: usize,
        nfields: usize,
        ratio: f64,
        accurate: bool,
    ) -> Vec<Vec<PartitionProfile>> {
        let n_points = 1 << 24; // 16 Mi points = 64 MiB raw
        (0..nranks)
            .map(|r| {
                (0..nfields)
                    .map(|f| {
                        // Deterministic per-partition variation ×[0.6, 1.67].
                        let h = ((r * 31 + f * 17) % 13) as f64 / 13.0;
                        let scale = 0.6 * (1.67f64 / 0.6).powf(h);
                        let raw = (n_points * 4) as u64;
                        let actual = ((raw as f64 / ratio) * scale) as u64;
                        let pred = if accurate {
                            (actual as f64 * 1.02) as u64
                        } else {
                            (actual as f64 * 0.7) as u64 // systematic under-prediction
                        };
                        let bits = actual as f64 * 8.0 / n_points as f64;
                        let tm = ratiomodel::ThroughputModel::paper_reference();
                        PartitionProfile {
                            n_points,
                            raw_bytes: raw,
                            pred_bytes: pred,
                            pred_ratio: raw as f64 / pred as f64,
                            pred_comp_time: tm.compression_time(raw as f64, bits),
                            pred_write_time: actual as f64 / 100e6,
                            actual_bytes: actual,
                            comp_time: tm.compression_time(raw as f64, bits),
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn params() -> SimParams {
        SimParams::new(BandwidthModel::summit()).with_policy(ExtraSpacePolicy::new(1.25))
    }

    #[test]
    fn method_ranking_matches_paper() {
        // At a mid compression ratio (~16×) on a congested system:
        // no-comp slowest, filter+collective better, overlap better
        // still, reorder best (Fig. 16 ordering).
        let profiles = synth(512, 6, 16.0, true);
        let rs = simulate_all(&profiles, &params());
        let t = |m: Method| rs.iter().find(|r| r.method == m).unwrap().total_time;
        assert!(t(Method::NoCompression) > t(Method::FilterCollective));
        assert!(t(Method::FilterCollective) > t(Method::Overlap));
        assert!(t(Method::Overlap) >= t(Method::OverlapReorder) * 0.999);
    }

    #[test]
    fn speedups_in_plausible_range() {
        let profiles = synth(512, 6, 16.0, true);
        let rs = simulate_all(&profiles, &params());
        let no = rs[0];
        let best = rs[3];
        let speedup = best.speedup_over(&no);
        assert!(speedup > 2.0 && speedup < 20.0, "speedup {speedup}");
    }

    #[test]
    fn accurate_predictions_no_overflow() {
        let profiles = synth(16, 4, 16.0, true);
        let r = simulate_method(Method::Overlap, &profiles, &params());
        assert_eq!(r.n_overflow, 0);
        assert_eq!(r.overflow_bytes, 0);
        assert!(r.breakdown.overflow == 0.0);
    }

    #[test]
    fn underprediction_causes_overflow_and_cost() {
        let profiles = synth(16, 4, 16.0, false);
        // With 0.7× under-prediction and 1.25 extra space, reservations
        // are 0.875× of actual → every partition overflows.
        let r = simulate_method(Method::Overlap, &profiles, &params());
        // Most partitions overflow (those whose predicted ratio exceeds
        // 32 get the Eq. 3 widened reserve and may still fit).
        assert!(r.n_overflow > 16 * 4 / 2, "n_overflow {}", r.n_overflow);
        assert!(r.overflow_bytes > 0);
        assert!(r.breakdown.overflow > 0.0);
        // Overflow costs time vs. the accurate case.
        let acc = simulate_method(Method::Overlap, &synth(16, 4, 16.0, true), &params());
        assert!(r.total_time > acc.total_time);
    }

    #[test]
    fn storage_overhead_tracks_rspace() {
        let profiles = synth(16, 4, 16.0, true);
        let lo = simulate_method(
            Method::Overlap,
            &profiles,
            &params().with_policy(ExtraSpacePolicy::new(1.1)),
        );
        let hi = simulate_method(
            Method::Overlap,
            &profiles,
            &params().with_policy(ExtraSpacePolicy::new(1.43)),
        );
        assert!(hi.storage_overhead() > lo.storage_overhead());
        // With accurate predictions, overhead ≈ rspace − 1 + prediction slack.
        assert!(
            (hi.storage_overhead() - 0.46).abs() < 0.1,
            "{}",
            hi.storage_overhead()
        );
    }

    #[test]
    fn reorder_gain_vanishes_at_extreme_ratios() {
        // Fig. 17: at very high compression ratio (tiny writes) and at
        // very low ratio (write-dominated), reordering gains little.
        let p = params();
        for ratio in [200.0, 1.3] {
            let profiles = synth(32, 6, ratio, true);
            let ov = simulate_method(Method::Overlap, &profiles, &p);
            let re = simulate_method(Method::OverlapReorder, &profiles, &p);
            let gain = ov.total_time / re.total_time;
            assert!(gain < 1.15, "ratio {ratio}: gain {gain}");
        }
    }

    #[test]
    fn weak_scaling_stable() {
        // Per-rank work constant; total time should not blow up with
        // rank count beyond bandwidth contention effects.
        let base = synth(32, 6, 16.0, true);
        let p = params();
        let t256 = simulate_method(
            Method::OverlapReorder,
            &crate::profile::replicate_profiles(&base, 256),
            &p,
        )
        .total_time;
        let t1024 = simulate_method(
            Method::OverlapReorder,
            &crate::profile::replicate_profiles(&base, 1024),
            &p,
        )
        .total_time;
        // 4× the ranks on a shared cap: at most ~5× the time.
        assert!(t1024 < t256 * 6.0, "t256 {t256} t1024 {t1024}");
        assert!(t1024 > t256, "more contention must not be faster");
    }

    #[test]
    fn breakdown_sums_to_total() {
        let profiles = synth(16, 6, 16.0, false);
        for m in Method::ALL {
            let r = simulate_method(m, &profiles, &params());
            assert!(
                (r.breakdown.total() - r.total_time).abs() < 1e-6,
                "{m:?}: {} vs {}",
                r.breakdown.total(),
                r.total_time
            );
        }
    }

    fn stream_cfg(
        mode: AdaptMode,
        reservation: ReservationTopology,
        steps: usize,
    ) -> StreamSimConfig {
        StreamSimConfig {
            params: params(),
            mode,
            reservation,
            steps,
            reorder: false,
        }
    }

    fn adaptive() -> AdaptMode {
        AdaptMode::Adaptive(ratiomodel::OnlineConfig::default())
    }

    #[test]
    fn adaptive_stream_cures_systematic_underprediction() {
        // The offline model under-predicts by 0.7× every step; the
        // static stream overflows forever, the adaptive stream learns
        // the bias within a few steps and stops overflowing.
        let profiles = synth(16, 4, 16.0, false);
        let stat = simulate_stream(
            &stream_cfg(AdaptMode::Static, ReservationTopology::Flat, 8),
            |_| &profiles,
        );
        let adap = simulate_stream(
            &stream_cfg(adaptive(), ReservationTopology::Flat, 8),
            |_| &profiles,
        );
        let (st, at) = (StepTotals::of(&stat.steps), StepTotals::of(&adap.steps));
        assert!(st.overflow_parts > 0, "static must overflow");
        assert!(
            at.overflow_bytes < st.overflow_bytes / 2,
            "adaptive {} vs static {}",
            at.overflow_bytes,
            st.overflow_bytes
        );
        // Error collapses once the bias correction kicks in.
        assert!(adap.steps.last().unwrap().mean_rel_err < adap.steps[0].mean_rel_err / 2.0);
        // Static replays the same step forever.
        assert!(stat
            .steps
            .iter()
            .all(|s| s.overflow_parts == stat.steps[0].overflow_parts));
    }

    #[test]
    fn adaptive_stream_trims_waste_on_stable_history() {
        // With accurate predictions the static policy still pads every
        // reservation by rspace − 1; adaptive headroom tightens toward
        // the observed error band and wastes less space.
        let profiles = synth(16, 4, 16.0, true);
        let stat = simulate_stream(
            &stream_cfg(AdaptMode::Static, ReservationTopology::Flat, 8),
            |_| &profiles,
        );
        let adap = simulate_stream(
            &stream_cfg(adaptive(), ReservationTopology::Flat, 8),
            |_| &profiles,
        );
        let (st, at) = (StepTotals::of(&stat.steps), StepTotals::of(&adap.steps));
        assert_eq!(at.overflow_bytes, 0, "stable history must not overflow");
        assert!(
            at.waste_bytes < st.waste_bytes,
            "adaptive {} vs static {}",
            at.waste_bytes,
            st.waste_bytes
        );
    }

    #[test]
    fn sharded_stream_steps_identical_to_flat() {
        // Topology changes costs, not bytes: every per-step stat except
        // the collective-latency contribution to total_time must match.
        // With equal allgather terms the times match too, so compare at
        // a group size whose two-level latency happens to differ and
        // assert the byte-level fields are equal.
        let profiles = synth(24, 3, 16.0, false);
        for mode in [AdaptMode::Static, adaptive()] {
            let flat = simulate_stream(&stream_cfg(mode, ReservationTopology::Flat, 4), |_| {
                &profiles
            });
            let shard = simulate_stream(
                &stream_cfg(mode, ReservationTopology::Sharded { group_size: 5 }, 4),
                |_| &profiles,
            );
            for (a, b) in flat.steps.iter().zip(&shard.steps) {
                assert_eq!(a.file_bytes, b.file_bytes);
                assert_eq!(a.actual_bytes, b.actual_bytes);
                assert_eq!(a.reserved_bytes, b.reserved_bytes);
                assert_eq!(a.waste_bytes, b.waste_bytes);
                assert_eq!(a.overflow_bytes, b.overflow_bytes);
                assert_eq!(a.overflow_parts, b.overflow_parts);
                assert_eq!(a.mean_rel_err, b.mean_rel_err);
            }
            // Sharding shrinks the per-rank reservation wire traffic.
            assert!(shard.collective_bytes_per_rank < flat.collective_bytes_per_rank);
        }
    }

    #[test]
    fn field_scope_bands_flow_through_stream() {
        let cfg = ratiomodel::OnlineConfig {
            band_scope: ratiomodel::BandScope::Field,
            ..ratiomodel::OnlineConfig::default()
        };
        let profiles = synth(16, 4, 16.0, false);
        let r = simulate_stream(
            &stream_cfg(AdaptMode::Adaptive(cfg), ReservationTopology::Flat, 8),
            |_| &profiles,
        );
        // Collective bands adapt too — the bias fix dominates either
        // way, so the field-scoped stream also stops overflowing.
        assert!(r.steps.last().unwrap().overflow_bytes < r.steps[0].overflow_bytes / 2);
    }

    #[test]
    fn stream_report_shape_and_planner_cost() {
        let profiles = synth(512, 4, 16.0, true);
        let r = simulate_stream(
            &stream_cfg(
                AdaptMode::Static,
                ReservationTopology::Sharded { group_size: 0 },
                3,
            ),
            |_| &profiles,
        );
        assert_eq!((r.nranks, r.nfields), (512, 4));
        assert_eq!(r.steps.len(), 3);
        assert_eq!(r.reservation, "sharded");
        assert!(r.planner_seconds > 0.0 && r.planner_seconds.is_finite());
        // √512 → 23-rank groups: far less wire than the 512-rank gather.
        assert!(r.collective_bytes_per_rank < reservation_wire_bytes(512, 4, None) / 4);
    }

    #[test]
    #[should_panic(expected = "changed the stream shape")]
    fn stream_rejects_shape_change() {
        let cfg = stream_cfg(AdaptMode::Static, ReservationTopology::Flat, 2);
        let mut n = 0usize;
        simulate_stream(&cfg, |_| {
            n += 1;
            synth(8 + n, 2, 16.0, true)
        });
    }
}
