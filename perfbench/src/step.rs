//! One checkpoint step: the engine call, the restart read, the
//! correctness check and (on traced steps) the per-layer replays.
//!
//! Every layer is measured from outside: the benchmark times its own
//! calls into each crate's public functions and wraps each call in an
//! `obs` span named `<crate>.<fn>` carrying the step id.

use crate::workload::{Prepared, StepData, NRANKS, SZ_THREADS};
use h5lite::H5Reader;
use pfsim::BandwidthModel;
use predwrite::{
    identity_order, optimize_order, queue_time, run_real_with, ExtraSpacePolicy, Method,
    PartitionPrediction, PredictionSource, RealConfig, ReservationTopology, RunObservations,
    RunResult, WritePlan,
};
use std::path::Path;
use std::time::Instant;
use szlite::{compress_into, decompress_into, Config, DecompressScratch, Scratch};

/// What one engine call produced.
pub struct EngineStep {
    /// Wall time of the engine call, seconds.
    pub secs: f64,
    /// The engine's aggregate result.
    pub result: RunResult,
    /// Per-partition observations (`[rank][field]`).
    pub obs: RunObservations,
}

/// Run one checkpoint of `data` with `method` into `path`.
pub fn engine_step(
    prep: &Prepared,
    method: Method,
    data: &StepData,
    source: &dyn PredictionSource,
    path: &Path,
    step: u64,
) -> Result<EngineStep, String> {
    let cfg = RealConfig {
        method,
        configs: prep.configs.clone(),
        models: prep.models,
        policy: ExtraSpacePolicy::default(),
        bandwidth: BandwidthModel::tiny_for_tests(),
        throttle_scale: prep.spec.throttle_scale,
        sz_threads: SZ_THREADS,
        verify: false,
        reservation: ReservationTopology::Flat,
        faults: None,
        path: path.to_path_buf(),
    };
    let t = Instant::now();
    let span = obs::span_arg("predwrite.run_real_with", step);
    let out = run_real_with(data, &cfg, source);
    drop(span);
    let secs = t.elapsed().as_secs_f64();
    let (result, obs) = out.map_err(|e| format!("{}: {e}", method.label()))?;
    Ok(EngineStep { secs, result, obs })
}

/// Restart: open the checkpoint and decode every field through the
/// public reader. Returns the decoded fields in `data`'s field order.
pub fn read_back(path: &Path, data: &StepData, step: u64) -> Result<Vec<Vec<f32>>, String> {
    let open = obs::span_arg("h5lite.open", step);
    let reader = H5Reader::open(path).map_err(|e| format!("open: {e}"))?;
    drop(open);
    data[0]
        .iter()
        .map(|f| {
            let _span = obs::span_arg("h5lite.read_f32", step);
            reader
                .read_f32(&f.name)
                .map_err(|e| format!("read {}: {e}", f.name))
        })
        .collect()
}

/// Check decoded fields against the originals: within each field's
/// bound when `configs` is given, bit for bit when it is `None`
/// (`NoCompression`). Non-finite values must always match bit for bit.
/// The restart read's own values are checked, so each checkpoint is
/// read once (`predwrite::verify_file` would read it a second time).
pub fn check_decoded(
    decoded: &[Vec<f32>],
    data: &StepData,
    configs: Option<&[Config]>,
) -> Result<(), String> {
    for (f, field) in decoded.iter().enumerate() {
        let name = &data[0][f].name;
        let part = data[0][f].data.len();
        if field.len() != part * data.len() {
            return Err(format!(
                "{name}: decoded {} values, expected {}",
                field.len(),
                part * data.len()
            ));
        }
        for (r, rank) in data.iter().enumerate() {
            let orig = &rank[f].data;
            let eb = configs
                .map(|c| c[f].error_bound.resolve_for(orig))
                .transpose()
                .map_err(|e| format!("{name}: {e}"))?;
            let got = &field[r * part..(r + 1) * part];
            for (i, (&a, &b)) in orig.iter().zip(got).enumerate() {
                let ok = match eb {
                    Some(eb) if a.is_finite() => (f64::from(a) - f64::from(b)).abs() <= eb,
                    _ => a.to_bits() == b.to_bits(),
                };
                if !ok {
                    return Err(format!(
                        "{name}: rank {r} value {i} restored as {b}, original {a} (bound {eb:?})"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Per-layer figures of one traced `OverlapReorder` step, measured by
/// replaying each layer's public functions on the step's inputs.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Serial `compress_into` time of the slowest rank, seconds.
    pub compress_s: f64,
    /// Serial `compress_into` time of every partition, seconds.
    pub compress_all_s: f64,
    /// Serial `decompress_into` time of every partition, seconds.
    pub decompress_s: f64,
    /// `estimate_partition` time of the slowest rank, seconds.
    pub predict_s: f64,
    /// Mean |Eq. 1 predicted − replayed| / replayed compress time.
    pub comp_time_err: f64,
    /// `WritePlan::build_reserved` + every rank's `optimize_order`.
    pub plan_s: f64,
    /// Largest per-rank `queue_time` saving of `optimize_order` over
    /// the identity order, on predicted times, seconds.
    pub reorder_gain_s: f64,
    /// One `World::run` all-gathering the step's reservation triples.
    pub allgather_s: f64,
    /// Raw bytes of the step.
    pub raw_bytes: u64,
}

/// Replay every layer the engine ran for one `OverlapReorder` step.
/// The replayed compressed size of every partition must equal the
/// engine's; a mismatch is an error.
pub fn replay(
    prep: &Prepared,
    data: &StepData,
    obs_in: &RunObservations,
    step: u64,
) -> Result<Replay, String> {
    let mut out = Replay::default();
    let nfields = data[0].len();
    let mut scratch = Scratch::new();
    let mut dscratch = DecompressScratch::new();
    let mut stream = Vec::new();
    let mut decoded: Vec<f32> = Vec::new();
    let mut n_parts = 0usize;
    let mut comp_err = 0.0;
    for (r, rank) in data.iter().enumerate() {
        let (mut rank_predict, mut rank_compress) = (0.0, 0.0);
        let (mut pc, mut pw) = (Vec::new(), Vec::new());
        for (f, part) in rank.iter().enumerate() {
            let cfg = &prep.configs[f];
            let t = Instant::now();
            let span = obs::span_arg("ratiomodel.estimate_partition", step);
            let est = ratiomodel::estimate_partition(&part.data, &part.dims, cfg, &prep.models)
                .map_err(|e| format!("estimate: {e}"))?;
            drop(span);
            rank_predict += t.elapsed().as_secs_f64();
            pc.push(est.comp_time);
            pw.push(est.write_time);

            let t = Instant::now();
            let span = obs::span_arg("szlite.compress_into", step);
            compress_into(&part.data, &part.dims, cfg, &mut scratch, &mut stream)
                .map_err(|e| format!("compress: {e}"))?;
            drop(span);
            let secs = t.elapsed().as_secs_f64();
            rank_compress += secs;
            comp_err += (est.comp_time - secs).abs() / secs.max(1e-12);
            n_parts += 1;
            let engine_bytes = obs_in[r][f].actual;
            if stream.len() as u64 != engine_bytes {
                return Err(format!(
                    "{}: rank {r} replayed {} compressed bytes, engine wrote {engine_bytes}",
                    part.name,
                    stream.len()
                ));
            }

            let t = Instant::now();
            let span = obs::span_arg("szlite.decompress_into", step);
            decompress_into(&stream, &mut dscratch, &mut decoded)
                .map_err(|e| format!("decompress: {e}"))?;
            drop(span);
            out.decompress_s += t.elapsed().as_secs_f64();
            out.raw_bytes += (part.data.len() * 4) as u64;
        }
        out.predict_s = out.predict_s.max(rank_predict);
        out.compress_s = out.compress_s.max(rank_compress);
        out.compress_all_s += rank_compress;

        let t = Instant::now();
        let span = obs::span_arg("predwrite.optimize_order", step);
        let order = optimize_order(&pc, &pw);
        drop(span);
        out.plan_s += t.elapsed().as_secs_f64();
        let gain = queue_time(&identity_order(nfields), &pc, &pw) - queue_time(&order, &pc, &pw);
        out.reorder_gain_s = out.reorder_gain_s.max(gain);
    }
    out.comp_time_err = comp_err / n_parts.max(1) as f64;

    // The layout every rank derives from the gathered reservations.
    let (preds, reserves): (Vec<Vec<PartitionPrediction>>, Vec<Vec<u64>>) = obs_in
        .iter()
        .zip(data)
        .map(|(row, rank)| {
            row.iter()
                .zip(rank)
                .map(|(o, part)| {
                    let raw = (part.data.len() * 4) as f64;
                    let p = PartitionPrediction {
                        bytes: o.predicted,
                        ratio: raw / o.predicted.max(1) as f64,
                    };
                    (p, o.reserved)
                })
                .unzip()
        })
        .unzip();
    let t = Instant::now();
    let span = obs::span_arg("predwrite.build_reserved", step);
    let plan = WritePlan::build_reserved(&preds, &reserves, 0);
    drop(span);
    out.plan_s += t.elapsed().as_secs_f64();
    let reserved: u64 = reserves.iter().flatten().sum();
    if plan.reserved_total() != reserved {
        return Err(format!(
            "replayed layout reserves {} bytes, engine {reserved}",
            plan.reserved_total()
        ));
    }

    let triples: Vec<Vec<(u64, f64, f64)>> = preds
        .iter()
        .map(|row| row.iter().map(|p| (p.bytes, p.ratio, -1.0)).collect())
        .collect();
    let t = Instant::now();
    let span = obs::span_arg("commsim.run", step);
    let gathered = commsim::World::new(NRANKS).run(|rk| {
        let _span = obs::span_arg("commsim.try_all_gather", step);
        rk.try_all_gather(triples[rk.rank()].clone())
            .map(|all| all.len())
    });
    drop(span);
    out.allgather_s = t.elapsed().as_secs_f64();
    if gathered.iter().any(|g| g.as_ref().ok() != Some(&NRANKS)) {
        return Err("replayed all-gather lost a rank".into());
    }
    Ok(out)
}
