//! The three checkpoint-stream workloads and their set-up.
//!
//! Each workload is chosen to put a different layer on the critical
//! path of an `OverlapReorder` checkpoint step (see `README.md` for the
//! full rationale and the metric each layer should move):
//!
//! * `nyx-io` — I/O-bound: the throttled file system, the async write
//!   queue and overflow handling carry the step; compression hides
//!   behind the write.
//! * `vpic-cpu` — compute-bound: szlite compression and ratio-model
//!   sampling carry the step while the file system idles.
//! * `rtm-adaptive` — small steps with one field, driven through the
//!   timeline crate's online predictor: fixed per-step costs and the
//!   adaptive headroom decide the result; Algorithm 1 has nothing to
//!   reorder.

use pfsim::BandwidthModel;
use predwrite::RankFieldData;
use ratiomodel::{calibrate, paper_bound_sweep, LosslessGain, Models, WriteTimeModel};
use std::time::Instant;
use szlite::{compress_with_stats, Config, Dims};
use timeline::{partition_1d, partition_3d};
use workloads::{Dataset, SnapshotStream};

/// Rank threads of every engine call.
pub const NRANKS: usize = 2;
/// Compression workers per rank (`RealConfig::sz_threads`), set
/// explicitly so `SZ_THREADS` can never change it.
pub const SZ_THREADS: usize = 1;
/// Async writer threads per rank (`EventSet::from_env` default).
pub const ES_WORKERS: usize = 1;

/// `data[rank][field]` of one checkpoint step.
pub type StepData = Vec<Vec<RankFieldData>>;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Nyx 64³, six fields, 1% throttle.
    NyxIo,
    /// VPIC 2^18 particles, eight fields, unthrottled test model.
    VpicCpu,
    /// RTM 64³, one field, 1% throttle, online predictor.
    RtmAdaptive,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::NyxIo, Workload::VpicCpu, Workload::RtmAdaptive];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NyxIo => "nyx-io",
            Workload::VpicCpu => "vpic-cpu",
            Workload::RtmAdaptive => "rtm-adaptive",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The full-size specification the benchmark runs.
    pub fn spec(self) -> Spec {
        match self {
            Workload::NyxIo => Spec {
                workload: self,
                stream: SnapshotStream::nyx(64),
                // Densities compress hardest, velocities least; the
                // spread gives Algorithm 1 fields to reorder.
                bits: vec![0.8, 0.5, 2.0, 3.2, 3.2, 3.2],
                throttle_scale: 0.01,
                distinct_snapshots: 4,
                min_steps: 100,
                filter_every: 5,
                nocomp_every: 33,
            },
            Workload::VpicCpu => Spec {
                workload: self,
                stream: SnapshotStream::vpic(1 << 18),
                // Positions and weights compress far better than
                // momenta and energy.
                bits: vec![0.8, 1.2, 0.8, 3.6, 3.6, 3.6, 2.8, 0.4],
                throttle_scale: 1.0,
                distinct_snapshots: 4,
                min_steps: 100,
                filter_every: 3,
                nocomp_every: 5,
            },
            Workload::RtmAdaptive => Spec {
                workload: self,
                stream: SnapshotStream::rtm(64),
                bits: vec![2.0],
                // At 1% the write outlasts compression, so the step stays
                // write-bound and steady on a shared host. At 2% its p90
                // moved by a quarter between runs on a shared 2-vCPU host.
                throttle_scale: 0.01,
                distinct_snapshots: 0,
                min_steps: 100,
                filter_every: 3,
                nocomp_every: 5,
            },
        }
    }
}

/// Sizes and knobs of one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Which workload this is.
    pub workload: Workload,
    /// Snapshot generator (its seed is replaced by the run's seed).
    pub stream: SnapshotStream,
    /// Target compressed bits/value per field; each field's absolute
    /// bound is bisected on the first snapshot to land there.
    pub bits: Vec<f64>,
    /// Share of `BandwidthModel::tiny_for_tests`' 400 MB/s aggregate.
    pub throttle_scale: f64,
    /// Static workloads pre-generate this many snapshots in set-up,
    /// each the first step of an independent stream seeded from the
    /// run's seed, and cycle through them. Consecutive steps of one
    /// stream are nearly alike, so independent streams average the
    /// seed-to-seed spread of the ratio model's bias. 0 generates
    /// every step of one stream in the loop instead (the adaptive
    /// stream must evolve step by step).
    pub distinct_snapshots: usize,
    /// `OverlapReorder` steps every run makes at least (p90 then has
    /// ten samples beyond it).
    pub min_steps: usize,
    /// A `FilterCollective` baseline step follows every this many
    /// `OverlapReorder` steps (on the same data).
    pub filter_every: usize,
    /// A `NoCompression` baseline step follows every this many
    /// `OverlapReorder` steps.
    pub nocomp_every: usize,
}

impl Spec {
    /// Whether the online predictor drives this workload.
    pub fn adaptive(&self) -> bool {
        self.distinct_snapshots == 0
    }

    /// Aggregate throttle rate, bytes/s.
    pub fn throttle_rate(&self) -> f64 {
        BandwidthModel::tiny_for_tests().aggregate_cap * self.throttle_scale
    }
}

/// A workload after set-up: inputs, per-field bounds and host-fitted
/// models.
pub struct Prepared {
    /// The specification.
    pub spec: Spec,
    /// The seeded stream.
    pub stream: SnapshotStream,
    /// Pre-generated snapshots (step 0 only, for adaptive streams).
    pub snapshots: Vec<StepData>,
    /// One absolute-bound config per field.
    pub configs: Vec<Config>,
    /// Eq. 1 fitted on this host, Eq. 2 at the per-rank throttle share.
    pub models: Models,
    /// Wall time of each snapshot generation, seconds.
    pub gen_secs: Vec<f64>,
}

impl Prepared {
    /// Generate and partition stream step `step`, returning the data
    /// and the generation time.
    pub fn generate(&self, step: usize) -> (StepData, f64) {
        let t = Instant::now();
        let ds = self.stream.snapshot(step);
        let secs = t.elapsed().as_secs_f64();
        (partition(&self.stream, &ds), secs)
    }
}

fn partition(stream: &SnapshotStream, ds: &Dataset) -> StepData {
    if stream.is_particle() {
        partition_1d(ds, NRANKS)
    } else {
        partition_3d(ds, NRANKS)
    }
}

fn full_dims(stream: &SnapshotStream, len: usize) -> Dims {
    if stream.is_particle() {
        Dims::d1(len)
    } else {
        Dims::d3(stream.size, stream.size, stream.size)
    }
}

/// Value-range-relative bound giving about `target_bits` bits/value on
/// `data`, by bisection in log space (the paper states bit-rates, not
/// bounds). Twelve halvings of the 1e-9…0.5 bracket resolve the bound
/// to about 0.5%; set-up is timed, so this stops well before the 18
/// halvings of `bench::setup::eb_for_bitrate`.
fn rel_bound_for_bits(data: &[f32], dims: &Dims, target_bits: f64) -> Result<f64, String> {
    let (mut lo, mut hi) = (1e-9f64.ln(), 0.5f64.ln());
    for _ in 0..12 {
        let mid = 0.5 * (lo + hi);
        let (_, st) = compress_with_stats(data, dims, &Config::rel(mid.exp()))
            .map_err(|e| format!("bound calibration: {e}"))?;
        if st.bit_rate() > target_bits {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok((0.5 * (lo + hi)).exp())
}

/// Set up a workload: generate its inputs from `seed`, fix each
/// field's absolute bound, and fit the models on this host (paper
/// §IV: Eq. 1 by calibration, Eq. 2 from the stable per-rank write
/// throughput).
pub fn setup(spec: &Spec, seed: u64) -> Result<Prepared, String> {
    let stream = spec.stream.seed(seed);
    let n_pre = spec.distinct_snapshots.max(1);
    let mut snapshots = Vec::with_capacity(n_pre);
    let mut gen_secs = Vec::with_capacity(n_pre);
    let mut first: Option<Dataset> = None;
    for j in 0..n_pre {
        // Snapshot j is step 0 of its own stream; j = 0 is `stream`.
        let stream_j = stream.seed(seed ^ (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let t = Instant::now();
        let ds = stream_j.snapshot(0);
        gen_secs.push(t.elapsed().as_secs_f64());
        snapshots.push(partition(&stream, &ds));
        first.get_or_insert(ds);
    }
    let ds = first.ok_or("no snapshot generated")?;
    if ds.fields.len() != spec.bits.len() {
        return Err(format!(
            "{} fields but {} bit targets",
            ds.fields.len(),
            spec.bits.len()
        ));
    }
    let mut configs = Vec::with_capacity(ds.fields.len());
    for (f, &bits) in ds.fields.iter().zip(&spec.bits) {
        let dims = full_dims(&stream, f.data.len());
        let (mn, mx) = f
            .data
            .iter()
            .fold((f32::MAX, f32::MIN), |(a, b), &v| (a.min(v), b.max(v)));
        let rel = rel_bound_for_bits(&f.data, &dims, bits)?;
        configs.push(Config::abs((rel * f64::from(mx - mn)).max(1e-30)));
    }
    let f0 = &ds.fields[0];
    let (throughput, _) = calibrate(
        &f0.data,
        &full_dims(&stream, f0.data.len()),
        &paper_bound_sweep(),
    );
    let models = Models {
        throughput,
        write: WriteTimeModel::new(spec.throttle_rate() / NRANKS as f64),
        gain: LosslessGain::default(),
        sample_fraction: 0.05,
    };
    Ok(Prepared {
        spec: spec.clone(),
        stream,
        snapshots,
        configs,
        models,
        gen_secs,
    })
}
