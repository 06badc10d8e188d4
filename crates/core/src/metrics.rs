//! Result records shared by the real and simulated engines.

/// The four parallel-write methods of the paper's Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// (1) Independent write, no compression (the paper's first
    /// baseline; independent beats collective for raw data, §IV-D).
    NoCompression,
    /// (2) Compression filter + collective write (H5Z-SZ baseline).
    FilterCollective,
    /// (3) Predictive overlap of compression and independent async
    /// write, original field order.
    Overlap,
    /// (4) Overlap + compression-order optimization (Algorithm 1).
    OverlapReorder,
}

impl Method {
    /// All methods, in the paper's presentation order.
    pub const ALL: [Method; 4] = [
        Method::NoCompression,
        Method::FilterCollective,
        Method::Overlap,
        Method::OverlapReorder,
    ];

    /// Short label used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            Method::NoCompression => "no-compression",
            Method::FilterCollective => "filter+collective",
            Method::Overlap => "overlapping",
            Method::OverlapReorder => "overlap+reorder",
        }
    }
}

/// Per-phase time breakdown (the stacked bars of Fig. 16/17).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Breakdown {
    /// Ratio/throughput prediction (sampling) time.
    pub predict: f64,
    /// All-gather communication time (prediction + overflow rounds).
    pub allgather: f64,
    /// Compression time (max over ranks of the serial compute span).
    pub compress: f64,
    /// Write time. For overlapped methods this is the *extra* write
    /// time after the last compression finished (the paper's gray
    /// bar); for baselines it is the full write phase.
    pub write: f64,
    /// Overflow handling time (gather + redirected writes).
    pub overflow: f64,
    /// Read-back verification time (re-open, pipelined decode, bound
    /// check); zero unless the run enables verification.
    pub verify: f64,
}

impl Breakdown {
    /// Sum of all phases.
    pub fn total(&self) -> f64 {
        self.predict + self.allgather + self.compress + self.write + self.overflow + self.verify
    }
}

/// Outcome of one parallel-write run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunResult {
    /// Which method ran.
    pub method: Method,
    /// End-to-end time (slowest rank), seconds.
    pub total_time: f64,
    /// Phase breakdown.
    pub breakdown: Breakdown,
    /// Uncompressed bytes across all partitions.
    pub raw_bytes: u64,
    /// Actual compressed bytes (= raw for no-compression).
    pub compressed_bytes: u64,
    /// Bytes occupied in the shared file (reserved + overflow).
    pub file_bytes: u64,
    /// Partitions that overflowed their reservation.
    pub n_overflow: usize,
    /// Total overflow bytes redirected.
    pub overflow_bytes: u64,
}

impl RunResult {
    /// Effective compression ratio including extra-space waste
    /// (the paper's "actual compression ratio", e.g. 14.13× vs the
    /// ideal 17.94× in Fig. 16).
    pub fn effective_ratio(&self) -> f64 {
        self.raw_bytes as f64 / self.file_bytes.max(1) as f64
    }

    /// Ideal compression ratio (no extra space).
    pub fn ideal_ratio(&self) -> f64 {
        self.raw_bytes as f64 / self.compressed_bytes.max(1) as f64
    }

    /// Storage overhead relative to the ideal compressed size.
    pub fn storage_overhead(&self) -> f64 {
        self.file_bytes as f64 / self.compressed_bytes.max(1) as f64 - 1.0
    }

    /// Storage overhead relative to the *original* data (the paper's
    /// headline "1.5 % of original data" framing).
    pub fn storage_overhead_vs_original(&self) -> f64 {
        (self.file_bytes.saturating_sub(self.compressed_bytes)) as f64
            / self.raw_bytes.max(1) as f64
    }

    /// Speedup of this run over another (other / self).
    pub fn speedup_over(&self, other: &RunResult) -> f64 {
        other.total_time / self.total_time
    }
}

/// Mean relative size-prediction error `|predicted − actual| / actual`
/// over `(predicted, actual)` partition pairs, skipping empty
/// partitions (0 when there are none).
pub fn mean_rel_err(pairs: impl IntoIterator<Item = (u64, u64)>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for (predicted, actual) in pairs.into_iter().filter(|&(_, a)| a > 0) {
        sum += (predicted as f64 - actual as f64).abs() / actual as f64;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The fields of step `step`'s record that the engine result decides:
/// raw, actual, file and overflow bytes, overflow parts and the phase
/// times. Both the real timeline and the simulated stream start their
/// rows here and fill in what only they know.
pub fn step_record(step: usize, r: &RunResult) -> obs::StepFlight {
    obs::StepFlight {
        step,
        actual_bytes: r.compressed_bytes,
        overflow_bytes: r.overflow_bytes,
        overflow_parts: r.n_overflow as u64,
        raw_bytes: r.raw_bytes,
        file_bytes: r.file_bytes,
        predict_secs: r.breakdown.predict,
        planner_secs: r.breakdown.allgather,
        compress_secs: r.breakdown.compress,
        write_secs: r.breakdown.write,
        overflow_secs: r.breakdown.overflow,
        verify_secs: r.breakdown.verify,
        total_secs: r.total_time,
        ..obs::StepFlight::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rr(total: f64, raw: u64, comp: u64, file: u64) -> RunResult {
        RunResult {
            method: Method::Overlap,
            total_time: total,
            breakdown: Breakdown::default(),
            raw_bytes: raw,
            compressed_bytes: comp,
            file_bytes: file,
            n_overflow: 0,
            overflow_bytes: 0,
        }
    }

    #[test]
    fn ratios() {
        let r = rr(1.0, 1600, 100, 125);
        assert!((r.ideal_ratio() - 16.0).abs() < 1e-12);
        assert!((r.effective_ratio() - 12.8).abs() < 1e-12);
        assert!((r.storage_overhead() - 0.25).abs() < 1e-12);
        assert!((r.storage_overhead_vs_original() - 25.0 / 1600.0).abs() < 1e-12);
    }

    #[test]
    fn speedup() {
        let fast = rr(1.0, 100, 100, 100);
        let slow = rr(4.0, 100, 100, 100);
        assert!((fast.speedup_over(&slow) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn breakdown_total() {
        let b = Breakdown {
            predict: 1.0,
            allgather: 2.0,
            compress: 3.0,
            write: 4.0,
            overflow: 5.0,
            verify: 6.0,
        };
        assert_eq!(b.total(), 21.0);
    }

    #[test]
    fn labels_unique() {
        let labels: std::collections::HashSet<_> = Method::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), 4);
    }
}
