//! Per-step and per-run accounting of a timeline stream.

use obs::StepFlight;
use predwrite::{step_record, RunObservations, RunResult};

/// One step's report row: the engine result's fields plus the
/// reservation accounting of the step's per-partition observations.
/// The engine adds the host, queue, wire and fault figures.
pub(crate) fn step_row(
    step: usize,
    result: &RunResult,
    observed: &RunObservations,
    mean_rel_err: f64,
) -> StepFlight {
    let mut row = StepFlight {
        mean_rel_err,
        ..step_record(step, result)
    };
    for o in observed.iter().flatten() {
        row.reserved_bytes += o.reserved;
        // Bytes of the reservation the partition did not fill (an
        // overflowing partition fills it exactly).
        row.waste_bytes += o.reserved.saturating_sub(o.actual - o.overflow);
        row.predicted_bytes += o.predicted;
    }
    row
}

/// Aggregate outcome of one timeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineReport {
    /// [`crate::AdaptMode`] label the run used.
    pub mode: String,
    /// One row per streamed step, in step order; with
    /// [`crate::TimelineConfig::keep_files`] each row is also the
    /// step's flight record. Sum them with [`obs::StepTotals`].
    pub steps: Vec<StepFlight>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::StepTotals;
    use predwrite::{Breakdown, FieldObservation, Method};

    fn result(n_overflow: usize, overflow_bytes: u64, file_bytes: u64) -> RunResult {
        RunResult {
            method: Method::Overlap,
            total_time: 1.0,
            breakdown: Breakdown::default(),
            raw_bytes: 4000,
            compressed_bytes: 1000,
            file_bytes,
            n_overflow,
            overflow_bytes,
        }
    }

    #[test]
    fn waste_counts_unused_reservation_only() {
        let obs: RunObservations = vec![vec![
            // Fits with 50 spare.
            FieldObservation {
                predicted: 100,
                model_bytes: 100,
                reserved: 150,
                actual: 100,
                overflow: 0,
            },
            // Overflows: slot filled exactly, zero waste.
            FieldObservation {
                predicted: 100,
                model_bytes: 100,
                reserved: 120,
                actual: 200,
                overflow: 80,
            },
        ]];
        let m = step_row(0, &result(1, 80, 500), &obs, 0.25);
        assert_eq!(m.reserved_bytes, 270);
        assert_eq!(m.waste_bytes, 50);
        assert_eq!(m.predicted_bytes, 200);
        assert_eq!(m.actual_bytes, 1000);
        assert_eq!((m.overflow_parts, m.overflow_bytes), (1, 80));
        assert_eq!(m.mean_rel_err, 0.25);
    }

    #[test]
    fn report_totals_sum_over_steps() {
        let obs: RunObservations = vec![vec![FieldObservation {
            predicted: 100,
            model_bytes: 100,
            reserved: 130,
            actual: 100,
            overflow: 0,
        }]];
        let steps = [
            step_row(0, &result(0, 0, 400), &obs, 0.0),
            step_row(1, &result(2, 60, 450), &obs, 0.0),
        ];
        let t = StepTotals::of(&steps);
        assert_eq!(t.reserved_bytes, 260);
        assert_eq!(t.waste_bytes, 60);
        assert_eq!(t.actual_bytes, 2000);
        assert_eq!(t.overflow_parts, 2);
        assert_eq!(t.overflow_bytes, 60);
        assert_eq!(t.file_bytes, 850);
        assert!((t.total_secs - 2.0).abs() < 1e-12);
    }
}
