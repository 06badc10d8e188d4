//! Per-step JSONL flight recorder.
//!
//! The timeline engine writes one `step-NNNN.obs.jsonl` beside each
//! step's `.pred` sidecar: a single JSON object per line recording
//! where that step's bytes and time went (reservation/waste/overflow,
//! collective wire bytes, planner wall-clock, queue depth, fault
//! retries, stage timings). The file is written *during* the run, so
//! after a crash the newest readable record says what the dying run
//! was doing — `resume_timeline` and `scrub --json` surface it.
//! The record is also the step row of the engines' reports, so a
//! flight line read back equals the report row it was written from.
//!
//! Reading is deliberately forgiving: a torn or garbage line (the
//! recorder does not rename-atomically — it is the flight recorder,
//! not the black box data itself) is reported as a typed
//! [`FlightError`], never a panic, and surrounding records survive.

use std::fmt::{self, Write as _};
use std::io;
use std::path::{Path, PathBuf};

use crate::json::{self, Json};

/// Extension of flight-recorder files (`step-0000.h5l` →
/// `step-0000.obs.jsonl`).
pub const FLIGHT_EXT: &str = "obs.jsonl";

/// Flight-recorder path for a step container path.
pub fn flight_path(container: &Path) -> PathBuf {
    container.with_extension(FLIGHT_EXT)
}

/// One value type of a [`StepFlight`] field: it prints with `Display`
/// and decodes from a finite JSON number.
trait FlightValue: Sized + fmt::Display {
    /// The field value `x` encodes, if it is one.
    fn from_num(x: f64) -> Option<Self>;

    /// Append the value's JSON text to `out`.
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
}

impl FlightValue for u64 {
    // Integers must be exact: integral and at most 2^53, the largest
    // integer every JSON reader decodes without rounding.
    fn from_num(x: f64) -> Option<u64> {
        (x >= 0.0 && x.fract() == 0.0 && x <= 9_007_199_254_740_992.0).then_some(x as u64)
    }
}

impl FlightValue for usize {
    fn from_num(x: f64) -> Option<usize> {
        u64::from_num(x)?.try_into().ok()
    }
}

impl FlightValue for f64 {
    fn from_num(x: f64) -> Option<f64> {
        Some(x)
    }

    // f64 Display writes bare `inf`/`NaN`, which the strict parser
    // (and JSON itself) rejects; clamp non-finite values to 0 so one
    // pathological timing can't poison the whole record. Finite values
    // print in shortest round-trip form, so `str::parse` reads back
    // the same bits.
    fn write_json(&self, out: &mut String) {
        let x = if self.is_finite() { *self } else { 0.0 };
        let _ = write!(out, "{x}");
    }
}

/// Decode field `key` of a flight line.
fn read_field<T: FlightValue>(v: &Json, key: &str) -> Result<T, String> {
    let x = v.num(key).ok_or_else(|| format!("missing field {key}"))?;
    if !x.is_finite() {
        return Err(format!("non-finite field {key}"));
    }
    T::from_num(x).ok_or_else(|| format!("field {key} = {x} is not an integer in 0..=2^53"))
}

/// Declares [`StepFlight`] from one field table: the struct, its JSON
/// writer and its reader all walk the same list, so the on-disk key
/// order is the declaration order.
macro_rules! step_flight {
    ($($(#[$doc:meta])* $name:ident: $ty:ty,)*) => {
        /// One checkpoint step's record: the row of a timeline or
        /// simulated-stream report and, verbatim, the line the flight
        /// recorder writes beside the step's container. Byte and
        /// second fields come from the engine's result; the wire and
        /// queue fields are per-step deltas of the global obs metrics,
        /// and the fault fields are deltas of the step's own injector.
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct StepFlight {
            $($(#[$doc])* pub $name: $ty,)*
        }

        impl StepFlight {
            /// Serialize as one JSON line (no trailing newline).
            pub fn to_json_line(&self) -> String {
                let mut out = String::from("{\"kind\": \"step\"");
                $(
                    out.push_str(concat!(", \"", stringify!($name), "\": "));
                    self.$name.write_json(&mut out);
                )*
                out.push('}');
                out
            }

            /// Decode from a parsed JSON object; every field is
            /// required, numeric and finite, and integer fields are
            /// integral and at most 2^53.
            pub fn from_json(v: &Json) -> Result<StepFlight, String> {
                if v.str_of("kind") != Some("step") {
                    return Err("not a step record (kind != \"step\")".into());
                }
                Ok(StepFlight {
                    $($name: read_field(v, stringify!($name))?,)*
                })
            }
        }
    };
}

step_flight! {
    /// Step index within the stream.
    step: usize,
    /// Bytes reserved for compressed output this step.
    reserved_bytes: u64,
    /// Reserved bytes left unused (extra-space waste).
    waste_bytes: u64,
    /// Model-predicted compressed bytes.
    predicted_bytes: u64,
    /// Actual compressed bytes produced.
    actual_bytes: u64,
    /// Bytes redirected to the overflow region.
    overflow_bytes: u64,
    /// Partitions that overflowed their reservation.
    overflow_parts: u64,
    /// Uncompressed input bytes.
    raw_bytes: u64,
    /// Bytes occupied in the step's container file.
    file_bytes: u64,
    /// Reservation-collective wire bytes this step (obs counter delta).
    collective_wire_bytes: u64,
    /// Prediction/sampling phase, seconds.
    predict_secs: f64,
    /// Reservation planner (all-gather) phase, seconds.
    planner_secs: f64,
    /// Compression phase, seconds.
    compress_secs: f64,
    /// Write phase (post-compression remainder for overlap), seconds.
    write_secs: f64,
    /// Overflow handling phase, seconds.
    overflow_secs: f64,
    /// Read-back verification phase, seconds (0 when disabled).
    verify_secs: f64,
    /// End-to-end step time (slowest rank), seconds.
    total_secs: f64,
    /// High-water async write-queue depth during the step.
    queue_depth_max: u64,
    /// Retries after injected faults this step (step injector delta).
    retries: u64,
    /// Injected transient-EIO count this step (step injector delta).
    transient_faults: u64,
    /// Bounded-retry escalations this step (step injector delta).
    escalations: u64,
    /// Mean relative ratio-model error after this step.
    mean_rel_err: f64,
    /// `std::thread::available_parallelism` of the recording host.
    host_parallelism: u64,
}

/// Per-run sums over step records: the one definition of a run's
/// totals, shared by the real timeline and the simulated stream.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StepTotals {
    /// Sum of [`StepFlight::reserved_bytes`].
    pub reserved_bytes: u64,
    /// Sum of [`StepFlight::waste_bytes`].
    pub waste_bytes: u64,
    /// Sum of [`StepFlight::actual_bytes`].
    pub actual_bytes: u64,
    /// Sum of [`StepFlight::file_bytes`].
    pub file_bytes: u64,
    /// Sum of [`StepFlight::overflow_bytes`].
    pub overflow_bytes: u64,
    /// Sum of [`StepFlight::overflow_parts`].
    pub overflow_parts: u64,
    /// Sum of [`StepFlight::total_secs`].
    pub total_secs: f64,
}

impl StepTotals {
    /// Sum `steps`.
    pub fn of(steps: &[StepFlight]) -> StepTotals {
        let mut t = StepTotals::default();
        for s in steps {
            t.reserved_bytes += s.reserved_bytes;
            t.waste_bytes += s.waste_bytes;
            t.actual_bytes += s.actual_bytes;
            t.file_bytes += s.file_bytes;
            t.overflow_bytes += s.overflow_bytes;
            t.overflow_parts += s.overflow_parts;
            t.total_secs += s.total_secs;
        }
        t
    }
}

/// Why a flight-recorder line or file could not be read.
#[derive(Debug)]
pub enum FlightError {
    /// The file itself could not be opened or read.
    Io(io::Error),
    /// One line failed to parse or decode; other lines are unaffected.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// Parser or schema failure description.
        reason: String,
    },
}

impl fmt::Display for FlightError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlightError::Io(e) => write!(f, "flight recorder I/O: {e}"),
            FlightError::BadLine { line, reason } => {
                write!(f, "flight recorder line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for FlightError {}

impl From<io::Error> for FlightError {
    fn from(e: io::Error) -> Self {
        FlightError::Io(e)
    }
}

/// Result of scanning one flight-recorder file: the records that
/// decoded, plus a typed error per line that did not.
#[derive(Debug, Default)]
pub struct FlightScan {
    /// Successfully decoded records, file order.
    pub records: Vec<StepFlight>,
    /// Per-line failures (truncated tail, garbage, wrong schema).
    pub errors: Vec<FlightError>,
}

/// Write (truncate) `path` with a single step record.
pub fn write_step(path: &Path, rec: &StepFlight) -> io::Result<()> {
    std::fs::write(path, format!("{}\n", rec.to_json_line()))
}

/// Read a flight-recorder file, skipping unreadable lines with typed
/// errors. Only a file-level I/O failure is an `Err`.
pub fn read_flight(path: &Path) -> Result<FlightScan, FlightError> {
    let text = std::fs::read_to_string(path)?;
    let mut scan = FlightScan::default();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match json::parse(line).and_then(|v| StepFlight::from_json(&v)) {
            Ok(rec) => scan.records.push(rec),
            Err(reason) => scan.errors.push(FlightError::BadLine {
                line: i + 1,
                reason,
            }),
        }
    }
    Ok(scan)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A line as the recorder wrote it before the field table existed:
    /// the on-disk format is pinned, key for key and digit for digit.
    const PINNED_LINE: &str = "{\"kind\": \"step\", \"step\": 0, \"reserved_bytes\": 12106, \
        \"waste_bytes\": 3864, \"predicted_bytes\": 9680, \"actual_bytes\": 8242, \
        \"overflow_bytes\": 0, \"overflow_parts\": 0, \"raw_bytes\": 41472, \
        \"file_bytes\": 12939, \"collective_wire_bytes\": 576, \"predict_secs\": 0.000841494, \
        \"planner_secs\": 0.000226147, \"compress_secs\": 0.002406312, \
        \"write_secs\": 0.0017956310000000004, \"overflow_secs\": 0.000624252, \
        \"verify_secs\": 0.000499351, \"total_secs\": 0.004792964, \"queue_depth_max\": 10, \
        \"retries\": 0, \"transient_faults\": 0, \"escalations\": 0, \
        \"mean_rel_err\": 0.1674119969618382, \"host_parallelism\": 2}";

    fn decode(line: &str) -> Result<StepFlight, String> {
        StepFlight::from_json(&json::parse(line).unwrap())
    }

    #[test]
    fn record_round_trips_exactly() {
        // The pinned line decodes to its literal values and re-encodes
        // to itself (shortest round-trip f64 printing is injective, so
        // equal text means equal bits).
        let pinned = decode(PINNED_LINE).unwrap();
        assert_eq!((pinned.reserved_bytes, pinned.host_parallelism), (12106, 2));
        assert_eq!(pinned.write_secs, 0.0017956310000000004);
        assert_eq!(pinned.mean_rel_err, 0.1674119969618382);
        assert_eq!(pinned.to_json_line(), PINNED_LINE);
        // Fields the pinned line leaves at zero round-trip too.
        let rec = StepFlight {
            step: 7,
            overflow_bytes: 84,
            overflow_parts: 1,
            retries: 2,
            transient_faults: 1,
            escalations: 1,
            ..pinned
        };
        assert_eq!(decode(&rec.to_json_line()).unwrap(), rec);
    }

    #[test]
    fn integer_fields_must_be_integral_and_at_most_2_pow_53() {
        let with = |from: &str, to: &str| PINNED_LINE.replace(from, to);
        let max = decode(&with("\"retries\": 0,", "\"retries\": 9007199254740992,")).unwrap();
        assert_eq!(max.retries, 1 << 53);
        for bad in ["9007199254740994", "-1", "0.5"] {
            let line = with("\"retries\": 0,", &format!("\"retries\": {bad},"));
            assert!(decode(&line).unwrap_err().contains("retries"), "{bad}");
        }
    }

    #[test]
    fn flight_path_replaces_the_container_extension() {
        assert_eq!(
            flight_path(Path::new("/tmp/run/step-0042.h5l")),
            Path::new("/tmp/run/step-0042.obs.jsonl")
        );
    }

    #[test]
    fn garbage_and_truncated_lines_are_typed_errors_not_panics() {
        let dir = std::env::temp_dir().join("obs_flight_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mixed.obs.jsonl");
        let good = PINNED_LINE.replace("\"step\": 0,", "\"step\": 3,");
        let truncated = &good[..good.len() / 2];
        // Non-integral and out-of-range integers are bad lines too.
        let fraction = good.replace("\"step\": 3,", "\"step\": 2.7,");
        let huge = good.replace("\"raw_bytes\": 41472,", "\"raw_bytes\": 1e300,");
        let body = format!(
            "{good}\nnot json at all\n{truncated}\n{{\"kind\": \"other\"}}\n{fraction}\n{huge}\n"
        );
        std::fs::write(&path, body).unwrap();
        let scan = read_flight(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].step, 3);
        assert_eq!(scan.errors.len(), 5);
        for (e, line) in scan.errors.iter().zip(2..) {
            assert!(
                matches!(e, FlightError::BadLine { line: l, .. } if *l == line),
                "{e}"
            );
        }
        // Missing file: a single typed Io error, not a panic.
        assert!(matches!(
            read_flight(&dir.join("absent.obs.jsonl")),
            Err(FlightError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
