//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` at the repository root declares the same names and
//! units; the package's tests keep the two in step.

use std::fmt::Write as _;

/// Which run reports a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Untraced run (`--trace 0`): what a user of the system sees.
    EndToEnd,
    /// Traced run (`--trace 1`): one layer's share of the step.
    PerLayer,
}

/// One catalogue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which run reports it.
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        kind: Kind::EndToEnd,
    }
}

const fn layer(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        kind: Kind::PerLayer,
    }
}

/// Every metric the benchmark reports.
pub const CATALOGUE: &[MetricDef] = &[
    e2e("ckpt_s.p50", "s"),
    e2e("ckpt_s.p90", "s"),
    e2e("ckpt_mbps", "MB/s"),
    e2e("restart_s.p50", "s"),
    e2e("filter_ckpt_s.p50", "s"),
    e2e("nocomp_ckpt_s.p50", "s"),
    e2e("eff_ratio", "ratio"),
    e2e("storage_overhead", "frac"),
    e2e("ok_frac", "frac"),
    e2e("setup_s", "s"),
    e2e("peak_rss_mb", "MB"),
    layer("szlite.compress_s", "s"),
    layer("szlite.compress_mbps", "MB/s"),
    layer("szlite.decompress_s", "s"),
    layer("szlite.decompress_mbps", "MB/s"),
    layer("szlite.bits_per_value", "bits/value"),
    layer("ratiomodel.predict_s", "s"),
    layer("ratiomodel.size_err", "frac"),
    layer("ratiomodel.under_frac", "frac"),
    layer("ratiomodel.comp_time_err", "frac"),
    layer("predwrite.phase.predict_s", "s"),
    layer("predwrite.phase.allgather_s", "s"),
    layer("predwrite.phase.compress_s", "s"),
    layer("predwrite.phase.write_s", "s"),
    layer("predwrite.phase.overflow_s", "s"),
    layer("predwrite.plan_s", "s"),
    layer("predwrite.reorder_gain_s", "s"),
    layer("predwrite.reserved_bytes", "bytes"),
    layer("predwrite.waste_bytes", "bytes"),
    layer("predwrite.overflow_bytes", "bytes"),
    layer("predwrite.overflow_parts", "count"),
    layer("predwrite.fit_frac", "frac"),
    layer("commsim.allgather_s", "s"),
    layer("commsim.barrier_wait_s", "s"),
    layer("commsim.wire_bytes", "bytes"),
    layer("pfsim.bw_util", "frac"),
    layer("pfsim.bytes_written", "bytes"),
    layer("h5lite.read_self_s", "s"),
    layer("h5lite.queue_depth_max", "count"),
    layer("h5lite.meta_bytes", "bytes"),
    layer("timeline.observe_s", "s"),
    layer("timeline.headroom", "ratio"),
    layer("workloads.gen_s", "s"),
    layer("trace.overhead", "frac"),
    layer("host.spin_speedup", "ratio"),
    layer("host.compress_mbps_before", "MB/s"),
    layer("host.compress_mbps_after", "MB/s"),
];

/// Look a metric up by name.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    CATALOGUE.iter().find(|d| d.name == name)
}

/// Whether `s` is a valid metric name: 1–64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`
/// with every catalogue metric of `kind`, each with its unit. Metrics
/// missing from `values` are an error, as are non-finite values.
pub fn result_line(
    kind: Kind,
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &[(&'static str, f64)],
) -> Result<String, String> {
    let mut m = String::new();
    for d in CATALOGUE.iter().filter(|d| d.kind == kind) {
        let v = values
            .iter()
            .find(|(n, _)| *n == d.name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite ({v})", d.name));
        }
        if !m.is_empty() {
            m.push_str(", ");
        }
        let _ = write!(
            m,
            "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            d.name, d.unit
        );
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{m}}}}}"
    ))
}
