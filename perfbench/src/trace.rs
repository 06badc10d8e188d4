//! In-memory trace of a traced run: every `obs` span recorded during a
//! step is tagged with that step's id, kept in memory, and written as
//! one Chrome trace (open it in <https://ui.perfetto.dev>) at exit.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// One span with the step it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepSpan {
    /// Checkpoint step the span was recorded in.
    pub step: u64,
    /// The recorded span.
    pub event: obs::SpanEvent,
}

/// Spans of a run, in recording order.
#[derive(Debug, Default)]
pub struct TraceLog {
    /// Every collected span.
    pub spans: Vec<StepSpan>,
}

impl TraceLog {
    /// Collect every span recorded since the last call and tag it with
    /// `step`. Steps run one at a time and the engine joins every
    /// thread it starts before returning, so all of them belong to it.
    pub fn collect(&mut self, step: u64) {
        self.spans.extend(
            obs::trace::drain()
                .into_iter()
                .map(|event| StepSpan { step, event }),
        );
    }

    /// Self time per span name, seconds: each span's duration minus
    /// the part its direct children cover, summed over the run.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let children: u64 = self
                .spans
                .iter()
                .enumerate()
                .filter(|&(j, c)| j != i && is_child(s, c))
                .map(|(_, c)| c.event.dur_ns)
                .sum();
            *out.entry(s.event.name).or_insert(0.0) +=
                s.event.dur_ns.saturating_sub(children) as f64 * 1e-9;
        }
        out
    }

    /// Write the spans as Chrome trace-event JSON, with the step id in
    /// every event's `args`.
    pub fn write_chrome(&self, path: &Path) -> io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let e = &s.event;
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            write!(
                w,
                "  {{\"name\": \"{}\", \"cat\": \"perfbench\", \"ph\": \"X\", \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"pid\": 1, \"tid\": {}, \"args\": {{\"step\": {}, \"depth\": {}",
                obs::json::escape(e.name),
                e.start_ns as f64 / 1e3,
                e.dur_ns as f64 / 1e3,
                e.tid,
                s.step,
                e.depth
            )?;
            if let Some(a) = e.arg {
                write!(w, ", \"arg\": {a}")?;
            }
            writeln!(w, "}}}}{comma}")?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

/// Whether `c` is a direct child of `p`: same thread, one level
/// deeper, inside `p`'s interval.
fn is_child(p: &StepSpan, c: &StepSpan) -> bool {
    let (p, c) = (&p.event, &c.event);
    c.tid == p.tid
        && c.depth == p.depth + 1
        && c.start_ns >= p.start_ns
        && c.start_ns + c.dur_ns <= p.start_ns + p.dur_ns
}

/// One event of an exported Chrome trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeEvent {
    /// Span name.
    pub name: String,
    /// Thread id.
    pub tid: u64,
    /// Nesting depth on its thread.
    pub depth: u64,
    /// Step id.
    pub step: u64,
    /// Start, microseconds.
    pub ts: f64,
    /// Duration, microseconds.
    pub dur: f64,
}

/// Parse and check an exported trace: every event is a complete
/// (`"ph": "X"`) event with a step id, and every nested span lies
/// inside an enclosing span of the same thread and step.
pub fn validate_chrome(text: &str) -> Result<Vec<ChromeEvent>, String> {
    let v = obs::json::parse(text).map_err(|e| format!("trace is not JSON: {e}"))?;
    let obs::Json::Arr(items) = v else {
        return Err("trace is not an array".into());
    };
    let mut events = Vec::with_capacity(items.len());
    for (i, it) in items.iter().enumerate() {
        if it.str_of("ph") != Some("X") {
            return Err(format!("event {i} is not a complete event"));
        }
        let args = it.get("args").ok_or(format!("event {i} has no args"))?;
        let num = |j: &obs::Json, k: &str| j.num(k).ok_or(format!("event {i} has no {k}"));
        events.push(ChromeEvent {
            name: it
                .str_of("name")
                .ok_or(format!("event {i} has no name"))?
                .into(),
            tid: num(it, "tid")? as u64,
            depth: num(args, "depth")? as u64,
            step: num(args, "step")? as u64,
            ts: num(it, "ts")?,
            dur: num(it, "dur")?,
        });
    }
    // Microsecond rounding in the export allows a small tolerance.
    let eps = 0.002;
    for c in events.iter().filter(|c| c.depth > 0) {
        let nested = events.iter().any(|p| {
            p.tid == c.tid
                && p.step == c.step
                && p.depth + 1 == c.depth
                && p.ts <= c.ts + eps
                && p.ts + p.dur + eps >= c.ts + c.dur
        });
        if !nested {
            return Err(format!(
                "{} (tid {}, depth {}, step {}) lies outside every parent span",
                c.name, c.tid, c.depth, c.step
            ));
        }
    }
    Ok(events)
}
