//! Timestep streaming with online ratio-model adaptation: checkpoint
//! an evolving Nyx run twice — static offline models vs. the online
//! adaptive predictor — and watch the adaptive headroom tighten as
//! history accumulates.
//!
//! ```text
//! cargo run --release --example timeline_stream [steps]
//! ```

use bench::partition_stream_step;
use repro_suite::obs::StepTotals;
use repro_suite::predwrite::RankFieldData;
use repro_suite::ratiomodel::OnlineConfig;
use repro_suite::timeline::{run_timeline, AdaptMode, TimelineConfig, TimelineReport};
use repro_suite::workloads::SnapshotStream;

fn main() {
    let steps: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(12);
    let nranks = 8;
    let stream = SnapshotStream::nyx(32);
    println!(
        "streaming {} checkpoints of an evolving {}³ Nyx run over {nranks} ranks",
        steps, 32
    );

    // Generate every step once so both modes see identical data.
    let data: Vec<Vec<Vec<RankFieldData>>> = (0..steps)
        .map(|s| partition_stream_step(&stream, s, nranks))
        .collect();
    let nfields = data[0][0].len();

    let mut reports: Vec<TimelineReport> = Vec::new();
    for mode in [
        AdaptMode::Static,
        AdaptMode::Adaptive(OnlineConfig::default()),
    ] {
        let dir = std::env::temp_dir().join(format!(
            "timeline-example-{}-{}",
            std::process::id(),
            mode.label()
        ));
        let cfg = TimelineConfig::quick(steps, nfields, mode, dir.clone());
        let report = run_timeline(&cfg, |s| &data[s]).expect("stream failed");
        let _ = std::fs::remove_dir_all(&dir);

        println!("\n--- {} ---", report.mode);
        println!(
            "{:>4} {:>12} {:>12} {:>10} {:>9}",
            "step", "reserved", "waste", "overflows", "rel-err"
        );
        for s in &report.steps {
            println!(
                "{:>4} {:>12} {:>12} {:>10} {:>8.1}%",
                s.step,
                s.reserved_bytes,
                s.waste_bytes,
                s.overflow_parts,
                s.mean_rel_err * 100.0
            );
        }
        reports.push(report);
    }

    let stat = StepTotals::of(&reports[0].steps);
    let adap = StepTotals::of(&reports[1].steps);
    println!(
        "\ncumulative waste: static {} vs adaptive {} bytes \
         ({:.1}% saved), overflows {} vs {}",
        stat.waste_bytes,
        adap.waste_bytes,
        100.0 * stat.waste_bytes.saturating_sub(adap.waste_bytes) as f64
            / stat.waste_bytes.max(1) as f64,
        stat.overflow_parts,
        adap.overflow_parts
    );
    println!(
        "every step was read back and bound-checked (TimelineConfig::quick \
         sets verify = true); see BENCH_timeline.json from bench_timeline \
         for the full three-workload comparison"
    );
}
