//! `bench_timeline` — static vs. online-adaptive checkpoint streaming.
//!
//! Streams ≥ 20 evolving checkpoints of each workload (Nyx, VPIC, RTM)
//! through the timeline engine twice: once with the static
//! offline-model configuration (the paper's single-shot setup replayed
//! per step) and once with the online-adaptive predictor
//! (per-partition EWMA bias correction + error-band headroom). For
//! each run it records total bytes written, cumulative extra-space
//! waste, overflow-redirection events and per-step wall time, then
//! asserts the adaptive policy wastes strictly less cumulative extra
//! space at equal-or-fewer overflow events.
//!
//! Writes machine-readable results to `BENCH_timeline.json` (override
//! with `BENCH_OUT`).
//!
//! ```text
//! cargo run -p bench --release --bin bench_timeline
//! BENCH_STEPS=40 BENCH_SIDE=48 cargo run -p bench --release --bin bench_timeline
//! ```
//!
//! Knobs: `BENCH_STEPS` (default 24), `BENCH_SIDE` (nyx/rtm cube side,
//! default 32), `BENCH_PARTICLES` (default 65536; any partition size
//! works — the ratio model samples small partitions in full, see
//! `szlite::sampling::MIN_SAMPLE_POINTS`), `BENCH_RANKS` (default 8),
//! `BENCH_OUT`.

use bench::partition_stream_step;
use bench::setup::env_usize;
use obs::StepTotals;
use predwrite::RankFieldData;
use ratiomodel::OnlineConfig;
use std::fmt::Write as _;
use timeline::{run_timeline, AdaptMode, TimelineConfig, TimelineReport};
use workloads::SnapshotStream;

fn run_mode(
    stream: &SnapshotStream,
    steps: usize,
    mode: AdaptMode,
    data: &[Vec<Vec<RankFieldData>>],
) -> TimelineReport {
    let nfields = data[0][0].len();
    let dir = std::env::temp_dir().join(format!(
        "bench-timeline-{}-{}-{}",
        std::process::id(),
        stream.label(),
        mode.label()
    ));
    let mut cfg = TimelineConfig::quick(steps, nfields, mode, dir.clone());
    cfg.verify = false; // timing comparison; the tests verify decodes
    let report = run_timeline(&cfg, |step| &data[step]).expect("timeline run failed");
    let _ = std::fs::remove_dir_all(&dir);
    report
}

fn mode_json(r: &TimelineReport) -> String {
    let t = StepTotals::of(&r.steps);
    let mut j = String::new();
    let _ = writeln!(j, "      {{");
    let _ = writeln!(j, "        \"mode\": \"{}\",", r.mode);
    let _ = writeln!(j, "        \"total_secs\": {:.6},", t.total_secs);
    let _ = writeln!(j, "        \"file_bytes\": {},", t.file_bytes);
    let _ = writeln!(j, "        \"compressed_bytes\": {},", t.actual_bytes);
    let _ = writeln!(j, "        \"waste_bytes\": {},", t.waste_bytes);
    let _ = writeln!(j, "        \"overflows\": {},", t.overflow_parts);
    let _ = writeln!(j, "        \"overflow_bytes\": {},", t.overflow_bytes);
    let _ = writeln!(j, "        \"per_step\": [");
    for (i, s) in r.steps.iter().enumerate() {
        let _ = writeln!(
            j,
            "          {{\"step\": {}, \"secs\": {:.6}, \"waste_bytes\": {}, \"overflows\": {}, \"rel_err\": {:.6}}}{}",
            s.step,
            s.total_secs,
            s.waste_bytes,
            s.overflow_parts,
            s.mean_rel_err,
            if i + 1 < r.steps.len() { "," } else { "" }
        );
    }
    let _ = writeln!(j, "        ]");
    let _ = write!(j, "      }}");
    j
}

fn main() {
    let steps = env_usize("BENCH_STEPS", 24).max(20);
    let side = env_usize("BENCH_SIDE", 32);
    let particles = env_usize("BENCH_PARTICLES", 1 << 16);
    let nranks = env_usize("BENCH_RANKS", 8);
    let out_path = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_timeline.json".to_string());

    let streams = [
        SnapshotStream::nyx(side),
        SnapshotStream::vpic(particles),
        SnapshotStream::rtm(side),
    ];

    let mut blocks = Vec::new();
    for stream in &streams {
        println!(
            "\n=== {} ({} steps, {} ranks) ===",
            stream.label(),
            steps,
            nranks
        );
        // Generate every step once so both modes stream identical data.
        let data: Vec<Vec<Vec<RankFieldData>>> = (0..steps)
            .map(|s| partition_stream_step(stream, s, nranks))
            .collect();

        let stat = run_mode(stream, steps, AdaptMode::Static, &data);
        let adap = run_mode(
            stream,
            steps,
            AdaptMode::Adaptive(OnlineConfig::default()),
            &data,
        );

        println!(
            "{:<10} {:>12} {:>12} {:>10} {:>10}",
            "mode", "file-bytes", "waste", "overflows", "secs"
        );
        let (st, at) = (StepTotals::of(&stat.steps), StepTotals::of(&adap.steps));
        for (r, t) in [(&stat, st), (&adap, at)] {
            println!(
                "{:<10} {:>12} {:>12} {:>10} {:>9.2}s",
                r.mode, t.file_bytes, t.waste_bytes, t.overflow_parts, t.total_secs
            );
        }
        let saved = st.waste_bytes.saturating_sub(at.waste_bytes);
        println!(
            "adaptive saves {saved} waste bytes ({:.1}% of static waste)",
            100.0 * saved as f64 / st.waste_bytes.max(1) as f64
        );
        assert!(
            at.waste_bytes < st.waste_bytes,
            "{}: adaptive waste {} not below static {}",
            stream.label(),
            at.waste_bytes,
            st.waste_bytes
        );
        assert!(
            at.overflow_parts <= st.overflow_parts,
            "{}: adaptive overflows {} exceed static {}",
            stream.label(),
            at.overflow_parts,
            st.overflow_parts
        );

        let mut b = String::new();
        let _ = writeln!(b, "  {{");
        let _ = writeln!(b, "    \"workload\": \"{}\",", stream.label());
        let _ = writeln!(b, "    \"steps\": {steps},");
        let _ = writeln!(b, "    \"ranks\": {nranks},");
        let _ = writeln!(b, "    \"modes\": [");
        let _ = writeln!(b, "{},", mode_json(&stat));
        let _ = writeln!(b, "{}", mode_json(&adap));
        let _ = writeln!(b, "    ]");
        let _ = write!(b, "  }}");
        blocks.push(b);
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"host_parallelism\": {},",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let _ = writeln!(json, "  \"workloads\": [");
    let _ = writeln!(json, "{}", blocks.join(",\n"));
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    std::fs::write(&out_path, &json).unwrap();
    println!("\nwrote {out_path}");
}
