//! `bench_faults` — seeded fault-injection and crash-recovery smoke.
//!
//! Streams each workload (Nyx, VPIC, RTM) through the timeline engine
//! under a seeded fault schedule — one transient `EIO` (absorbed by
//! bounded retry), one silent bit flip (latent until scrub), and one
//! torn tail write that "crashes" the stream mid-step — then recovers
//! with `resume_timeline` and proves the result: damaged steps are
//! quarantined, every surviving and rewritten step decodes within its
//! error bound, and the injected/retried/escalated counters match the
//! schedule.
//!
//! Writes machine-readable results to `BENCH_faults.json` (override
//! with `BENCH_OUT`).
//!
//! ```text
//! cargo run -p bench --release --bin bench_faults
//! BENCH_SEED=7 BENCH_STEPS=12 cargo run -p bench --release --bin bench_faults
//! ```
//!
//! Knobs: `BENCH_STEPS` (default 8, min 6), `BENCH_SIDE` (default 16),
//! `BENCH_PARTICLES` (default 4096), `BENCH_RANKS` (default 8),
//! `BENCH_SEED` (default 0xF0CC), `BENCH_OUT`.

use bench::partition_stream_step;
use bench::setup::env_usize;
use pfsim::{Fault, FaultFs, FaultPlan, SplitMix64};
use predwrite::verify_file;
use ratiomodel::OnlineConfig;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use timeline::{resume_timeline, run_timeline, AdaptMode, StepFaults, TimelineConfig};
use workloads::SnapshotStream;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

struct Outcome {
    workload: &'static str,
    crash_step: usize,
    transient_step: usize,
    flip_step: usize,
    resume_from: usize,
    quarantined: usize,
    surviving: usize,
    retries: u64,
    escalations: u64,
    verified_steps: usize,
    recovery_secs: f64,
}

fn run_one(stream: &SnapshotStream, nranks: usize, steps: usize, seed: u64) -> Outcome {
    let mut rng = SplitMix64::new(seed);
    // Distinct fault steps: transient and flip in the first half,
    // crash in the second, so every class fires before the crash.
    let transient_step = 1 + (rng.next_u64() as usize) % (steps / 2 - 1);
    let mut flip_step = 1 + (rng.next_u64() as usize) % (steps / 2 - 1);
    if flip_step == transient_step {
        flip_step = if flip_step + 1 < steps / 2 {
            flip_step + 1
        } else {
            flip_step - 1
        };
    }
    let crash_step = steps / 2 + (rng.next_u64() as usize) % (steps - steps / 2 - 1);

    let transient =
        FaultFs::new(FaultPlan::new().on_write(2 + rng.next_u64() % 4, Fault::Transient));
    let flip = FaultFs::new(FaultPlan::new().on_write(
        1 + rng.next_u64() % 4,
        Fault::BitFlip {
            byte: rng.next_u64(),
            mask: (rng.next_u64() % 255 + 1) as u8,
        },
    ));
    let torn = FaultFs::new(FaultPlan::new().on_write(
        2 + rng.next_u64() % 6,
        Fault::TornWrite {
            keep: rng.next_u64() % 512,
        },
    ));

    let nfields = stream.snapshot(0).fields.len();
    let dir = std::env::temp_dir().join(format!(
        "bench-faults-{}-{}",
        std::process::id(),
        stream.label()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = TimelineConfig::quick(
        steps,
        nfields,
        AdaptMode::Adaptive(OnlineConfig::default()),
        dir.clone(),
    );
    cfg.keep_files = true;
    cfg.verify = false; // the bit flip must stay latent until scrub
    let (t, f, c) = (Arc::clone(&transient), Arc::clone(&flip), Arc::clone(&torn));
    cfg.step_faults = Some(StepFaults::new(move |s| {
        if s == transient_step {
            Some(Arc::clone(&t))
        } else if s == flip_step {
            Some(Arc::clone(&f))
        } else if s == crash_step {
            Some(Arc::clone(&c))
        } else {
            None
        }
    }));

    let data = |s: usize| partition_stream_step(stream, s, nranks);
    let err = run_timeline(&cfg, data).expect_err("torn write must abort the stream");
    assert!(
        torn.crashed(),
        "{}: schedule never fired: {err}",
        stream.label()
    );
    assert_eq!(transient.stats().transient, 1);
    assert!(transient.stats().retries >= 1, "transient must be retried");
    assert_eq!(flip.stats().bit_flips, 1);

    cfg.step_faults = None;
    cfg.verify = true;
    let start = Instant::now();
    let res = resume_timeline(&cfg, data).expect("recovery failed");
    let recovery_secs = start.elapsed().as_secs_f64();

    // The flipped step precedes the crash, so recovery restarts from
    // it and quarantines both damaged containers.
    assert_eq!(res.resume_from, flip_step, "{}", stream.label());
    assert_eq!(res.quarantined.len(), 2, "{}", stream.label());
    assert_eq!(
        res.report.steps.last().map(|s| s.step),
        Some(steps - 1),
        "{}: stream must complete",
        stream.label()
    );

    let mut verified_steps = 0;
    for s in 0..steps {
        let d = data(s);
        let rep = verify_file(&cfg.step_path(s), &d, Some(&cfg.configs), 1)
            .unwrap_or_else(|e| panic!("{} step {s}: {e}", stream.label()));
        assert!(rep.ok(), "{} step {s} out of bound", stream.label());
        verified_steps += 1;
    }
    let _ = std::fs::remove_dir_all(&dir);

    Outcome {
        workload: stream.label(),
        crash_step,
        transient_step,
        flip_step,
        resume_from: res.resume_from,
        quarantined: res.quarantined.len(),
        surviving: res.surviving.len(),
        retries: transient.stats().retries,
        escalations: transient.stats().escalations,
        verified_steps,
        recovery_secs,
    }
}

fn main() {
    let steps = env_usize("BENCH_STEPS", 8).max(6);
    let side = env_usize("BENCH_SIDE", 16);
    let particles = env_usize("BENCH_PARTICLES", 4096);
    let nranks = env_usize("BENCH_RANKS", 8);
    let seed = env_u64("BENCH_SEED", 0xF0CC);
    let out_path = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_faults.json".to_string());

    let streams = [
        SnapshotStream::nyx(side),
        SnapshotStream::vpic(particles),
        SnapshotStream::rtm(side),
    ];

    println!(
        "{:<8} {:>6} {:>6} {:>6} {:>8} {:>11} {:>8} {:>9}",
        "workload", "crash", "flip", "resume", "retries", "quarantined", "decoded", "rec-secs"
    );
    let mut blocks = Vec::new();
    for stream in &streams {
        let o = run_one(stream, nranks, steps, seed);
        println!(
            "{:<8} {:>6} {:>6} {:>6} {:>8} {:>11} {:>8} {:>8.2}s",
            o.workload,
            o.crash_step,
            o.flip_step,
            o.resume_from,
            o.retries,
            o.quarantined,
            o.verified_steps,
            o.recovery_secs
        );
        let mut b = String::new();
        let _ = writeln!(b, "  {{");
        let _ = writeln!(b, "    \"workload\": \"{}\",", o.workload);
        let _ = writeln!(b, "    \"steps\": {steps},");
        let _ = writeln!(b, "    \"crash_step\": {},", o.crash_step);
        let _ = writeln!(b, "    \"transient_step\": {},", o.transient_step);
        let _ = writeln!(b, "    \"flip_step\": {},", o.flip_step);
        let _ = writeln!(b, "    \"resume_from\": {},", o.resume_from);
        let _ = writeln!(b, "    \"quarantined\": {},", o.quarantined);
        let _ = writeln!(b, "    \"surviving\": {},", o.surviving);
        let _ = writeln!(b, "    \"retries\": {},", o.retries);
        let _ = writeln!(b, "    \"escalations\": {},", o.escalations);
        let _ = writeln!(b, "    \"verified_steps\": {},", o.verified_steps);
        let _ = writeln!(b, "    \"recovered\": true,");
        let _ = writeln!(b, "    \"recovery_secs\": {:.6}", o.recovery_secs);
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
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"ranks\": {nranks},");
    let _ = writeln!(json, "  \"workloads\": [");
    let _ = writeln!(json, "{}", blocks.join(",\n"));
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    std::fs::write(&out_path, &json).unwrap();
    println!("\nwrote {out_path}");
}
