//! Fault figures in a step record belong to the step that produced
//! them: two fault-injected streams running at once in one process must
//! each record their own injector's counts, never the other's.

use pfsim::{Fault, FaultFs, FaultPlan};
use std::sync::Arc;
use timeline::{partition_stream_step, run_timeline, AdaptMode, StepFaults, TimelineConfig};

/// Stream `steps` keep-files checkpoints with `transients` consecutive
/// transient write faults in each step of `faulty`, and check every
/// step's record against the step's own injector (healthy steps: 0).
fn run_and_check(name: &str, steps: usize, faulty: &[usize], transients: u64) {
    let injectors: Vec<Option<Arc<FaultFs>>> = (0..steps)
        .map(|s| {
            faulty.contains(&s).then(|| {
                let plan = (0..transients)
                    .fold(FaultPlan::new(), |p, k| p.on_write(2 + k, Fault::Transient));
                FaultFs::new(plan)
            })
        })
        .collect();
    let stream = workloads::SnapshotStream::nyx(12); // 6 fields
    let data: Vec<_> = (0..steps)
        .map(|s| partition_stream_step(&stream, s, 2))
        .collect();
    let dir = testutil::TempPath::new(&format!("flight-faults-{name}"), "d");
    let mut cfg = TimelineConfig::quick(steps, 6, AdaptMode::Static, dir.path().into());
    cfg.keep_files = true;
    let hook = injectors.clone();
    cfg.step_faults = Some(StepFaults::new(move |s| hook[s].clone()));
    let report = run_timeline(&cfg, |s| &data[s]).expect("transient faults are retried");

    assert_eq!(report.steps.len(), steps);
    for (s, (row, inj)) in report.steps.iter().zip(&injectors).enumerate() {
        let own = inj.as_ref().map(|f| f.stats()).unwrap_or_default();
        assert_eq!(
            (row.retries, row.transient_faults, row.escalations),
            (own.retries, own.transient, own.escalations),
            "{name} step {s}: record must carry its own injector's counts"
        );
        assert_eq!(own.retries, inj.as_ref().map_or(0, |_| transients));
        let scan = obs::read_flight(&obs::flight_path(&cfg.step_path(s))).unwrap();
        assert_eq!(scan.records.last(), Some(row), "{name} step {s}");
    }
}

#[test]
fn concurrent_fault_runs_record_their_own_injector_counts() {
    let a = std::thread::spawn(|| run_and_check("a", 4, &[1, 3], 2));
    let b = std::thread::spawn(|| run_and_check("b", 4, &[0, 2], 1));
    a.join().unwrap();
    b.join().unwrap();
}
