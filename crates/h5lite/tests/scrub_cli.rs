//! The `scrub` command line on a clean container whose flight-recorder
//! file holds one good record and one garbage line: `--json` reports
//! the record and the bad-line count, human mode prints the record's
//! summary line, and an unreadable container exits 2.

use h5lite::{DatasetSpec, Dtype, H5File};
use std::process::Command;
use testutil::TempPath;

#[test]
fn scrub_reports_the_newest_flight_record_in_both_modes() {
    let container = TempPath::new("scrub-cli", "h5l");
    let flight = TempPath::new("scrub-cli", obs::flight::FLIGHT_EXT);
    assert_eq!(flight.path(), obs::flight_path(container.path()));

    let file = H5File::create(container.path()).unwrap();
    let id = file
        .create_dataset(DatasetSpec::new("x", Dtype::U8, &[4]))
        .unwrap();
    file.write_full(id, &[1, 2, 3, 4]).unwrap();
    file.close().unwrap();

    let rec = obs::StepFlight {
        step: 7,
        reserved_bytes: 4096,
        retries: 3,
        transient_faults: 2,
        escalations: 1,
        queue_depth_max: 5,
        total_secs: 0.25,
        host_parallelism: 2,
        ..Default::default()
    };
    std::fs::write(
        flight.path(),
        format!("{}\nnot a flight record\n", rec.to_json_line()),
    )
    .unwrap();

    let run = |path: &std::path::Path, args: &[&str], exit: i32| {
        let out = Command::new(env!("CARGO_BIN_EXE_scrub"))
            .arg(path)
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(exit), "{out:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    let scrub = |args: &[&str]| run(container.path(), args, 0);

    let v = obs::json::parse(scrub(&["--json"]).trim()).unwrap();
    assert_eq!(v.str_of("container"), Some("ok"));
    assert_eq!(v.num("flight_bad_lines"), Some(1.0));
    let reported = obs::StepFlight::from_json(v.get("flight").unwrap()).unwrap();
    assert_eq!(reported, rec);

    let human = scrub(&[]);
    assert!(
        human.contains(
            "flight: step 7 — 3 retries, 2 transient fault(s), 1 escalation(s), \
             queue depth max 5, 0.2500s total"
        ),
        "{human}"
    );

    // A container that cannot be read is one JSON error object, exit 2.
    let missing = container.path().with_extension("absent");
    let err = obs::json::parse(run(&missing, &["--json"], 2).trim()).unwrap();
    assert_eq!(err.num("exit"), Some(2.0));
    assert!(err.str_of("error").is_some_and(|e| !e.is_empty()));
}
