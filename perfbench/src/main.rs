//! `perfbench` — checkpoint, restart and storage cost of the real
//! predictive-write engine on one stream workload.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload nyx-io --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Run from the repository root. `--trace 0` prints the end-to-end
//! metrics, `--trace 1` the per-layer metrics of a traced run (and
//! writes its Chrome trace under `.perfbench/`). The last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

use perfbench::workload::Workload;
use perfbench::{check_env, run_benchmark};
use std::path::Path;
use std::process::ExitCode;

/// Everything the benchmark writes lives here, inside the checkout.
const STATE_DIR: &str = ".perfbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or(format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    check_env(|v| std::env::var_os(v))?;
    let state = Path::new(STATE_DIR);
    std::fs::create_dir_all(state).map_err(|e| format!("{STATE_DIR}: {e}"))?;
    run_benchmark(
        &args.workload.spec(),
        args.seed,
        args.seconds,
        args.trace,
        state,
    )
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
