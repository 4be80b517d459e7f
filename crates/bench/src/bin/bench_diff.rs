//! Host-time regression gate: compares the host profiles of two
//! `regen --profile-out` runs and exits nonzero when the jobs both runs
//! simulated took longer in total. See [`rest_bench::benchdiff`].
//!
//! ```text
//! bench-diff --baseline base.json --current change.json
//! ```
//!
//! Exit codes: 0 = within tolerance, 1 = regression,
//! 2 = usage or input error (malformed documents are errors, not passes).

use std::path::PathBuf;

use rest_bench::benchdiff::run;

const USAGE: &str = "usage: bench-diff --baseline PATH --current PATH\n\
                     \n\
                     --baseline PATH   rest-host-profile/v2 document of the reference run\n\
                     --current PATH    rest-host-profile/v2 document of the run to gate";

fn die(msg: &str) -> ! {
    eprintln!("bench-diff: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline: Option<PathBuf> = None;
    let mut current: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => match it.next() {
                Some(v) => baseline = Some(PathBuf::from(v)),
                None => die("--baseline needs a path"),
            },
            "--current" => match it.next() {
                Some(v) => current = Some(PathBuf::from(v)),
                None => die("--current needs a path"),
            },
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    let Some(baseline) = baseline else {
        die("--baseline is required")
    };
    let Some(current) = current else {
        die("--current is required")
    };

    let report = run(&baseline, &current).unwrap_or_else(|e| die(&e));
    print!("{}", report.render());
    if report.regressed() {
        std::process::exit(1);
    }
}
