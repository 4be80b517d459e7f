//! Throughput regression gate: compares a fresh `rest-throughput/v2`
//! document against a committed baseline and exits nonzero when the
//! sweep-wide fast-path or trace-tier guest-IPS regressed beyond
//! tolerance. See [`rest_bench::benchdiff`].
//!
//! ```text
//! bench-diff --baseline results/BENCH_throughput.json \
//!            --current  /tmp/fresh.json \
//!            [--tolerance PCT]
//! ```
//!
//! Exit codes: 0 = within tolerance, 1 = regression,
//! 2 = usage or I/O error (malformed documents are errors, not passes).

use std::path::PathBuf;

use rest_bench::benchdiff::{diff, load, DEFAULT_TOLERANCE_PCT};

const USAGE: &str = "usage: bench-diff --baseline PATH --current PATH \
                     [--tolerance PCT]\n\
                     \n\
                     --baseline PATH   committed rest-throughput/v2 document\n\
                     --current PATH    freshly measured document to gate\n\
                     --tolerance PCT   allowed aggregate guest-IPS drop (default 5)";

fn die(msg: &str) -> ! {
    eprintln!("bench-diff: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline: Option<PathBuf> = None;
    let mut current: Option<PathBuf> = None;
    let mut tolerance = DEFAULT_TOLERANCE_PCT;
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
            "--tolerance" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v >= 0.0 => tolerance = v,
                _ => die("--tolerance needs a non-negative percentage"),
            },
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    let Some(baseline) = baseline else { die("--baseline is required") };
    let Some(current) = current else { die("--current is required") };

    let base_doc = load(&baseline).unwrap_or_else(|e| die(&e));
    let curr_doc = load(&current).unwrap_or_else(|e| die(&e));
    let report = diff(&base_doc, &curr_doc, tolerance).unwrap_or_else(|e| die(&e));
    print!("{}", report.render());
    if report.regressed() {
        std::process::exit(1);
    }
}
