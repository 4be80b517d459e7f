//! The repository benchmark: host-time cost of the REST simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig7-test|functional-sweep|fuzz-corpus> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload drives the simulator crates through their public APIs
//! on one simulation thread (`fig7-test` runs one engine worker):
//!
//! * `fig7-test` — the Figure 7 matrix at test scale through
//!   `Engine::run_matrix` and the JSON sink: the timing path
//!   (`ExecEngine::step` → `Pipeline::process` → `Hierarchy`) behind
//!   every paper figure;
//! * `functional-sweep` — `run_functional` over the figure rows under
//!   plain, ASan and REST secure-full: the counting path, no pipeline;
//! * `fuzz-corpus` — a fixed slice of the fuzz case stream through the
//!   tri-oracle (`rest_fuzz::run_case`): setup, restlint and runtime
//!   ecalls dominate.
//!
//! The host is shared with other tenants, whose load slows a pass by
//! up to 2x for seconds to minutes at a time. A run therefore makes a
//! fixed number of passes (see [`pass_count`]) and reports each
//! operation's fastest repetition (see [`fastest`]), `setup_s` included
//! (see [`time_setups`]). `fuzz-corpus` runs every pass, traced or not,
//! and `fig7-test` samples its setups, in fresh processes of this
//! binary (see [`spawn_pass`]).
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! traced loops (see [`layers`]) and prints the per-layer metrics,
//! the tracing overhead and the reconciliation of layer times against
//! the traced wall. Information lines start with `#`; the last line of
//! stdout is one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. The process exits 1 when an output check fails and 2 on
//! bad arguments.
//!
//! `--seed N` selects the inputs: the fuzz stream seed is
//! `BenchCli::DEFAULT_FUZZ_SEED ^ N` and every figure row's seed is its
//! committed seed `^ N`, so `--seed 0` reproduces the committed inputs
//! and any other seed is a held-out input set.

mod fig7;
mod functional;
mod fuzz;
mod layers;

use std::process::{Command, Stdio};
use std::time::Instant;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Shorthand constructor for [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (matrix cells or fuzz cases, every pass).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Extra `#` lines: digests, reconciliation, paper gaps.
    pub info: Vec<String>,
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Internal: run one pass in this process and print its raw timings
    /// (see [`spawn_pass`]).
    pub pass: bool,
}

const USAGE: &str = "usage: rest-perfbench --workload <fig7-test|functional-sweep|fuzz-corpus> \
                     [--seed N] [--seconds S] [--trace 0|1]";

const WORKLOADS: [&str; 3] = ["fig7-test", "functional-sweep", "fuzz-corpus"];

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        pass: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {v}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other}")),
                }
            }
            "--pass" => args.pass = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if args.pass && args.workload == "functional-sweep" {
        return Err("--pass is internal to fig7-test and fuzz-corpus".into());
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.pass {
        match args.workload.as_str() {
            "fig7-test" => fig7::child_setup(&args),
            _ => fuzz::child_pass(&args),
        }
        return;
    }
    let started = Instant::now();
    let outcome = match args.workload.as_str() {
        "fig7-test" => fig7::run(&args),
        "functional-sweep" => functional::run(&args),
        _ => fuzz::run(&args),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# workload {} seed {} trace {} | build {} (thin LTO, codegen-units 1) | nproc {nproc} | \
         run {:.2}s",
        args.workload,
        args.seed,
        u8::from(args.trace),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        started.elapsed().as_secs_f64()
    );
    for line in &outcome.info {
        println!("# {line}");
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!("{}", result_json(correct, &outcome));
    if !correct {
        std::process::exit(1);
    }
}

/// The final result line.
fn result_json(correct: bool, o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            // Non-finite values cannot be written as JSON numbers; a
            // metric that degenerates reports 0.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linearly interpolated quantile `q` of `v` (0 for an empty slice).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Per-name medians over repeated metric sets (same names, same order).
pub fn median_metrics(reps: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = reps.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = reps.iter().map(|r| r[i].value).collect();
            metric(m.name, median(&values), m.unit)
        })
        .collect()
}

/// FNV-1a digest of simulated results: equal digests mean equal
/// simulated statistics, so a later change shows at a glance whether it
/// moved any simulated number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The process's host memory high-water mark (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Fewest passes a run makes, whatever `--seconds` asks for.
const MIN_PASSES: usize = 3;

/// How many passes a run makes: as many passes of the workload's
/// nominal length (measured once on a 2-thread x86-64 host) as fit in
/// `seconds`. The count is fixed before the run starts and does not
/// depend on how fast the code under test runs, so every commit's
/// per-operation minimum is taken over the same number of samples; a
/// slower commit makes a longer run rather than fewer samples.
pub fn pass_count(seconds: f64, nominal_pass_s: f64) -> usize {
    ((seconds / nominal_pass_s).round() as usize).max(MIN_PASSES)
}

/// Per operation, the mean seconds of one `setup(op)` over `reps`
/// back-to-back calls timed as one interval. One setup of a cell's
/// program and machine lasts a few microseconds, too short to time
/// steadily on its own; repeated, it is timed with warm caches, which
/// is the steady state a setup change moves.
pub fn time_setups<T>(ops: &[T], reps: usize, mut setup: impl FnMut(&T)) -> Vec<f64> {
    ops.iter()
        .map(|op| {
            let t = Instant::now();
            for _ in 0..reps {
                setup(op);
            }
            t.elapsed().as_secs_f64() / reps as f64
        })
        .collect()
}

/// Runs one `--pass` of `workload` in a fresh process of this binary
/// and returns what it printed: the `fuzz-corpus` passes, and the
/// `fig7-test` setup samples, whose cost in a long-lived process drifts
/// with the heap state earlier passes leave behind.
pub fn spawn_pass(workload: &str, seed: u64, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
            "--pass",
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("pass process exited with {}", out.status));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Lines of `text` that start with `key` and a space, without them.
pub fn lines_of<'a>(text: &'a str, key: &'a str) -> impl Iterator<Item = &'a str> {
    text.lines()
        .filter_map(move |l| l.strip_prefix(key).and_then(|rest| rest.strip_prefix(' ')))
}

pub fn parse<T: std::str::FromStr>(x: &str) -> Result<T, String> {
    x.parse().map_err(|_| format!("bad number {x}"))
}

/// The numbers of the first `key` line of `text`.
pub fn numbers(text: &str, key: &str) -> Result<Vec<f64>, String> {
    lines_of(text, key)
        .next()
        .ok_or_else(|| format!("pass process printed no {key} line"))?
        .split_whitespace()
        .map(parse)
        .collect()
}

/// Prints `values` as a `key` line for [`numbers`].
pub fn print_numbers(key: &str, values: &[f64]) {
    let v: Vec<String> = values.iter().map(f64::to_string).collect();
    println!("{key} {}", v.join(" "));
}

/// Per-operation fastest time across passes. The host shares its cores
/// with other tenants and contention only ever adds time, so an
/// operation's fastest repetition in the run is the steadiest estimate
/// of its own cost; a pass-level median keeps every slow phase of the
/// host that overlaps the run.
pub fn fastest<'a>(passes: impl IntoIterator<Item = &'a [f64]>) -> Vec<f64> {
    let mut passes = passes.into_iter();
    let mut best = passes.next().map(<[f64]>::to_vec).unwrap_or_default();
    for p in passes {
        for (b, x) in best.iter_mut().zip(p) {
            *b = b.min(*x);
        }
    }
    best
}

/// The end-to-end metrics, from per-operation fastest times `op_s`
/// (matrix cells or fuzz cases) and the pass time outside them.
pub fn end_to_end(
    op_s: &[f64],
    glue_s: f64,
    setup_s: f64,
    simulate_s: f64,
    insts: u64,
    peak_rss_mb: f64,
) -> Vec<Metric> {
    let op_ms: Vec<f64> = op_s.iter().map(|s| s * 1e3).collect();
    vec![
        metric("wall_s", op_s.iter().sum::<f64>() + glue_s, "s"),
        metric("setup_s", setup_s, "s"),
        metric("guest_mips", insts as f64 / simulate_s / 1e6, "Minst/s"),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
        metric("case_p50_ms", quantile(&op_ms, 0.5), "ms"),
        // The highest percentile with at least ten operations beyond it
        // on fig7-test (128 cells) and fuzz-corpus (2000 cases).
        metric("case_p90_ms", quantile(&op_ms, 0.9), "ms"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn pass_count_is_fixed_by_the_arguments() {
        assert_eq!(pass_count(20.0, 2.0), 10);
        assert_eq!(pass_count(20.0, 3.0), 7);
        assert_eq!(pass_count(1.0, 2.0), MIN_PASSES);
    }

    #[test]
    fn fastest_is_elementwise() {
        assert_eq!(fastest([&[3.0, 1.0][..], &[2.0, 5.0]]), vec![2.0, 1.0]);
        assert!(fastest([]).is_empty());
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload fuzz-corpus --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload fig7-test --trace 2")).is_err());
        assert!(parse_args(&argv("--workload fig7-test --bogus")).is_err());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let o = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![metric("wall_s", 1.25, "s"), metric("x", f64::NAN, "count")],
            info: Vec::new(),
        };
        assert_eq!(
            result_json(true, &o),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"x\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
    }
}
