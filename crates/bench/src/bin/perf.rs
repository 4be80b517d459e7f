//! Guest-throughput benchmark: guest instructions per host second on
//! the functional emulator — superblock-trace tier, decoded-uop-cache
//! fast path, and re-decode-every-fetch reference path — per benchmark
//! row and protection configuration.
//!
//! Every cell doubles as a differential check — the three tiers must
//! retire identical instruction and micro-op counts with identical stop
//! reasons, or the sweep fails.
//!
//! Writes `<out>/BENCH_throughput.json` (`rest-throughput/v2`, default
//! `results/`); wall times are nondeterministic, so the file follows the
//! `BENCH_` naming convention and is never byte-compared in CI.
//!
//! Usage: `cargo run --release -p rest-bench --bin perf -- \
//!         [--test] [--jobs N] [--out DIR] [--filter SUBSTRING]`

use rest_bench::cli::{BenchCli, Harness};
use rest_bench::throughput::{cells_for, measure_all, ThroughputReport};
use rest_bench::{figure_rows, machine_header, scale_name, write_text_file};
use rest_core::Mode;
use rest_runtime::RtConfig;
use rest_workloads::Scale;

fn main() {
    let cli = BenchCli::parse("perf");
    if !cli.experiments.is_empty() {
        BenchCli::usage_exit("perf", "takes no experiment names");
    }
    let scale = if cli.test { Scale::Test } else { Scale::Ref };
    let mut h = Harness::new(cli);
    let rows = h.filter_rows(figure_rows());
    let cli = &h.cli;
    // Plain, the heaviest instrumentation (ASan injects uops per
    // access), and the paper's headline REST configuration.
    let configs = [
        RtConfig::plain(),
        RtConfig::asan(),
        RtConfig::rest(Mode::Secure, true),
    ];
    let cells = cells_for(&rows, &configs, scale);

    let measured = match measure_all(&cells, cli.jobs) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perf: decode paths diverged: {e}");
            std::process::exit(1);
        }
    };
    let report = ThroughputReport {
        scale: scale_name(scale).to_string(),
        effective_jobs: cli.jobs,
        cells: measured,
    };

    print!(
        "{}",
        machine_header("Guest throughput — trace vs fast vs reference execution tier (guest-IPS)")
    );
    report.print_text_table();
    if let Err(e) = write_text_file(&cli.out.join("BENCH_throughput.json"), &report.render()) {
        eprintln!("perf: {e}");
        std::process::exit(1);
    }
}
