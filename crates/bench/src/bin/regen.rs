//! Regenerates committed results: runs the experiments of
//! [`rest_bench::regen::EXPERIMENTS`] (all of them, or those named on
//! the command line) and writes their artifacts into `--out DIR`
//! (default `results/`).
//!
//! Usage: `cargo run --release -p rest-bench --bin regen -- \
//!         [EXPERIMENT ...] [--test] [--jobs N] [--out DIR] [--profile-out PATH] ...`
//!
//! Exit codes: 0 = every experiment succeeded, 1 = an experiment failed
//! or a job panicked (after writing every artifact it could),
//! 2 = usage error.

use rest_bench::cli::BenchCli;

fn main() {
    let cli = BenchCli::parse();
    if let Err(e) = rest_bench::regen::run(cli) {
        eprintln!("regen: {e}");
        std::process::exit(1);
    }
}
