//! Static check-elision campaign: the full benchmark set under
//! `rest-secure-full` and `asan`, each with checks in full and with the
//! `rest-verify` elision map applied, plus all ten attack scenarios
//! under elision. Every pair is held to a hard differential gate:
//! identical stop, output, and audit provenance, so the attacks lose
//! zero detections. See [`rest_bench::elide`] for the campaign
//! semantics.
//!
//! Writes `results/elision.json` (deterministic, byte-identical at any
//! `--jobs`) and, in the same directory, `BENCH_elision.json`
//! (wall-clock guest-IPS with and without elision).
//!
//! Usage: `cargo run --release -p rest-bench --bin elide -- \
//!         [--test] [--jobs N] [--json PATH] [--filter SUBSTRING]`

use rest_bench::cli::Harness;

fn main() {
    rest_bench::elide::run_campaign(Harness::new("elision"));
}
