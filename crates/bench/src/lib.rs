//! Experiment harness for the REST reproduction.
//!
//! One binary, `regen`, writes every committed result under `results/`
//! from a table of experiments ([`regen::EXPERIMENTS`]):
//!
//! | Experiment | Artifacts | Paper artefact |
//! |---|---|---|
//! | `fig3` | `fig3.json`, `fig3.txt` | Figure 3 — ASan overhead breakdown by component |
//! | `fig7` | `fig7.json`, `fig7.txt` | Figure 7 — runtime overheads of every configuration |
//! | `fig8` | `fig8.json`, `fig8.txt` | Figure 8 — token-width sweep (16/32/64 B) |
//! | `table1` | `table1.json`, `table1.txt` | Table I — cache/LSQ action matrix |
//! | `table3` | `table3.json`, `table3.txt` | Table III — comparison with prior hardware schemes |
//! | `prose_stats` | `prose_stats.json`, `prose_stats.txt` | §VI-B prose statistics (ROB/IQ/token traffic) |
//! | `ablations` | `ablations.json`, `ablations.txt` | design-choice ablations called out in DESIGN.md |
//! | `defense` | `defense.json`, `defense.txt` | REST vs MTE vs PA overhead and attack coverage ([`defense`]) |
//! | `elision` | `elision.json`, `elision.txt` | static check-elision figure ([`elide`]) |
//! | `faults` | `faults.json`, `faults.txt` | fault-injection detection-coverage campaign ([`faults`]) |
//! | `fuzz` | `fuzz.json`, `fuzz.txt` | adversarial-corpus tri-oracle campaign ([`fuzz`]) |
//! | `hotspots` | `hotspots.json`, `.txt`, `.folded`, `.perfetto.json` | guest hotspot profile ([`hotspots`]) |
//!
//! One more binary measures the host rather than the guest:
//! `bench-diff` ([`benchdiff`]) compares the host profiles of two
//! `regen --profile-out` runs and fails when the timing path slowed.
//!
//! Every experiment runs on one shared harness:
//!
//! * [`cli`] — the common command line (`--test`, `--jobs N`,
//!   `--out DIR`, `--filter SUBSTRING`, …) and the [`cli::Harness`]
//!   that applies it to every matrix and closes the run with one
//!   `rest-host-profile/v2` host document (`--profile-out`),
//! * [`engine`] — declarative [`engine::SimJob`] matrices run on a
//!   deterministic worker pool with one result cache keyed by the whole
//!   job, so a job several experiments submit is simulated once;
//!   failing jobs surface as structured [`engine::JobError`]s instead
//!   of aborting the sweep (a panicking job still fails the run once
//!   the artifacts are written),
//! * [`sink`] — every experiment returns a machine-readable JSON
//!   document (schema documented in [`sink`]), validated before it is
//!   written.
//!
//! Progress and wall-clock timing go to stderr only, so every artifact
//! is byte-identical at any `--jobs` level, and whether an experiment
//! runs alone or inside the full table.
//!
//! Run the binaries in `--release` builds: the cycle-level simulator is
//! ~20× slower unoptimised. Example:
//!
//! ```text
//! cargo run --release -p rest-bench --bin regen -- --test --out /tmp/results fig7
//! ```

#![forbid(unsafe_code)]

pub mod benchdiff;
pub mod cli;
pub mod defense;
pub mod elide;
pub mod engine;
pub mod faults;
pub mod figures;
pub mod fuzz;
pub mod hotspots;
pub mod regen;
pub mod sink;
pub mod table;

use std::sync::Arc;

use rest_core::{Mode, TokenWidth};
use rest_runtime::{RtConfig, StackScheme};
use rest_workloads::{Scale, Workload};

/// One-line description of the simulated Table II machine, printed in
/// table headers and recorded in every JSON document.
pub const MACHINE: &str = "8-wide OoO, 192 ROB / 64 IQ / 32 LQ / 32 SQ, \
                           64kB L1I/L1D (2cy), 2MB L2 (20cy), DDR3-800 — Table II";

/// Stack-protection scheme matching a runtime configuration
/// ([`RtConfig::stack_scheme`], under the name the benchmark crate
/// imports).
pub fn stack_for(rt: &RtConfig) -> StackScheme {
    rt.stack_scheme()
}

/// One row of a figure: a workload plus its display name and input seed
/// (gobmk appears once per sub-input, as in the paper's Figures 7/8).
#[derive(Debug, Clone, Copy)]
pub struct FigureRow {
    /// Display name for the row.
    pub name: &'static str,
    /// Workload kernel.
    pub workload: Workload,
    /// Input seed (gobmk sub-inputs vary the board position).
    pub seed: u64,
}

impl FigureRow {
    /// The standard row for `workload` (figure name, default seed).
    pub fn of(workload: Workload) -> FigureRow {
        FigureRow {
            name: workload.name(),
            workload,
            seed: 0xC0FFEE,
        }
    }
}

/// The benchmark rows of Figures 7/8: the 12 workloads with gobmk
/// expanded into its sub-inputs.
pub fn figure_rows() -> Vec<FigureRow> {
    let mut rows = Vec::new();
    for w in Workload::ALL {
        if w == Workload::Gobmk {
            for &(name, seed) in rest_workloads::GOBMK_INPUTS.iter() {
                rows.push(FigureRow {
                    name,
                    workload: w,
                    seed,
                });
            }
        } else {
            rows.push(FigureRow::of(w));
        }
    }
    rows
}

/// One guest of the adversarial list the defense and elision campaigns
/// replay ([`adversaries`]).
#[derive(Debug, Clone)]
pub enum Adversary {
    /// A hand-written attack scenario, judged by the paper's §V table.
    Attack(rest_attacks::Attack),
    /// A minimized fuzzer reproducer from `tests/regress/`, judged by
    /// the expectations its sidecar measured at emission time.
    Regress(Arc<rest_attacks::regress::RegressCase>),
}

impl Adversary {
    /// Display name (`"heartbleed-oob-read"`, a corpus file stem).
    pub fn name(&self) -> &str {
        match self {
            Adversary::Attack(attack) => attack.name(),
            Adversary::Regress(case) => &case.name,
        }
    }

    /// The job replaying this guest under `rt` on the Table II machine
    /// (any stop accepted; an attack stages its own runtime tweaks).
    pub fn job(&self, label: &str, rt: RtConfig, scale: Scale) -> engine::SimJob {
        match self {
            Adversary::Attack(attack) => engine::SimJob::for_attack(*attack, label, rt, scale),
            Adversary::Regress(case) => {
                engine::SimJob::for_regress(Arc::clone(case), label, rt, scale)
            }
        }
    }

    /// The verdict expected under the scheme `label` names (`rt`).
    pub fn expectation(&self, label: &str, rt: &RtConfig) -> rest_attacks::Expectation {
        match self {
            Adversary::Attack(attack) => attack.expectation(rt.scheme),
            Adversary::Regress(case) => case.expectation(label),
        }
    }
}

/// The adversarial guests, in document order: every attack scenario
/// ([`rest_attacks::Attack::ALL`] order), then every committed
/// regression-corpus reproducer (sorted by name).
pub fn adversaries() -> Result<Vec<Adversary>, String> {
    let corpus = rest_attacks::regress::corpus()
        .map_err(|e| format!("regression corpus failed to load: {e}"))?;
    let attacks = rest_attacks::Attack::ALL.into_iter().map(Adversary::Attack);
    let corpus = corpus
        .into_iter()
        .map(|case| Adversary::Regress(Arc::new(case)));
    Ok(attacks.chain(corpus).collect())
}

/// The seven hardened configurations of Figure 7, in figure order.
pub fn fig7_configs() -> Vec<RtConfig> {
    vec![
        RtConfig::asan(),
        RtConfig::rest(Mode::Debug, true),
        RtConfig::rest(Mode::Secure, true),
        RtConfig::rest_perfect(true),
        RtConfig::rest(Mode::Debug, false),
        RtConfig::rest(Mode::Secure, false),
        RtConfig::rest_perfect(false),
    ]
}

/// The token widths of Figure 8.
pub fn fig8_widths() -> [TokenWidth; 3] {
    [TokenWidth::B16, TokenWidth::B32, TokenWidth::B64]
}

/// Weighted arithmetic mean overhead (the paper's *WtdAriMean*,
/// footnote 5): total hardened runtime over total plain runtime, minus
/// one — i.e. each benchmark weighted by its plain runtime.
///
/// Degenerate inputs (empty slices, all-zero plain cycles) yield 0.0
/// rather than NaN, so partially failed sweeps still summarise.
pub fn wtd_ari_mean_overhead(plain_cycles: &[u64], hardened_cycles: &[u64]) -> f64 {
    assert_eq!(plain_cycles.len(), hardened_cycles.len());
    let p: f64 = plain_cycles.iter().map(|&c| c as f64).sum();
    let h: f64 = hardened_cycles.iter().map(|&c| c as f64).sum();
    if p == 0.0 {
        return 0.0;
    }
    (h / p - 1.0) * 100.0
}

/// Geometric mean overhead (the paper's *GeoMean*, footnote 6).
///
/// Pairs with a zero cycle count on either side carry no usable ratio
/// and are skipped; if nothing remains (including empty inputs) the
/// mean is 0.0 rather than NaN/∞.
pub fn geo_mean_overhead(plain_cycles: &[u64], hardened_cycles: &[u64]) -> f64 {
    assert_eq!(plain_cycles.len(), hardened_cycles.len());
    let ratios: Vec<f64> = plain_cycles
        .iter()
        .zip(hardened_cycles)
        .filter(|&(&p, &h)| p > 0 && h > 0)
        .map(|(&p, &h)| (h as f64 / p as f64).ln())
        .collect();
    if ratios.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = ratios.iter().sum();
    ((log_sum / ratios.len() as f64).exp() - 1.0) * 100.0
}

/// Writes `text` to `path` (creating parent directories) and reports
/// the path on stderr.
pub fn write_text_file(path: &std::path::Path, text: &str) -> Result<(), String> {
    let write = || -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, text)
    };
    write().map_err(|e| format!("FAILED writing {}: {e}", path.display()))?;
    eprintln!("# wrote {}", path.display());
    Ok(())
}

/// A header identifying the simulated machine (the paper prints Table
/// II with every result; we do the lightweight equivalent) and the
/// scale the numbers below it were simulated at.
pub fn machine_header(what: &str, scale: Scale) -> String {
    format!("# {what}\n# machine: {MACHINE}\n{}\n", scale_header(scale))
}

/// The `# scale:` line every text artifact of simulated numbers carries.
pub fn scale_header(scale: Scale) -> String {
    format!("# scale: {}\n", scale_name(scale))
}

/// Scale name as serialised into results (`"test"` / `"ref"`).
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Ref => "ref",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means_match_definitions() {
        let plain = [100, 300];
        let hardened = [150, 300];
        // Weighted: (450/400 - 1) = 12.5%.
        assert!((wtd_ari_mean_overhead(&plain, &hardened) - 12.5).abs() < 1e-9);
        // Geo: sqrt(1.5 * 1.0) - 1 ≈ 22.47%.
        assert!((geo_mean_overhead(&plain, &hardened) - 22.474487).abs() < 1e-3);
    }

    #[test]
    fn means_guard_degenerate_inputs() {
        // Empty sweeps summarise to zero, not NaN.
        assert_eq!(wtd_ari_mean_overhead(&[], &[]), 0.0);
        assert_eq!(geo_mean_overhead(&[], &[]), 0.0);
        // All plain cycles zero: no usable ratio anywhere.
        assert_eq!(wtd_ari_mean_overhead(&[0, 0], &[5, 7]), 0.0);
        assert_eq!(geo_mean_overhead(&[0, 0], &[5, 7]), 0.0);
        // A zero entry on either side is skipped, not propagated as ∞.
        assert!((geo_mean_overhead(&[0, 100], &[50, 150]) - 50.0).abs() < 1e-9);
        assert!((geo_mean_overhead(&[100, 100], &[0, 150]) - 50.0).abs() < 1e-9);
        assert!(geo_mean_overhead(&[0, 100], &[50, 150]).is_finite());
    }

    #[test]
    fn fig7_has_seven_configs_in_order() {
        let c = fig7_configs();
        assert_eq!(c.len(), 7);
        assert_eq!(c[0].label(), "asan");
        assert_eq!(c[2].label(), "rest-secure-full");
        assert_eq!(c[6].label(), "rest-perfecthw-heap");
    }
}
