//! Throughput regression gate: compares a freshly measured
//! `rest-throughput/v2` document against a committed baseline and fails
//! when the sweep-wide fast-path or trace-tier guest-IPS regressed
//! beyond tolerance.
//!
//! The `bench-diff` binary wraps [`diff`]:
//!
//! ```text
//! bench-diff --baseline results/BENCH_throughput.json \
//!            --current  /tmp/fresh.json [--tolerance PCT]
//! ```
//!
//! Both inputs are validated against the schema before any comparison,
//! so a truncated or mis-shaped artefact reads as a usage error (exit
//! 2), never as a pass. Absolute guest-IPS differs across hosts; the
//! gate is meant for same-host comparisons (CI measures baseline and
//! current in one job) where the *ratio* is meaningful.

use rest_obs::Json;

use crate::throughput::ThroughputReport;

/// Default regression tolerance: the sweep fails when the current
/// aggregate fast-path guest-IPS is more than this far below baseline.
pub const DEFAULT_TOLERANCE_PCT: f64 = 5.0;

/// One (benchmark, config) cell present in both documents.
#[derive(Debug, Clone)]
pub struct CellDelta {
    /// Row display name.
    pub benchmark: String,
    /// Configuration label.
    pub config: String,
    /// Baseline fast-path guest-IPS.
    pub baseline_ips: f64,
    /// Current fast-path guest-IPS.
    pub current_ips: f64,
}

impl CellDelta {
    /// Change in percent (negative = slower than baseline).
    pub fn delta_pct(&self) -> f64 {
        if self.baseline_ips > 0.0 {
            (self.current_ips / self.baseline_ips - 1.0) * 100.0
        } else {
            0.0
        }
    }
}

/// The comparison of two throughput documents.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Baseline sweep-wide fast-path guest-IPS (`summary.fast_ips`).
    pub baseline_ips: f64,
    /// Current sweep-wide fast-path guest-IPS.
    pub current_ips: f64,
    /// Baseline sweep-wide trace-tier guest-IPS (`summary.trace_ips`).
    pub baseline_trace_ips: f64,
    /// Current sweep-wide trace-tier guest-IPS.
    pub current_trace_ips: f64,
    /// Regression tolerance in percent.
    pub tolerance_pct: f64,
    /// Cells present in both documents, in current-document order.
    pub cells: Vec<CellDelta>,
    /// Cells present in only one document (informational: the aggregate
    /// gate still applies, but coverage changed).
    pub unmatched: Vec<String>,
}

fn pct(current: f64, baseline: f64) -> f64 {
    if baseline > 0.0 {
        (current / baseline - 1.0) * 100.0
    } else {
        0.0
    }
}

impl DiffReport {
    /// Aggregate fast-path change in percent (negative = slower than
    /// baseline).
    pub fn delta_pct(&self) -> f64 {
        pct(self.current_ips, self.baseline_ips)
    }

    /// Aggregate trace-tier change in percent.
    pub fn trace_delta_pct(&self) -> f64 {
        pct(self.current_trace_ips, self.baseline_trace_ips)
    }

    /// Whether either aggregate guest-IPS (fast path or trace tier)
    /// regressed beyond tolerance.
    pub fn regressed(&self) -> bool {
        self.delta_pct() < -self.tolerance_pct
            || self.trace_delta_pct() < -self.tolerance_pct
    }

    /// The human-readable comparison table plus verdict line.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<18}{:<20}{:>14}{:>14}{:>10}",
            "benchmark", "config", "base IPS", "curr IPS", "delta"
        );
        for c in &self.cells {
            let _ = writeln!(
                out,
                "{:<18}{:<20}{:>14.0}{:>14.0}{:>+9.2}%",
                c.benchmark,
                c.config,
                c.baseline_ips,
                c.current_ips,
                c.delta_pct()
            );
        }
        for name in &self.unmatched {
            let _ = writeln!(out, "# unmatched cell: {name}");
        }
        let _ = writeln!(
            out,
            "{:<18}{:<20}{:>14.0}{:>14.0}{:>+9.2}%",
            "AGGREGATE (fast)",
            "",
            self.baseline_ips,
            self.current_ips,
            self.delta_pct()
        );
        let _ = writeln!(
            out,
            "{:<18}{:<20}{:>14.0}{:>14.0}{:>+9.2}%",
            "AGGREGATE (trace)",
            "",
            self.baseline_trace_ips,
            self.current_trace_ips,
            self.trace_delta_pct()
        );
        let _ = writeln!(
            out,
            "{}: aggregate guest-IPS fast {:+.2}% / trace {:+.2}% vs baseline \
             (tolerance -{:.2}%)",
            if self.regressed() { "REGRESSION" } else { "OK" },
            self.delta_pct(),
            self.trace_delta_pct(),
            self.tolerance_pct
        );
        out
    }
}

fn summary_ips(doc: &Json, key: &str, which: &str) -> Result<f64, String> {
    doc.get("summary")
        .and_then(|s| s.get(key))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{which}: missing summary.{key}"))
}

fn cell_map(doc: &Json) -> Vec<(String, f64)> {
    doc.get("cells")
        .and_then(Json::as_arr)
        .map(|cells| {
            cells
                .iter()
                .filter_map(|c| {
                    let benchmark = c.get("benchmark")?.as_str()?;
                    let config = c.get("config")?.as_str()?;
                    let ips = c.get("fast_ips")?.as_f64()?;
                    Some((format!("{benchmark} {config}"), ips))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Validates both documents against `rest-throughput/v2` and compares
/// their aggregate fast-path and trace-tier guest-IPS (plus per-cell
/// fast-path deltas for the report). Schema violations are errors, not
/// passes.
pub fn diff(baseline: &Json, current: &Json, tolerance_pct: f64) -> Result<DiffReport, String> {
    ThroughputReport::validate(baseline).map_err(|e| format!("baseline: {e}"))?;
    ThroughputReport::validate(current).map_err(|e| format!("current: {e}"))?;
    if tolerance_pct.is_nan() || tolerance_pct < 0.0 {
        return Err(format!("tolerance must be >= 0, got {tolerance_pct}"));
    }
    let base_cells = cell_map(baseline);
    let curr_cells = cell_map(current);
    let mut cells = Vec::new();
    let mut unmatched = Vec::new();
    for (name, current_ips) in &curr_cells {
        match base_cells.iter().find(|(n, _)| n == name) {
            Some((_, baseline_ips)) => {
                let (benchmark, config) = name.split_once(' ').unwrap_or((name, ""));
                cells.push(CellDelta {
                    benchmark: benchmark.to_string(),
                    config: config.to_string(),
                    baseline_ips: *baseline_ips,
                    current_ips: *current_ips,
                });
            }
            None => unmatched.push(format!("{name} (current only)")),
        }
    }
    for (name, _) in &base_cells {
        if !curr_cells.iter().any(|(n, _)| n == name) {
            unmatched.push(format!("{name} (baseline only)"));
        }
    }
    Ok(DiffReport {
        baseline_ips: summary_ips(baseline, "fast_ips", "baseline")?,
        current_ips: summary_ips(current, "fast_ips", "current")?,
        baseline_trace_ips: summary_ips(baseline, "trace_ips", "baseline")?,
        current_trace_ips: summary_ips(current, "trace_ips", "current")?,
        tolerance_pct,
        cells,
        unmatched,
    })
}

/// Reads and parses one throughput document from disk.
pub fn load(path: &std::path::Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a schema-valid v2 document. Each cell carries a fast-path
    /// guest-IPS; the trace tier defaults to 2x fast unless overridden
    /// via `doc_with_trace`.
    fn doc(ips_per_cell: &[(&str, &str, f64)]) -> Json {
        let total: f64 = ips_per_cell.iter().map(|&(_, _, i)| i).sum();
        let mean = total / ips_per_cell.len().max(1) as f64;
        doc_with_trace(ips_per_cell, mean * 2.0)
    }

    fn doc_with_trace(ips_per_cell: &[(&str, &str, f64)], trace_ips: f64) -> Json {
        let total: f64 = ips_per_cell.iter().map(|&(_, _, i)| i).sum();
        let mean = total / ips_per_cell.len().max(1) as f64;
        Json::obj(vec![
            ("schema", Json::from(crate::throughput::SCHEMA)),
            ("scale", Json::from("test")),
            ("effective_jobs", Json::UInt(2)),
            (
                "cells",
                Json::Arr(
                    ips_per_cell
                        .iter()
                        .map(|&(b, c, ips)| {
                            Json::obj(vec![
                                ("benchmark", Json::from(b)),
                                ("config", Json::from(c)),
                                ("guest_insts", Json::UInt(1000)),
                                ("guest_uops", Json::UInt(1100)),
                                ("fast_wall_s", Json::Num(0.1)),
                                ("trace_wall_s", Json::Num(0.05)),
                                ("reference_wall_s", Json::Num(0.3)),
                                ("fast_ips", Json::Num(ips)),
                                ("trace_ips", Json::Num(ips * 2.0)),
                                ("reference_ips", Json::Num(ips / 3.0)),
                                ("speedup", Json::Num(3.0)),
                                ("trace_speedup", Json::Num(2.0)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "summary",
                Json::obj(vec![
                    ("cells", Json::UInt(ips_per_cell.len() as u64)),
                    ("guest_insts", Json::UInt(1000 * ips_per_cell.len() as u64)),
                    ("fast_ips", Json::Num(mean)),
                    ("trace_ips", Json::Num(trace_ips)),
                    ("reference_ips", Json::Num(mean / 3.0)),
                    ("speedup", Json::Num(3.0)),
                    ("trace_speedup", Json::Num(2.0)),
                ]),
            ),
        ])
    }

    #[test]
    fn within_tolerance_passes() {
        let base = doc(&[("lbm", "plain", 1000.0), ("mcf", "plain", 2000.0)]);
        let curr = doc(&[("lbm", "plain", 980.0), ("mcf", "plain", 1950.0)]);
        let report = diff(&base, &curr, DEFAULT_TOLERANCE_PCT).unwrap();
        assert!(!report.regressed(), "{}", report.render());
        assert_eq!(report.cells.len(), 2);
        assert!(report.unmatched.is_empty());
        assert!(report.render().contains("OK:"));
    }

    #[test]
    fn regression_beyond_tolerance_fails() {
        let base = doc(&[("lbm", "plain", 1000.0)]);
        // 10% below baseline with a 5% tolerance: regression.
        let curr = doc(&[("lbm", "plain", 900.0)]);
        let report = diff(&base, &curr, 5.0).unwrap();
        assert!(report.regressed());
        assert!((report.delta_pct() + 10.0).abs() < 1e-9);
        assert!(report.render().contains("REGRESSION"));
        // The same delta passes under a looser tolerance.
        assert!(!diff(&base, &curr, 15.0).unwrap().regressed());
    }

    #[test]
    fn trace_tier_regression_fails_even_when_fast_path_holds() {
        let cells = [("lbm", "plain", 1000.0)];
        let base = doc_with_trace(&cells, 2000.0);
        // Fast path identical, trace tier 20% below baseline.
        let curr = doc_with_trace(&cells, 1600.0);
        let report = diff(&base, &curr, 5.0).unwrap();
        assert!(report.regressed(), "{}", report.render());
        assert!((report.delta_pct()).abs() < 1e-9);
        assert!((report.trace_delta_pct() + 20.0).abs() < 1e-9);
        assert!(report.render().contains("REGRESSION"));
    }

    #[test]
    fn improvements_never_fail() {
        let base = doc(&[("lbm", "plain", 1000.0)]);
        let curr = doc(&[("lbm", "plain", 5000.0)]);
        assert!(!diff(&base, &curr, 0.0).unwrap().regressed());
    }

    #[test]
    fn unmatched_cells_are_reported_not_fatal() {
        let base = doc(&[("lbm", "plain", 1000.0), ("mcf", "plain", 1000.0)]);
        let curr = doc(&[("lbm", "plain", 1000.0), ("hmmer", "asan", 1000.0)]);
        let report = diff(&base, &curr, 5.0).unwrap();
        assert_eq!(report.cells.len(), 1);
        assert_eq!(report.unmatched.len(), 2);
        assert!(report.render().contains("unmatched cell"));
    }

    #[test]
    fn malformed_documents_are_errors_not_passes() {
        let good = doc(&[("lbm", "plain", 1000.0)]);
        let bad = Json::obj(vec![("schema", Json::from("other/v9"))]);
        assert!(diff(&bad, &good, 5.0).unwrap_err().starts_with("baseline:"));
        assert!(diff(&good, &bad, 5.0).unwrap_err().starts_with("current:"));
        assert!(diff(&good, &good, -1.0).is_err());
        assert!(diff(&good, &good, f64::NAN).is_err());
    }
}
