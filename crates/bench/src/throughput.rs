//! Guest-throughput benchmarking: how many guest instructions per host
//! second the functional emulator sustains, on the decoded-uop-cache
//! fast path, the superblock-trace tier stacked on top of it, and the
//! re-decode-every-fetch reference path.
//!
//! The `perf` binary measures every benchmark row under a small set of
//! protection configurations, checks the three tiers retire identical
//! instruction/micro-op counts with identical stop reasons (a cheap
//! always-on differential gate), and writes the
//! `rest-throughput/v2` document to `results/BENCH_throughput.json`.
//!
//! Wall times are inherently nondeterministic, so — like the host
//! profile — this document follows the `BENCH_` naming convention and
//! is **never** part of an experiment's deterministic result JSON. It
//! is the only place the effective worker count is recorded.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rest_cpu::{Emulator, ExecEngine, ExecTier, SimConfig, StopReason};
use rest_isa::DynInst;
use rest_obs::Json;
use rest_runtime::RtConfig;
use rest_workloads::{Scale, Workload, WorkloadParams};

use crate::{stack_for, FigureRow};

/// Schema identifier emitted in (and required of) throughput documents.
/// v2 added the superblock-trace tier columns (`trace_wall_s`,
/// `trace_ips`, `trace_speedup`).
pub const SCHEMA: &str = "rest-throughput/v2";

/// One (benchmark row × protection configuration) measurement to take.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Row display name.
    pub name: String,
    /// Workload kernel.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Input-set scale.
    pub scale: Scale,
    /// Protection configuration (its label names the cell).
    pub rt: RtConfig,
}

/// The cross product rows × configs, in row-major order.
pub fn cells_for(rows: &[FigureRow], configs: &[RtConfig], scale: Scale) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for row in rows {
        for rt in configs {
            cells.push(CellSpec {
                name: row.name.to_string(),
                workload: row.workload,
                seed: row.seed,
                scale,
                rt: rt.clone(),
            });
        }
    }
    cells
}

/// One measured cell: matching guest work on all three execution
/// tiers, with each tier's host wall time.
#[derive(Debug, Clone)]
pub struct ThroughputCell {
    /// Row display name.
    pub name: String,
    /// Configuration label (`"plain"`, `"asan"`, …).
    pub config: String,
    /// Guest macro instructions retired (identical on every tier).
    pub insts: u64,
    /// Guest micro-ops emitted (identical on every tier).
    pub uops: u64,
    /// Host wall time of the fast-path run.
    pub fast_wall: Duration,
    /// Host wall time of the superblock-trace run.
    pub trace_wall: Duration,
    /// Host wall time of the reference-path run.
    pub reference_wall: Duration,
}

/// Timed repetitions per tier per cell; the fastest wall is recorded.
const MEASURE_REPS: usize = 3;

/// Runs `run` [`MEASURE_REPS`] times, returning the rep with the lowest
/// wall time (the work is deterministic, so reps differ only by host
/// noise).
fn best_of(mut run: impl FnMut() -> (Duration, Emulator)) -> (Duration, Emulator) {
    let (mut wall, mut em) = run();
    for _ in 1..MEASURE_REPS {
        let (w, e) = run();
        if w < wall {
            wall = w;
            em = e;
        }
    }
    (wall, em)
}

fn ips(insts: u64, wall: Duration) -> f64 {
    let secs = wall.as_secs_f64();
    if secs > 0.0 {
        insts as f64 / secs
    } else {
        0.0
    }
}

fn ratio(slow: Duration, fast: Duration) -> f64 {
    let fast = fast.as_secs_f64();
    if fast > 0.0 {
        slow.as_secs_f64() / fast
    } else {
        0.0
    }
}

impl ThroughputCell {
    /// Guest instructions per host second on the fast path.
    pub fn fast_ips(&self) -> f64 {
        ips(self.insts, self.fast_wall)
    }

    /// Guest instructions per host second on the trace tier.
    pub fn trace_ips(&self) -> f64 {
        ips(self.insts, self.trace_wall)
    }

    /// Guest instructions per host second on the reference path.
    pub fn reference_ips(&self) -> f64 {
        ips(self.insts, self.reference_wall)
    }

    /// Fast-path speedup over the reference path (>1 = faster).
    pub fn speedup(&self) -> f64 {
        ratio(self.reference_wall, self.fast_wall)
    }

    /// Trace-tier speedup over the fast path (>1 = faster).
    pub fn trace_speedup(&self) -> f64 {
        ratio(self.fast_wall, self.trace_wall)
    }
}

/// Measures one cell three times: a fast-path functional run
/// (decoded-uop cache, counting sink), a superblock-trace run (the
/// same counting sink with hot loops fused into straight-line trace
/// ops), and a reference-path run (re-decode every fetch, micro-ops
/// materialised into a reused buffer — the pre-cache behaviour),
/// failing if any tier disagrees on any architectural count.
pub fn measure(spec: &CellSpec) -> Result<ThroughputCell, String> {
    let params = WorkloadParams {
        scale: spec.scale,
        stack_scheme: stack_for(&spec.rt),
        token_width: spec.rt.token_width,
        seed: spec.seed,
    };

    // Each tier runs `MEASURE_REPS` times and the fastest wall is kept:
    // the simulated work is deterministic, so the minimum is the
    // standard noise-robust estimator (scheduler preemptions and cache
    // pollution only ever add time, never subtract it).
    let (fast_wall, mut fast) = best_of(|| {
        let mut cfg = SimConfig::isca2018(spec.rt.clone());
        cfg.tier = ExecTier::Fast;
        let mut em = Emulator::new(spec.workload.build(&params), &cfg);
        let started = Instant::now();
        em.run_functional();
        (started.elapsed(), em)
    });
    let fast_stop = fast.take_stop().expect("run_functional stops");

    let (trace_wall, mut trace) = best_of(|| {
        let mut cfg = SimConfig::isca2018(spec.rt.clone());
        cfg.tier = ExecTier::Trace;
        let mut em = Emulator::new(spec.workload.build(&params), &cfg);
        let started = Instant::now();
        em.run_functional();
        (started.elapsed(), em)
    });
    let trace_stop = trace.take_stop().expect("run_functional stops");

    let (reference_wall, mut reference) = best_of(|| {
        let mut cfg = SimConfig::isca2018(spec.rt.clone());
        cfg.tier = ExecTier::Reference;
        let mut em = Emulator::new(spec.workload.build(&params), &cfg);
        let mut buf: Vec<DynInst> = Vec::new();
        let started = Instant::now();
        while em.step(&mut buf) {
            buf.clear();
        }
        (started.elapsed(), em)
    });
    let reference_stop = reference.take_stop().expect("step loop stops");

    let cell = format!("{} {}", spec.name, spec.rt.label());
    if fast_stop != reference_stop || fast_stop != trace_stop {
        return Err(format!(
            "{cell}: stop reasons diverge — fast {fast_stop:?}, trace {trace_stop:?}, \
             reference {reference_stop:?}"
        ));
    }
    if fast_stop != StopReason::Exit(0) {
        return Err(format!("{cell}: stopped with {fast_stop:?}"));
    }
    for (tier, other) in [("trace", &trace), ("reference", &reference)] {
        if fast.insts() != other.insts() || fast.uops() != other.uops() {
            return Err(format!(
                "{cell}: counts diverge — fast {}i/{}u, {tier} {}i/{}u",
                fast.insts(),
                fast.uops(),
                other.insts(),
                other.uops()
            ));
        }
    }
    Ok(ThroughputCell {
        name: spec.name.clone(),
        config: spec.rt.label(),
        insts: fast.insts(),
        uops: fast.uops(),
        fast_wall,
        trace_wall,
        reference_wall,
    })
}

/// Measures every cell on a pool of `workers` threads, preserving input
/// order and reporting per-cell progress on stderr. The first
/// divergence fails the whole sweep.
pub fn measure_all(cells: &[CellSpec], workers: usize) -> Result<Vec<ThroughputCell>, String> {
    let total = cells.len();
    let results: Vec<Mutex<Option<Result<ThroughputCell, String>>>> =
        (0..total).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1).min(total.max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                let spec = &cells[i];
                let result = measure(spec);
                let n = done.fetch_add(1, Ordering::Relaxed) + 1;
                match &result {
                    Ok(c) => eprintln!(
                        "[{n}/{total}] {} {}: trace {:.0} / fast {:.0} / ref {:.0} guest-IPS \
                         ({:.2}x trace-over-fast)",
                        c.name,
                        c.config,
                        c.trace_ips(),
                        c.fast_ips(),
                        c.reference_ips(),
                        c.trace_speedup()
                    ),
                    Err(e) => eprintln!("[{n}/{total}] FAILED: {e}"),
                }
                *results[i].lock().unwrap() = Some(result);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("every cell measured"))
        .collect()
}

/// The full throughput report: one document per `perf` invocation.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// Scale name as serialized (`"test"` / `"ref"`).
    pub scale: String,
    /// Effective worker count after the `--jobs` clamp — recorded here
    /// (and only here) because experiment JSON must stay byte-identical
    /// at any parallelism level.
    pub effective_jobs: usize,
    /// Measured cells, in rows × configs order.
    pub cells: Vec<ThroughputCell>,
}

impl ThroughputReport {
    fn totals(&self) -> (u64, Duration, Duration, Duration) {
        let insts = self.cells.iter().map(|c| c.insts).sum();
        let fast = self.cells.iter().map(|c| c.fast_wall).sum();
        let trace = self.cells.iter().map(|c| c.trace_wall).sum();
        let reference = self.cells.iter().map(|c| c.reference_wall).sum();
        (insts, fast, trace, reference)
    }

    /// Sweep-wide fast-path guest-IPS (total instructions over total
    /// fast wall time).
    pub fn fast_ips(&self) -> f64 {
        let (insts, fast, _, _) = self.totals();
        ips(insts, fast)
    }

    /// Sweep-wide trace-tier guest-IPS.
    pub fn trace_ips(&self) -> f64 {
        let (insts, _, trace, _) = self.totals();
        ips(insts, trace)
    }

    /// Sweep-wide reference-path guest-IPS.
    pub fn reference_ips(&self) -> f64 {
        let (insts, _, _, reference) = self.totals();
        ips(insts, reference)
    }

    /// Sweep-wide speedup: total reference wall over total fast wall.
    pub fn speedup(&self) -> f64 {
        let (_, fast, _, reference) = self.totals();
        ratio(reference, fast)
    }

    /// Sweep-wide trace-over-fast speedup: total fast wall over total
    /// trace wall.
    pub fn trace_speedup(&self) -> f64 {
        let (_, fast, trace, _) = self.totals();
        ratio(fast, trace)
    }

    /// Serialises to the `rest-throughput/v2` document:
    ///
    /// ```text
    /// {"schema": "rest-throughput/v2", "scale": "test"|"ref",
    ///  "effective_jobs": N,
    ///  "cells": [{"benchmark": .., "config": .., "guest_insts": N,
    ///             "guest_uops": N, "fast_wall_s": .., "trace_wall_s": ..,
    ///             "reference_wall_s": .., "fast_ips": .., "trace_ips": ..,
    ///             "reference_ips": .., "speedup": .., "trace_speedup": ..}, ..],
    ///  "summary": {"cells": N, "guest_insts": N, "fast_ips": ..,
    ///              "trace_ips": .., "reference_ips": .., "speedup": ..,
    ///              "trace_speedup": ..}}
    /// ```
    pub fn to_json(&self) -> Json {
        let (insts, _, _, _) = self.totals();
        Json::obj(vec![
            ("schema", Json::from(SCHEMA)),
            ("scale", Json::from(self.scale.as_str())),
            ("effective_jobs", Json::UInt(self.effective_jobs as u64)),
            (
                "cells",
                Json::Arr(
                    self.cells
                        .iter()
                        .map(|c| {
                            Json::obj(vec![
                                ("benchmark", Json::from(c.name.as_str())),
                                ("config", Json::from(c.config.as_str())),
                                ("guest_insts", Json::UInt(c.insts)),
                                ("guest_uops", Json::UInt(c.uops)),
                                ("fast_wall_s", Json::Num(c.fast_wall.as_secs_f64())),
                                ("trace_wall_s", Json::Num(c.trace_wall.as_secs_f64())),
                                (
                                    "reference_wall_s",
                                    Json::Num(c.reference_wall.as_secs_f64()),
                                ),
                                ("fast_ips", Json::Num(c.fast_ips())),
                                ("trace_ips", Json::Num(c.trace_ips())),
                                ("reference_ips", Json::Num(c.reference_ips())),
                                ("speedup", Json::Num(c.speedup())),
                                ("trace_speedup", Json::Num(c.trace_speedup())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "summary",
                Json::obj(vec![
                    ("cells", Json::UInt(self.cells.len() as u64)),
                    ("guest_insts", Json::UInt(insts)),
                    ("fast_ips", Json::Num(self.fast_ips())),
                    ("trace_ips", Json::Num(self.trace_ips())),
                    ("reference_ips", Json::Num(self.reference_ips())),
                    ("speedup", Json::Num(self.speedup())),
                    ("trace_speedup", Json::Num(self.trace_speedup())),
                ]),
            ),
        ])
    }

    /// The document as pretty-printed text with a trailing newline.
    pub fn render(&self) -> String {
        let mut text = self.to_json().to_string_pretty();
        text.push('\n');
        text
    }

    /// Prints the per-cell guest-IPS table and summary to stdout.
    pub fn print_text_table(&self) {
        println!(
            "{:<18}{:<20}{:>14}{:>14}{:>14}{:>14}{:>10}",
            "benchmark", "config", "guest insts", "trace IPS", "fast IPS", "ref IPS", "tr/fast"
        );
        for c in &self.cells {
            println!(
                "{:<18}{:<20}{:>14}{:>14.0}{:>14.0}{:>14.0}{:>9.2}x",
                c.name,
                c.config,
                c.insts,
                c.trace_ips(),
                c.fast_ips(),
                c.reference_ips(),
                c.trace_speedup()
            );
        }
        println!(
            "{:<18}{:<20}{:>14}{:>14.0}{:>14.0}{:>14.0}{:>9.2}x",
            "TOTAL",
            "",
            self.totals().0,
            self.trace_ips(),
            self.fast_ips(),
            self.reference_ips(),
            self.trace_speedup()
        );
    }

    /// Checks that a parsed document matches the `rest-throughput/v2`
    /// shape and rule `tiers`. `bench-diff` runs it on both inputs, and
    /// the committed-artifact test on `results/BENCH_throughput.json`.
    pub fn validate(doc: &Json) -> Result<(), String> {
        match doc.get("schema").and_then(Json::as_str) {
            Some(s) if s == SCHEMA => {}
            Some(s) => return Err(format!("unexpected schema {s:?}")),
            None => return Err("missing \"schema\"".to_string()),
        }
        doc.req("scale", Json::as_str)?;
        doc.req("effective_jobs", Json::as_u64)?;
        let cells = doc.req("cells", Json::as_arr)?;
        for c in cells {
            for key in ["benchmark", "config"] {
                c.req(key, Json::as_str)?;
            }
            let insts = c.req("guest_insts", Json::as_u64)?;
            let uops = c.req("guest_uops", Json::as_u64)?;
            let mut ips_positive = true;
            for key in [
                "fast_wall_s",
                "trace_wall_s",
                "reference_wall_s",
                "fast_ips",
                "trace_ips",
                "reference_ips",
                "speedup",
                "trace_speedup",
            ] {
                let x = c.req(key, Json::as_f64)?;
                ips_positive &= !key.ends_with("_ips") || x > 0.0;
            }
            // Rule `tiers`, per cell: every tier retired guest work.
            if insts == 0 || uops < insts || !ips_positive {
                return Err("tiers: a cell retired no guest work".to_string());
            }
        }
        let summary = doc.get("summary").ok_or("missing \"summary\"")?;
        for key in [
            "cells",
            "guest_insts",
            "fast_ips",
            "trace_ips",
            "reference_ips",
            "speedup",
            "trace_speedup",
        ] {
            summary.req(key, Json::as_f64)?;
        }
        let count = summary.get("cells").and_then(Json::as_u64).unwrap_or(0);
        if count != cells.len() as u64 {
            return Err(format!(
                "summary.cells {} != cells.len() {}",
                count,
                cells.len()
            ));
        }
        // Rule `tiers`, sweep-wide: the fast path beats the reference
        // path and the trace tier the fast path.
        for key in ["speedup", "trace_speedup"] {
            let x = summary.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            if x <= 1.0 {
                return Err(format!("tiers: summary.{key} is {x}, must exceed 1"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(name: &str, insts: u64, fast_ms: u64, reference_ms: u64) -> ThroughputCell {
        ThroughputCell {
            name: name.to_string(),
            config: "plain".to_string(),
            insts,
            uops: insts + 7,
            fast_wall: Duration::from_millis(fast_ms),
            trace_wall: Duration::from_millis(fast_ms / 2),
            reference_wall: Duration::from_millis(reference_ms),
        }
    }

    #[test]
    fn report_document_validates() {
        let report = ThroughputReport {
            scale: "test".to_string(),
            effective_jobs: 2,
            cells: vec![cell("lbm", 1_000_000, 100, 300), cell("hmmer", 500_000, 50, 100)],
        };
        let doc = Json::parse(&report.render()).expect("valid JSON");
        ThroughputReport::validate(&doc).expect("schema-valid");
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(SCHEMA));
        assert_eq!(doc.get("effective_jobs").unwrap().as_u64(), Some(2));
        let summary = doc.get("summary").unwrap();
        assert_eq!(summary.get("cells").unwrap().as_u64(), Some(2));
        assert_eq!(summary.get("guest_insts").unwrap().as_u64(), Some(1_500_000));
        // Totals: 150ms fast vs 400ms reference.
        let speedup = summary.get("speedup").unwrap().as_f64().unwrap();
        assert!((speedup - 400.0 / 150.0).abs() < 1e-9);
        // Trace totals: 75ms trace vs 150ms fast.
        let trace_speedup = summary.get("trace_speedup").unwrap().as_f64().unwrap();
        assert!((trace_speedup - 2.0).abs() < 1e-9);
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        let missing = Json::obj(vec![("schema", Json::from(SCHEMA))]);
        assert!(ThroughputReport::validate(&missing).is_err());
        let wrong = Json::obj(vec![("schema", Json::from("other/v9"))]);
        assert!(ThroughputReport::validate(&wrong).is_err());
        // v1 documents (no trace columns) must be rejected by name.
        let v1 = Json::obj(vec![("schema", Json::from("rest-throughput/v1"))]);
        assert!(ThroughputReport::validate(&v1).is_err());
        assert!(ThroughputReport::validate(&Json::Null).is_err());
        // A trace tier no faster than the fast path breaks rule `tiers`.
        let mut slow = cell("lbm", 1_000_000, 100, 300);
        slow.trace_wall = slow.fast_wall;
        let report = ThroughputReport {
            scale: "test".to_string(),
            effective_jobs: 1,
            cells: vec![slow],
        };
        let doc = Json::parse(&report.render()).unwrap();
        assert!(ThroughputReport::validate(&doc)
            .unwrap_err()
            .starts_with("tiers:"));
    }

    #[test]
    fn zero_wall_times_do_not_divide_by_zero() {
        let c = cell("lbm", 100, 0, 0);
        assert_eq!(c.fast_ips(), 0.0);
        assert_eq!(c.speedup(), 0.0);
        assert_eq!(c.trace_ips(), 0.0);
        assert_eq!(c.trace_speedup(), 0.0);
    }

    #[test]
    fn cells_for_is_row_major() {
        let rows = [FigureRow::of(Workload::Lbm), FigureRow::of(Workload::Hmmer)];
        let configs = [RtConfig::plain(), RtConfig::asan()];
        let cells = cells_for(&rows, &configs, Scale::Test);
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].name, "lbm");
        assert_eq!(cells[1].name, "lbm");
        assert_eq!(cells[1].rt.label(), "asan");
        assert_eq!(cells[2].name, "hmmer");
    }

    #[test]
    fn measure_agrees_across_paths() {
        let spec = CellSpec {
            name: "lbm".to_string(),
            workload: Workload::Lbm,
            seed: 0xC0FFEE,
            scale: Scale::Test,
            rt: RtConfig::plain(),
        };
        let cell = measure(&spec).expect("paths agree");
        assert!(cell.insts > 0);
        assert!(cell.uops >= cell.insts);
        assert!(cell.speedup().is_finite());
        assert!(cell.trace_speedup().is_finite());
    }
}
