//! Result sink: every experiment serialises a machine-readable JSON
//! document, returned as an [`Artifact`] beside its paper-formatted
//! text table.
//!
//! The JSON is hand-rolled (the build environment has no registry
//! access, so no serde): [`Json`] — re-exported from [`rest_obs`] — is
//! a minimal value tree whose object fields keep insertion order,
//! making the serialised output fully deterministic — the same
//! experiment matrix produces byte-identical JSON regardless of
//! `--jobs`.
//!
//! # Document schema
//!
//! Every document starts with the experiment identity:
//!
//! ```json
//! {
//!   "experiment": "fig7",
//!   "scale": "test" | "ref",
//!   "machine": "<Table II one-liner>",
//!   "filter": null | "<substring>",
//!   ...
//! }
//! ```
//!
//! `filter` names `--filter` only in the documents of an experiment that
//! selected its rows with it ([`crate::cli::Harness::filter_rows`]).
//!
//! Matrix experiments add a `"matrix"` member (see
//! [`ResultSink::push_matrix`]):
//!
//! ```json
//! "matrix": {
//!   "columns": ["asan", "rest-debug-full", ...],
//!   "rows": [
//!     {
//!       "benchmark": "bzip2", "workload": "bzip2", "seed": 12648430,
//!       "plain": { "cycles": 123, "stats": { "core.cycles": 123, ... },
//!                  "derived": { ... }, "cpi": { ... } },
//!       "cells": [
//!         { "label": "asan", "cycles": 456, "overhead_pct": 12.5,
//!           "stats": { ... }, "derived": { ... }, "cpi": { ... } },
//!         { "label": "...", "error": { "kind": "uop-limit",
//!           "detail": "..." } }
//!       ]
//!     }
//!   ],
//!   "summary": {
//!     "wtd_ari_mean_pct": { "asan": 40.1, ... },
//!     "geo_mean_pct": { "asan": 38.9, ... }
//!   }
//! }
//! ```
//!
//! Per-cell members:
//!
//! * `"stats"` — the flat counter snapshot from
//!   [`SimResult::stats_map`](rest_cpu::SimResult::stats_map).
//! * `"derived"` — headline rates computed from the counters:
//!   `"core.uipc"` (committed micro-ops per cycle),
//!   `"mem.l1d_hit_rate"` (L1-D hits over L1-D accesses), and
//!   `"tokens_per_kiloinst_l2_mem"` (token-line transfers crossing the
//!   L2↔memory boundary per thousand committed instructions, the
//!   paper's §VI-B traffic statistic).
//! * `"cpi"` — the commit-time cycle-attribution stack
//!   ([`rest_obs::CpiStack`]): one member per component
//!   (`"base"`, `"fetch_stall"`, `"branch"`, `"iq"`, `"rob"`, `"lsq"`,
//!   `"l1d_miss"`, `"l2_miss"`, `"dram"`, `"store_drain"`,
//!   `"rest_check"`) plus `"total"`; the components sum **exactly** to
//!   `"total"` == `stats["core.cycles"]`.
//! * `"series"` — present only when the run sampled
//!   (`--sample-interval N`): the [`rest_obs::TimeSeries`] document
//!   `{"interval", "dropped", "samples": [{"insts", "cycles",
//!   "gauges", "counters"}]}` with one sample per N committed
//!   instructions.
//! * `"audit"` — present only when the run recorded violations: the
//!   [`rest_obs::AuditLog`] document `{"total", "entries": [{
//!   "detector", "kind", "pc", "addr", ...}]}`.
//! * `"fault"` — present only when the run injected a hardware fault
//!   (`rest-faults`): the [`rest_faults::FaultReport`] summary
//!   `{"kind", "triggered", "site_events", "trigger_event",
//!   "records", "suppressed_hits"}`.
//!
//! Failed jobs serialise as `"error"` cells; non-finite floats
//! serialise as `null`.
//!
//! No document is written unless [`validate`] accepts it.

use rest_cpu::SimResult;
use rest_obs::CpiComponent;
use rest_workloads::Scale;

use crate::engine::{MatrixResults, RowResults};

pub use rest_obs::Json;

/// One file an experiment produces: its name under `--out` and its
/// bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// File name (`"fig7.json"`, `"hotspots.folded"`, …).
    pub file: String,
    /// File contents.
    pub text: String,
}

impl Artifact {
    /// An artifact named `file` holding `text`.
    pub fn new(file: impl Into<String>, text: impl Into<String>) -> Artifact {
        Artifact {
            file: file.into(),
            text: text.into(),
        }
    }
}

/// Accumulates an experiment's JSON document.
pub struct ResultSink {
    experiment: String,
    root: Vec<(String, Json)>,
}

impl ResultSink {
    /// A sink pre-populated with the experiment identity (name, scale,
    /// machine, filter).
    pub fn new(experiment: &str, scale: Scale, filter: Option<&str>) -> ResultSink {
        ResultSink {
            experiment: experiment.to_string(),
            root: vec![
                ("experiment".to_string(), Json::from(experiment)),
                ("scale".to_string(), Json::from(crate::scale_name(scale))),
                ("machine".to_string(), Json::from(crate::MACHINE)),
                ("filter".to_string(), filter.map_or(Json::Null, Json::from)),
            ],
        }
    }

    /// Appends one top-level member.
    pub fn push(&mut self, key: &str, value: Json) {
        self.root.push((key.to_string(), value));
    }

    /// Appends the standard serialisation of a matrix under `key`.
    pub fn push_matrix(&mut self, key: &str, matrix: &MatrixResults) {
        self.push(key, matrix_json(matrix));
    }

    /// The complete document as a pretty-printed string (with trailing
    /// newline) — the bytes of the `.json` artifact. Tests compare
    /// it byte-for-byte across `--jobs` levels.
    pub fn to_json_string(&self) -> String {
        let mut s = Json::Obj(self.root.clone()).to_string_pretty();
        s.push('\n');
        s
    }

    /// The document and its text tables as the `<experiment>.json` and
    /// `<experiment>.txt` artifacts, if the document passes [`validate`];
    /// otherwise the violation, naming the rule and cell.
    pub fn artifacts(&self, text: String) -> Result<Vec<Artifact>, String> {
        validate(&Json::Obj(self.root.clone()))
            .map_err(|e| format!("invalid document, not written: {e}"))?;
        Ok(vec![
            Artifact::new(format!("{}.json", self.experiment), self.to_json_string()),
            Artifact::new(format!("{}.txt", self.experiment), text),
        ])
    }
}

/// Checks a result document against the invariants its schema owns
/// and returns the first violation, naming the rule and the cell.
/// [`ResultSink::artifacts`] runs it before returning any document, and
/// the artifact test runs it over every committed `results/*.json`.
///
/// Rules that the producing code already enforces while it assembles a
/// document are not repeated here; each campaign module's `validate`
/// holds only the rest.
pub fn validate(doc: &Json) -> Result<(), String> {
    // Matrices are found by shape, not by experiment name: every
    // top-level member with `columns` and `rows` is a matrix held to
    // `cpi-sum`.
    if let Json::Obj(members) = doc {
        for (_, member) in members {
            if member.get("columns").is_some() && member.get("rows").is_some() {
                validate_matrix(member)?;
            }
        }
    }
    match doc.get("schema").and_then(Json::as_str) {
        Some(rest_obs::hotspots::SCHEMA) => rest_obs::hotspots::validate(doc),
        Some(rest_obs::ELIDE_SCHEMA) => {
            doc.req("programs", Json::as_arr)?.iter().try_for_each(|p| {
                let program = p.get("program").and_then(Json::as_str).unwrap_or("?");
                rest_obs::validate_elide(p).map_err(|e| format!("elision map of {program}: {e}"))
            })
        }
        Some(rest_obs::HostProfile::SCHEMA) => rest_obs::HostProfile::validate(doc),
        Some(crate::faults::SCHEMA) => crate::faults::validate(doc),
        Some(crate::fuzz::SCHEMA) => crate::fuzz::validate(doc),
        Some(crate::defense::SCHEMA) => crate::defense::validate(doc),
        Some(other) => Err(format!("no validator owns schema {other:?}")),
        // The matrix figures and table1: no rule beyond `cpi-sum`.
        None => Ok(()),
    }
}

/// Rule `cpi-sum`: in every successful matrix cell the CPI components
/// sum exactly to the stack's `total`, which equals `core.cycles`.
fn validate_matrix(matrix: &Json) -> Result<(), String> {
    for row in matrix.req("rows", Json::as_arr)? {
        let benchmark = row.req("benchmark", Json::as_str)?;
        let cells = row.req("cells", Json::as_arr)?;
        for cell in row.get("plain").into_iter().chain(cells) {
            if cell.get("error").is_some() {
                continue;
            }
            let label = cell.req("label", Json::as_str)?;
            let cpi = cell.req("cpi", Some)?;
            let sum: u64 = CpiComponent::ALL
                .iter()
                .filter_map(|c| cpi.get(c.key())?.as_u64())
                .sum();
            let total = cpi.req("total", Json::as_u64)?;
            let cycles = cell.req("stats", Some)?.req("core.cycles", Json::as_u64)?;
            ensure(sum == total && total == cycles, "cpi-sum", || {
                format!(
                    "{benchmark}/{label}: components {sum}, total {total}, core.cycles {cycles}"
                )
            })?;
        }
    }
    Ok(())
}

/// `Ok` if `holds`, else the error `"{rule}: {cell}"`.
pub(crate) fn ensure(holds: bool, rule: &str, cell: impl FnOnce() -> String) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(format!("{rule}: {}", cell()))
    }
}

/// Whether a member is `true` (absent or non-bool reads as false).
pub(crate) fn flag(doc: &Json, key: &str) -> bool {
    doc.get(key) == Some(&Json::Bool(true))
}

/// A successful run as a JSON cell body: headline cycles, the flat
/// stats snapshot, derived rates, and the commit-time CPI stack.
/// Optional sections (`series`, `audit`) appear only when the run
/// carries them, keeping default documents compact.
pub fn result_json(result: &SimResult) -> Vec<(&'static str, Json)> {
    let stats = result
        .stats_map()
        .into_iter()
        .map(|(k, v)| (k.to_string(), Json::UInt(v)))
        .collect();
    let derived = Json::obj(vec![
        ("core.uipc", Json::Num(result.core.uipc())),
        ("mem.l1d_hit_rate", Json::Num(result.mem.l1d_hit_rate())),
        (
            "tokens_per_kiloinst_l2_mem",
            Json::Num(result.tokens_per_kiloinst_l2_mem()),
        ),
    ]);
    let mut body = vec![
        ("cycles", Json::UInt(result.cycles())),
        ("stats", Json::Obj(stats)),
        ("derived", derived),
        ("cpi", result.core.cpi.to_json()),
    ];
    if let Some(series) = &result.series {
        body.push(("series", series.to_json()));
    }
    if !result.audit.is_empty() {
        body.push(("audit", result.audit.to_json()));
    }
    if let Some(report) = &result.fault {
        body.push(("fault", fault_report_json(report)));
    }
    body
}

/// The `{"kind", "triggered", "site_events", "trigger_event",
/// "records", "suppressed_hits"}` summary of an injected fault, as a
/// matrix cell's `fault` and a fault-campaign cell's `fault_report`.
pub(crate) fn fault_report_json(report: &rest_faults::FaultReport) -> Json {
    Json::obj(vec![
        ("kind", Json::from(report.kind)),
        ("triggered", Json::Bool(report.triggered)),
        ("site_events", Json::UInt(report.site_events)),
        ("trigger_event", Json::UInt(report.trigger_event)),
        ("records", Json::UInt(report.records)),
        ("suppressed_hits", Json::UInt(report.suppressed_hits)),
    ])
}

fn outcome_json(
    label: &str,
    outcome: &Result<SimResult, crate::engine::JobError>,
    overhead_pct: Option<f64>,
) -> Json {
    let mut members = vec![("label", Json::from(label))];
    match outcome {
        Ok(result) => {
            let mut body = result_json(result);
            if let Some(pct) = overhead_pct {
                body.insert(1, ("overhead_pct", Json::Num(pct)));
            }
            members.extend(body);
        }
        Err(e) => {
            members.push(("error", e.to_json()));
        }
    }
    Json::obj(members)
}

fn row_json(row: &RowResults, columns: &[crate::engine::ColumnSpec]) -> Json {
    let mut members = vec![
        ("benchmark", Json::from(row.row.name)),
        ("workload", Json::from(row.row.workload.name())),
        ("seed", Json::UInt(row.row.seed)),
    ];
    if let Some(plain) = &row.plain {
        members.push(("plain", outcome_json("plain", plain, None)));
    }
    let cells = columns
        .iter()
        .enumerate()
        .map(|(c, col)| {
            let pct = row.overhead_pct(c);
            let pct = pct.is_finite().then_some(pct);
            outcome_json(&col.label, &row.cells[c], pct)
        })
        .collect();
    members.push(("cells", Json::Arr(cells)));
    Json::obj(members)
}

/// The standard matrix serialisation (columns, rows, mean summaries).
pub fn matrix_json(matrix: &MatrixResults) -> Json {
    let columns = matrix
        .columns
        .iter()
        .map(|c| Json::from(c.label.as_str()))
        .collect();
    let rows = matrix
        .rows
        .iter()
        .map(|r| row_json(r, &matrix.columns))
        .collect();
    let mut members = vec![("columns", Json::Arr(columns)), ("rows", Json::Arr(rows))];
    let has_plain = matrix.rows.iter().any(|r| r.plain.is_some());
    if has_plain {
        let summary = matrix.summary();
        let pair = |pick: fn(&(f64, f64)) -> f64| {
            Json::Obj(
                matrix
                    .columns
                    .iter()
                    .zip(&summary)
                    .map(|(c, s)| (c.label.clone(), Json::Num(pick(s))))
                    .collect(),
            )
        };
        members.push((
            "summary",
            Json::obj(vec![
                ("wtd_ari_mean_pct", pair(|s| s.0)),
                ("geo_mean_pct", pair(|s| s.1)),
            ]),
        ));
    }
    Json::obj(members)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_is_deterministic_and_escaped() {
        let doc = Json::obj(vec![
            ("b", Json::Int(-3)),
            ("a", Json::from(1.5)),
            ("nan", Json::Num(f64::NAN)),
            ("s", Json::from("a\"b\\c\nd\u{1}")),
            ("arr", Json::Arr(vec![Json::Null, Json::Bool(true)])),
            ("empty", Json::obj(vec![])),
        ]);
        let text = doc.to_string_pretty();
        // Insertion order preserved ("b" before "a"), NaN → null.
        assert!(text.find("\"b\"").unwrap() < text.find("\"a\"").unwrap());
        assert!(text.contains("\"nan\": null"));
        assert!(text.contains(r#""a\"b\\c\nd\u0001""#));
        assert!(text.contains("\"empty\": {}"));
        assert_eq!(text, doc.to_string_pretty());
    }

    #[test]
    fn an_invalid_document_is_refused() {
        let cell =
            r#"{"label": "asan", "cpi": {"base": 3, "total": 4}, "stats": {"core.cycles": 4}}"#;
        let row = format!(r#"{{"benchmark": "lbm", "cells": [{cell}]}}"#);
        let matrix = format!(r#"{{"columns": [], "rows": [{row}]}}"#);
        // An experiment name no rule lists: the matrix is found by shape.
        let mut sink = ResultSink::new("unlisted", Scale::Test, None);
        sink.push("overheads", Json::parse(&matrix).unwrap());
        let err = sink.artifacts(String::new()).unwrap_err();
        assert!(err.contains("cpi-sum: lbm/asan"), "{err}");
    }

    #[test]
    fn floats_render_as_json_numbers() {
        assert_eq!(Json::Num(1.0).to_string_pretty(), "1");
        assert_eq!(Json::Num(0.04).to_string_pretty(), "0.04");
        assert_eq!(Json::Num(-2.5).to_string_pretty(), "-2.5");
        assert_eq!(Json::Num(f64::INFINITY).to_string_pretty(), "null");
        assert_eq!(
            Json::UInt(u64::MAX).to_string_pretty(),
            u64::MAX.to_string()
        );
    }
}
