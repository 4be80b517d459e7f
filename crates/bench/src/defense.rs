//! Defense-matrix campaign (the `defense` experiment of `regen`).
//!
//! Sweeps the six protection configurations the backend seam makes
//! comparable — `plain`, `asan`, `rest-secure-full`, `mte-sync`,
//! `mte-async`, `pa` — over two halves:
//!
//! * **overheads**: the full 16-row benchmark set, reported as percent
//!   over the plain baseline (same machinery as Figure 7), and
//! * **coverage**: every [`Attack`] scenario under every scheme, each
//!   cell classified from the pipeline run's stop reason, audit log and
//!   output stream, then judged against the paper's §V expectation.
//!
//! A third section rides along when `tests/regress/` holds minimized
//! fuzz-campaign reproducers ([`rest_attacks::regress`]): each one
//! replays under every scheme and is judged with the same
//! [`Expectation::admits`] predicate against the expectations measured
//! at emission time. Any out-of-spec cell fails the campaign.
//!
//! Per attack cell the campaign derives the same [`AttackOutcome`] the
//! functional `rest-attacks` harness produces:
//!
//! | field | pipeline derivation |
//! |---|---|
//! | `detected` | stopped on a violation, **or** a detection-provenance audit entry exists |
//! | `delayed` | audit-only detection (MTE async/asymm TFSR: the run completed first) |
//! | `leaked_secret` | the planted [`SECRET`](rest_attacks::SECRET) reached the guest output |
//!
//! and checks it with [`Expectation::admits`] — the exact predicate the
//! functional path uses, so the two measurement paths cannot drift.
//! Both halves go into one `rest-defense/v1` JSON document
//! (`results/defense.json`), byte-identical at any `--jobs` level.

use std::fmt::Write as _;

use rest_attacks::{Attack, AttackOutcome, Expectation};
use rest_cpu::{SimResult, StopReason};
use rest_obs::Json;
use rest_runtime::RtConfig;

use crate::cli::Harness;
use crate::engine::{ColumnSpec, JobError, MatrixResults, MatrixSpec, SimJob};
use crate::sink::Artifact;
use crate::table::{Table, FAILED};
use crate::Adversary;

/// Campaign document schema identifier.
pub const SCHEMA: &str = "rest-defense/v1";

/// The compared configurations, by harness label, baseline first.
pub const SCHEMES: [&str; 6] = [
    "plain",
    "asan",
    "rest-secure-full",
    "mte-sync",
    "mte-async",
    "pa",
];

/// Audit-log detectors that count as a detection (provenance of the
/// four check mechanisms; the fault injector's entries do not count).
const DETECTORS: [&str; 4] = ["rest", "asan", rest_obs::MTE_TAGGER, rest_obs::PA_SIGNER];

/// The campaign's scheme set, resolved through the same
/// [`RtConfig::from_label`] table the CLI uses.
pub fn scheme_configs() -> Vec<(&'static str, RtConfig)> {
    SCHEMES
        .iter()
        .map(|&label| {
            let rt = RtConfig::from_label(label).expect("defense scheme labels are canonical");
            (label, rt)
        })
        .collect()
}

/// Derives the functional-harness verdict fields from a pipeline run:
/// precise detections stop the run, deferred ones (MTE async/asymm)
/// only reach the audit log, and a leak is the secret in the output.
pub fn outcome_of(result: &SimResult) -> AttackOutcome {
    let precise = matches!(result.stop, StopReason::Violation(_));
    let flagged = result
        .audit
        .entries()
        .iter()
        .any(|e| DETECTORS.contains(&e.detector));
    AttackOutcome {
        stop: result.stop.clone(),
        detected: precise || flagged,
        delayed: flagged && !precise,
        leaked_secret: rest_attacks::leaks_secret(&result.output),
    }
}

/// Short display/JSON name for an attack cell's outcome.
fn verdict_name(out: &AttackOutcome) -> &'static str {
    if out.detected && !out.delayed {
        "detected"
    } else if out.delayed {
        "delayed"
    } else if out.leaked_secret {
        "leaked"
    } else {
        "quiet"
    }
}

/// One classified attack cell: `(json, outcome, ok)`, the outcome
/// derived from the run (`None` when the job failed).
fn attack_cell(
    scheme: &str,
    expect: Expectation,
    outcome: &Result<SimResult, JobError>,
) -> (Json, Option<AttackOutcome>, bool) {
    let mut members = vec![
        ("scheme", Json::from(scheme)),
        ("expectation", Json::from(expect.name())),
    ];
    let (out, ok) = match outcome {
        Err(e) => {
            members.push(("error", e.to_json()));
            (None, false)
        }
        Ok(result) => {
            let out = outcome_of(result);
            let detector = result
                .audit
                .entries()
                .iter()
                .find(|e| DETECTORS.contains(&e.detector))
                .map(|e| Json::from(e.detector))
                .unwrap_or(Json::Null);
            let ok = expect.admits(&out);
            members.push(("stop", Json::from(format!("{:?}", out.stop))));
            members.push(("verdict", Json::from(verdict_name(&out))));
            members.push(("detected", Json::Bool(out.detected)));
            members.push(("delayed", Json::Bool(out.delayed)));
            members.push(("leaked_secret", Json::Bool(out.leaked_secret)));
            members.push(("detector", detector));
            members.push(("ok", Json::Bool(ok)));
            (Some(out), ok)
        }
    };
    (Json::obj(members), out, ok)
}

/// Per-scheme aggregate of the allocation-site check attribution: how
/// many checks each scheme charged to guest allocation sites across the
/// whole overhead sweep, reconciled three ways against the per-PC
/// profiler and the backend's own `check_access` count.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CheckAttribution {
    /// Allocation-site rows absorbed (one per live site per cell).
    pub sites: u64,
    /// Allocations / frees / bytes charged to those sites.
    pub allocs: u64,
    /// Frees charged to those sites.
    pub frees: u64,
    /// Bytes allocated at those sites.
    pub bytes: u64,
    /// Check invocations in the site table (includes runtime-internal
    /// hardened-free validations the per-PC profiler never sees).
    pub site_checks: u64,
    /// Injected check micro-ops in the site table.
    pub site_check_uops: u64,
    /// Check invocations in the per-PC profiler.
    pub pc_checks: u64,
    /// Injected check micro-ops in the per-PC profiler (== the site
    /// total, asserted per cell).
    pub pc_check_uops: u64,
    /// The backend seam's own `check_access` count (== site checks for
    /// every backend scheme, asserted per cell).
    pub backend_checks: u64,
    /// Pointer canonicalizations (REST's tagged-pointer strip).
    pub canonicalizations: u64,
    /// Deferred-fault latches (MTE async TFSR-style).
    pub deferred_latches: u64,
    /// Faults attributed back to the owning allocation site.
    pub faults: u64,
}

impl CheckAttribution {
    /// Folds one profiled run into the aggregate, asserting the
    /// per-cell reconciliation invariants. Errors are collection bugs.
    fn absorb(&mut self, cell: &str, result: &SimResult) -> Result<(), String> {
        let prof = result
            .profile
            .as_ref()
            .ok_or_else(|| format!("{cell}: result carries no guest profile"))?;
        let (site_checks, site_check_uops) = crate::hotspots::site_check_totals(cell, prof)?;
        self.sites += prof.sites.len() as u64;
        for (_, c) in &prof.sites {
            self.allocs += c.allocs;
            self.frees += c.frees;
            self.bytes += c.bytes;
            self.canonicalizations += c.canonicalizations;
            self.deferred_latches += c.deferred_latches;
            self.faults += c.faults;
        }
        self.site_checks += site_checks;
        self.site_check_uops += site_check_uops;
        self.pc_checks += prof.checks.total();
        self.pc_check_uops += prof.check_uops.total();
        self.backend_checks += prof.backend_checks;
        Ok(())
    }

    /// The aggregate as a JSON object (one per scheme in the document's
    /// `check_attribution` member).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("sites", Json::UInt(self.sites)),
            ("allocs", Json::UInt(self.allocs)),
            ("frees", Json::UInt(self.frees)),
            ("bytes", Json::UInt(self.bytes)),
            ("site_checks", Json::UInt(self.site_checks)),
            ("site_check_uops", Json::UInt(self.site_check_uops)),
            ("pc_checks", Json::UInt(self.pc_checks)),
            ("pc_check_uops", Json::UInt(self.pc_check_uops)),
            ("backend_checks", Json::UInt(self.backend_checks)),
            ("canonicalizations", Json::UInt(self.canonicalizations)),
            ("deferred_latches", Json::UInt(self.deferred_latches)),
            ("faults", Json::UInt(self.faults)),
        ])
    }
}

/// Aggregates the per-allocation-site check attribution of a profiled
/// overhead matrix, per scheme: the shared plain baseline first, then
/// one entry per column in matrix order. Requires the matrix to have
/// run with `profile_guest` on.
pub fn check_attribution(
    matrix: &MatrixResults,
) -> Result<Vec<(String, CheckAttribution)>, String> {
    let mut per: Vec<(String, CheckAttribution)> = std::iter::once("plain".to_string())
        .chain(matrix.columns.iter().map(|c| c.label.clone()))
        .map(|label| (label, CheckAttribution::default()))
        .collect();
    for results in &matrix.rows {
        if let Some(result) = results.plain_result() {
            let cell = format!("{} plain", results.row.name);
            per[0].1.absorb(&cell, result)?;
        }
        for (col, _) in matrix.columns.iter().enumerate() {
            if let Some(result) = results.cell(col) {
                let cell = format!("{} {}", results.row.name, matrix.columns[col].label);
                per[col + 1].1.absorb(&cell, result)?;
            }
        }
    }
    Ok(per)
}

/// Per-scheme verdict counters over one section of the coverage half
/// (the document's `coverage` member counts the attacks).
#[derive(Default, Clone, Copy)]
struct Coverage {
    detected: u64,
    delayed: u64,
    leaked: u64,
    unexpected: u64,
}

/// Runs the full campaign: the overhead matrix, then every attack and
/// regression case under every scheme, returning the document and its
/// text tables.
pub fn run_campaign(h: &mut Harness) -> Result<Vec<Artifact>, String> {
    let scale = h.scale;
    let configs = scheme_configs();

    // Overhead half: the five hardened schemes against the shared plain
    // baseline, over the standard benchmark rows.
    let columns: Vec<ColumnSpec> = configs
        .iter()
        .filter(|(label, _)| *label != "plain")
        .map(|(label, rt)| ColumnSpec::new(*label, rt.clone()))
        .collect();
    let rows = h.filter_rows(crate::figure_rows());
    let mut spec = MatrixSpec::new(rows, columns, scale);
    // Guest profiling rides along so the per-allocation-site check
    // attribution can be aggregated and reconciled per scheme.
    spec.cfg.profile_guest = true;
    let matrix = h.run_matrix(spec);

    let mut t = crate::machine_header("defense — runtime overhead over plain (%)", scale);
    t += &matrix.text_table().to_string();

    let attribution = check_attribution(&matrix)
        .map_err(|e| format!("check-attribution invariant violated: {e}"))?;
    let mut table = Table::named([
        "scheme",
        "site checks",
        "check uops",
        "backend chks",
        "canonical.",
        "deferred",
    ]);
    for (label, a) in &attribution {
        let counts = [
            a.site_checks,
            a.site_check_uops,
            a.backend_checks,
            a.canonicalizations,
            a.deferred_latches,
        ];
        table.row(std::iter::once(label.clone()).chain(counts.map(|n| n.to_string())));
    }
    t += "\ndefense — per-scheme check attribution (summed over allocation sites)\n";
    t += &table.to_string();

    // Coverage half: every adversarial guest × every scheme, on the
    // pipeline. Each attack's runtime tweaks (Attack::rt_for, applied by
    // SimJob::for_attack) apply to every scheme identically, so cells
    // differ only in the protection mechanism. The regression corpus's
    // minimized fuzzer reproducers follow, judged with the same
    // `Expectation::admits` predicate against the expectations their
    // sidecars *measured* at emission time, so a behaviour change
    // anywhere in the stack flips a cell here. The `--filter` flag
    // narrows benchmark rows only; this grid always runs in full.
    let adversaries = crate::adversaries()?;
    let jobs: Vec<SimJob> = adversaries
        .iter()
        .flat_map(|adv| {
            configs
                .iter()
                .map(|(label, rt)| adv.job(label, rt.clone(), scale))
        })
        .collect();
    let outcomes = h.run_all(&jobs);

    // Per section (attacks, then regression cases): the row documents
    // and the per-scheme counters.
    let mut docs = [Vec::new(), Vec::new()];
    let mut coverage = [0, 1].map(|_| vec![Coverage::default(); configs.len()]);
    let mut grids = ["attack", "case"]
        .map(|first| Table::named(std::iter::once(first).chain(configs.iter().map(|c| c.0))));
    for (adv, outcomes) in adversaries.iter().zip(outcomes.chunks(configs.len())) {
        let section = usize::from(matches!(adv, Adversary::Regress(_)));
        let mut verdicts = vec![adv.name().to_string()];
        let mut cell_docs = Vec::new();
        let cells = outcomes.iter().zip(&mut coverage[section]);
        for ((label, rt), (outcome, cov)) in configs.iter().zip(cells) {
            let (cell, out, ok) = attack_cell(label, adv.expectation(label, rt), outcome);
            match out {
                Some(out) => {
                    cov.detected += out.detected as u64;
                    cov.delayed += out.delayed as u64;
                    cov.leaked += out.leaked_secret as u64;
                    let mark = if ok { "" } else { " *UNEXP" };
                    verdicts.push(format!("{}{mark}", verdict_name(&out)));
                }
                None => verdicts.push(format!("{FAILED} *UNEXP")),
            }
            cov.unexpected += (!ok) as u64;
            cell_docs.push(cell);
        }
        grids[section].row(verdicts);
        docs[section].push(Json::obj(vec![
            ("name", Json::from(adv.name())),
            ("cells", Json::Arr(cell_docs)),
        ]));
    }
    let unexpected = |section: &[Coverage]| section.iter().map(|c| c.unexpected).sum::<u64>();
    let [attack_grid, regress_grid] = grids;
    t += "\ndefense — attack coverage (expectation-checked verdict per cell)\n";
    t += &attack_grid.to_string();
    if !docs[1].is_empty() {
        t += "\ndefense — regression corpus (minimized fuzzer reproducers, same judge)\n";
        t += &regress_grid.to_string();
    }
    let _ = writeln!(
        t,
        "\ndetected per scheme: {}   unexpected cells: {}",
        configs
            .iter()
            .zip(&coverage[0])
            .map(|((label, _), c)| format!("{label}={}", c.detected))
            .collect::<Vec<_>>()
            .join(" "),
        unexpected(&coverage[0])
    );
    if !docs[1].is_empty() {
        let _ = writeln!(
            t,
            "regression cases: {}   unexpected cells: {}",
            docs[1].len(),
            unexpected(&coverage[1])
        );
    }
    let [attack_docs, regress_docs] = docs;

    let mut sink = h.sink();
    sink.push("schema", Json::from(SCHEMA));
    sink.push(
        "schemes",
        Json::Arr(SCHEMES.iter().map(|&l| Json::from(l)).collect()),
    );
    sink.push_matrix("overheads", &matrix);
    sink.push(
        "check_attribution",
        Json::obj(
            attribution
                .iter()
                .map(|(label, a)| (label.as_str(), a.to_json()))
                .collect(),
        ),
    );
    sink.push("attacks", Json::Arr(attack_docs));
    sink.push("regressions", Json::Arr(regress_docs));
    sink.push(
        "coverage",
        Json::obj(
            configs
                .iter()
                .zip(&coverage[0])
                .map(|((label, _), c)| {
                    (
                        *label,
                        Json::obj(vec![
                            ("detected", Json::UInt(c.detected)),
                            ("delayed", Json::UInt(c.delayed)),
                            ("leaked", Json::UInt(c.leaked)),
                            ("unexpected", Json::UInt(c.unexpected)),
                        ]),
                    )
                })
                .collect(),
        ),
    );
    sink.artifacts(t)
}

/// The `rest-defense/v1` rules the campaign does not enforce while it
/// assembles the document (per-cell check attribution reconciles in
/// [`check_attribution`]; the overhead matrix is held to `cpi-sum`):
///
/// * `cells-ok` — every attack and regression cell lists the schemes in
///   [`SCHEMES`] order, ran without error, and meets its expectation;
/// * `coverage` — the per-scheme counters equal the attack cells;
/// * `paper-coverage` — REST detects 7 of the attacks precisely and
///   leaks on 1, and MTE async defers every detection;
/// * `attribution` — plain charges no checks and REST no check
///   micro-ops; without `--filter`, ASan and MTE sync charge some;
/// * `row-count` — without `--filter`, all 16 benchmark rows and every
///   attack.
pub fn validate(doc: &Json) -> Result<(), String> {
    use crate::sink::{ensure, flag};
    // Per scheme: detected, delayed and leaked attack cells.
    let mut counts = [[0u64; 3]; SCHEMES.len()];
    for section in ["attacks", "regressions"] {
        for row in doc.req(section, Json::as_arr)? {
            let name = row.req("name", Json::as_str)?;
            let cells = row.req("cells", Json::as_arr)?;
            ensure(cells.len() == SCHEMES.len(), "cells-ok", || {
                format!("{name}: cell count")
            })?;
            for (cell, (scheme, n)) in cells.iter().zip(SCHEMES.iter().zip(&mut counts)) {
                let expect = cell.req("expectation", Json::as_str)?;
                let ok = cell.req("scheme", Json::as_str)? == *scheme
                    && cell.get("error").is_none()
                    && flag(cell, "ok")
                    && (expect != "detected" || flag(cell, "detected"));
                ensure(ok, "cells-ok", || {
                    format!("{name}/{scheme}: out of spec ({expect})")
                })?;
                if section == "attacks" {
                    for (slot, key) in n.iter_mut().zip(["detected", "delayed", "leaked_secret"]) {
                        *slot += flag(cell, key) as u64;
                    }
                }
            }
        }
    }
    let coverage = doc.req("coverage", Some)?;
    for (scheme, n) in SCHEMES.iter().zip(counts) {
        let keys = ["detected", "delayed", "leaked", "unexpected"];
        for (key, want) in keys.into_iter().zip(n.into_iter().chain([0])) {
            let have = coverage.req(scheme, Some)?.req(key, Json::as_u64)?;
            ensure(have == want, "coverage", || {
                format!("coverage.{scheme}.{key} is {have}, cells count {want}")
            })?;
        }
    }
    // SCHEMES[2] is rest-secure-full, SCHEMES[4] mte-async.
    let [rest, mte_async] = [counts[2], counts[4]];
    ensure(
        rest == [7, 0, 1] && mte_async[0] == mte_async[1],
        "paper-coverage",
        || format!("detected/delayed/leaked: rest-secure-full {rest:?}, mte-async {mte_async:?}"),
    )?;
    let attr = doc.req("check_attribution", Some)?;
    let get = |scheme: &str, key: &str| attr.req(scheme, Some)?.req(key, Json::as_u64);
    let full = doc.get("filter") == Some(&Json::Null);
    let plain = get("plain", "site_checks")?;
    let rest_uops = get("rest-secure-full", "site_check_uops")?;
    let charged = get("asan", "site_check_uops")? > 0 && get("mte-sync", "site_check_uops")? > 0;
    ensure(
        plain == 0 && rest_uops == 0 && (charged || !full),
        "attribution",
        || {
            format!(
                "plain site checks {plain}, REST check uops {rest_uops}, ASan/MTE-sync {charged}"
            )
        },
    )?;
    let rows = doc.req("overheads", Some)?.req("rows", Json::as_arr)?.len();
    let attacks = doc.req("attacks", Json::as_arr)?.len();
    let pinned = rows == crate::figure_rows().len() && attacks == Attack::ALL.len();
    ensure(pinned || !full, "row-count", || {
        format!("{rows} rows, {attacks} attacks")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rest_core::Mode;
    use rest_workloads::Scale;

    #[test]
    fn campaign_shape_is_stable() {
        let configs = scheme_configs();
        assert_eq!(configs.len(), 6);
        assert_eq!(configs[0].0, "plain");
        // Every label round-trips through the config it resolves to.
        for (label, rt) in &configs {
            assert_eq!(rt.label(), *label);
        }
        // 6 schemes × 10 attacks + 16 benchmark rows × (1 + 5) cells.
        assert_eq!(Attack::ALL.len() * configs.len(), 60);
        assert_eq!(crate::figure_rows().len(), 16);
    }

    #[test]
    fn pipeline_outcomes_match_functional_attack_verdicts() {
        // The derived AttackOutcome must agree with the functional
        // harness on both a precise and a deferred detection.
        let rest = SimJob::for_attack(
            Attack::HeapOverflowWrite,
            "rest-secure-full",
            RtConfig::rest(Mode::Secure, true),
            Scale::Test,
        )
        .execute()
        .unwrap();
        let out = outcome_of(&rest);
        assert!(out.detected && !out.delayed && !out.leaked_secret);
        assert_eq!(verdict_name(&out), "detected");
        assert!(Attack::HeapOverflowWrite
            .expectation(rest_runtime::Scheme::Rest)
            .admits(&out));

        // MTE async: the run completes, the leak happens, and only the
        // latched TFSR fault (audit entry) records the detection.
        let rt = RtConfig::from_label("mte-async").unwrap();
        let job = SimJob::for_attack(Attack::Heartbleed, "mte-async", rt, Scale::Test);
        let mte = job.execute().unwrap();
        let out = outcome_of(&mte);
        assert!(out.detected && out.delayed, "stop: {:?}", mte.stop);
        assert_eq!(verdict_name(&out), "delayed");
        assert!(mte
            .audit
            .entries()
            .iter()
            .any(|e| e.detector == rest_obs::MTE_TAGGER));
    }

    #[test]
    fn check_attribution_reconciles_per_scheme() {
        use crate::engine::Engine;
        use crate::FigureRow;
        use rest_workloads::Workload;

        let mut spec = MatrixSpec::new(
            vec![FigureRow::of(Workload::Lbm)],
            vec![
                ColumnSpec::new("asan", RtConfig::asan()),
                ColumnSpec::new(
                    "rest-secure-full",
                    RtConfig::from_label("rest-secure-full").unwrap(),
                ),
                ColumnSpec::new("mte-sync", RtConfig::from_label("mte-sync").unwrap()),
            ],
            Scale::Test,
        );
        spec.cfg.profile_guest = true;
        let matrix = Engine::new(2).run_matrix(&spec);
        let per = check_attribution(&matrix).expect("reconciliation holds");
        let by_label: std::collections::HashMap<&str, &CheckAttribution> =
            per.iter().map(|(l, a)| (l.as_str(), a)).collect();

        let plain = by_label["plain"];
        assert_eq!(plain.site_checks, 0, "plain charges no checks");
        assert_eq!(plain.backend_checks, 0);
        assert!(plain.allocs > 0, "sites still record allocations");

        let asan = by_label["asan"];
        assert!(asan.site_checks > 0);
        assert_eq!(
            asan.backend_checks, 0,
            "ASan is shadow-memory, not a backend"
        );
        assert!(asan.site_check_uops > 0, "ASan injects check micro-ops");
        assert_eq!(asan.site_check_uops, asan.pc_check_uops);

        let rest = by_label["rest-secure-full"];
        assert!(rest.backend_checks > 0);
        assert_eq!(rest.site_checks, rest.backend_checks);
        assert_eq!(rest.site_check_uops, 0, "REST checks ride the cache fill");
        assert_eq!(rest.canonicalizations, 0, "REST keeps pointers untagged");

        let mte = by_label["mte-sync"];
        assert_eq!(mte.site_checks, mte.backend_checks);
        assert!(mte.site_check_uops > 0, "MTE sync fetches tags inline");
        assert_eq!(mte.site_check_uops, mte.pc_check_uops);
        assert!(mte.canonicalizations > 0, "MTE strips pointer tags");
    }

    #[test]
    fn plain_cells_are_quiet_or_leaky_but_never_detected() {
        let rt = RtConfig::plain();
        let result = SimJob::for_attack(Attack::Heartbleed, "plain", rt, Scale::Test)
            .execute()
            .unwrap();
        let out = outcome_of(&result);
        assert!(!out.detected && out.leaked_secret);
        assert_eq!(verdict_name(&out), "leaked");
    }
}
