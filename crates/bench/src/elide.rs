//! Static check-elision campaign (the `elision` experiment of `regen`).
//!
//! Runs the full benchmark set under the paper's headline
//! `rest-secure-full` configuration twice — checks in full, and with
//! the `rest-verify` elision map applied — plus the matching ASan pair
//! (the scheme that actually pays per-access check micro-ops, so the
//! recovered-uop measurement is visible in the pipeline). Every pair is
//! held to a hard differential gate: byte-identical guest output and
//! byte-identical audit logs, or the campaign fails.
//!
//! The attack section re-runs all ten attack scenarios under
//! `rest-secure-full` with elision enabled. Attacks whose violation the
//! linter can prove carry error-or-worse findings, so the elision pass
//! produces *empty* maps for them by construction; attacks that lint
//! clean (e.g. the padding-gap overread, which stays inside its padded
//! granule) may have genuinely in-bounds accesses elided. Either way
//! the campaign verifies end to end that every attack stops with the
//! same outcome and the same audit provenance as the un-elided run —
//! zero detection loss is an output of the artifact, not a promise.
//! Minimized fuzz-campaign reproducers committed under `tests/regress/`
//! ([`rest_attacks::regress`]) run through the identical full/elided
//! differential gate, so every fuzzer find also pins elision soundness.
//!
//! The campaign writes one artefact, `elision.json`: per-row static
//! classification counts, dynamic elided-check counters, per-site
//! attribution, the per-program `rest-elide/v1` maps (each validated
//! against [`rest_obs::elide`]), and the attack-coverage section.
//! Byte-identical at any `--jobs` level.

use rest_cpu::{SimResult, StopReason};
use rest_obs::Json;
use rest_runtime::RtConfig;
use rest_verify::ElisionReport;
use rest_workloads::Scale;

use crate::cli::Harness;
use crate::engine::SimJob;
use crate::sink::Artifact;
use crate::table::{Align, Table};
use crate::{Adversary, FigureRow};

/// The campaign's column labels, in job order: each base scheme is
/// immediately followed by its elided twin.
pub const SCHEMES: [&str; 4] = ["rest-secure-full", "rest-elided", "asan", "asan-elided"];

/// The two (base runtime, elided label) pairs the campaign simulates.
pub fn scheme_pairs() -> Vec<(&'static str, &'static str, RtConfig)> {
    vec![
        (
            "rest-secure-full",
            "rest-elided",
            RtConfig::from_label("rest-secure-full").expect("canonical label"),
        ),
        ("asan", "asan-elided", RtConfig::asan()),
    ]
}

/// The four jobs of one benchmark row: (full, elided) × both schemes,
/// all profiled so the per-site and per-PC check counters are carried.
pub fn jobs_for(row: &FigureRow, scale: Scale) -> Vec<SimJob> {
    let mut jobs = Vec::new();
    for (full_label, elided_label, rt) in scheme_pairs() {
        let mut base = SimJob::new(row, full_label, rt, scale);
        base.cfg.profile_guest = true;
        jobs.push(base.clone());
        jobs.push(SimJob {
            elide: true,
            label: elided_label.to_string(),
            ..base
        });
    }
    jobs
}

/// One scheme pair's measurements for a row.
#[derive(Debug, Clone)]
pub struct PairCell {
    /// Dynamic checks performed by the full run (backend `check_access`
    /// for REST, shadow classifications for ASan).
    pub checks_full: u64,
    /// Dynamic checks the elided run still performed.
    pub checks_elided_run: u64,
    /// Dynamic checks skipped via the static map.
    pub elided_dynamic: u64,
    /// Injected check micro-ops in the full run.
    pub check_uops_full: u64,
    /// Injected check micro-ops left in the elided run.
    pub check_uops_elided: u64,
    /// Committed cycles, full run.
    pub cycles_full: u64,
    /// Committed cycles, elided run.
    pub cycles_elided: u64,
    /// Retired micro-ops, full run.
    pub uops_full: u64,
    /// Retired micro-ops, elided run.
    pub uops_elided: u64,
    /// Per-site elided-check attribution rows from the elided run.
    pub elided_sites: Vec<(u64, u64)>,
}

impl PairCell {
    /// Share of the full run's dynamic checks the elided run skipped.
    pub fn elided_dynamic_pct(&self) -> f64 {
        if self.checks_full == 0 {
            0.0
        } else {
            self.elided_dynamic as f64 * 100.0 / self.checks_full as f64
        }
    }

    /// Check micro-ops the elision recovered (full minus elided).
    pub fn check_uops_recovered(&self) -> u64 {
        self.check_uops_full.saturating_sub(self.check_uops_elided)
    }

    fn to_json(&self) -> Json {
        let sites = self
            .elided_sites
            .iter()
            .map(|&(site, n)| {
                Json::obj(vec![("site", Json::UInt(site)), ("elided", Json::UInt(n))])
            })
            .collect();
        Json::obj(vec![
            ("checks_full", Json::UInt(self.checks_full)),
            ("checks_elided_run", Json::UInt(self.checks_elided_run)),
            ("elided_dynamic", Json::UInt(self.elided_dynamic)),
            ("elided_dynamic_pct", Json::Num(self.elided_dynamic_pct())),
            ("check_uops_full", Json::UInt(self.check_uops_full)),
            ("check_uops_elided", Json::UInt(self.check_uops_elided)),
            (
                "check_uops_recovered",
                Json::UInt(self.check_uops_recovered()),
            ),
            ("cycles_full", Json::UInt(self.cycles_full)),
            ("cycles_elided", Json::UInt(self.cycles_elided)),
            ("uops_full", Json::UInt(self.uops_full)),
            ("uops_elided", Json::UInt(self.uops_elided)),
            ("elided_sites", Json::Arr(sites)),
        ])
    }
}

/// One benchmark row of the campaign report.
#[derive(Debug, Clone)]
pub struct ElideRow {
    /// Row display name.
    pub benchmark: String,
    /// Workload kernel name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Static REST-scheme elision report for the row's program.
    pub rest_static: ElisionReport,
    /// Static ASan-scheme elision report.
    pub asan_static: ElisionReport,
    /// REST dynamic pair.
    pub rest: PairCell,
    /// ASan dynamic pair.
    pub asan: PairCell,
}

impl ElideRow {
    fn static_json(r: &ElisionReport) -> Json {
        Json::obj(vec![
            ("access_pcs", Json::UInt(r.access_pcs as u64)),
            ("elided", Json::UInt(r.map.len() as u64)),
            ("must_be_safe", Json::UInt(r.must_be_safe as u64)),
            ("redundant", Json::UInt(r.redundant as u64)),
            ("may_fault", Json::UInt(r.may_fault as u64)),
            ("elide_pct", Json::Num(r.elide_pct())),
        ])
    }

    /// The row as a figure-row object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("benchmark", Json::from(self.benchmark.as_str())),
            ("workload", Json::from(self.workload)),
            ("seed", Json::UInt(self.seed)),
            ("rest_static", Self::static_json(&self.rest_static)),
            ("asan_static", Self::static_json(&self.asan_static)),
            ("rest", self.rest.to_json()),
            ("asan", self.asan.to_json()),
        ])
    }
}

/// One row of the coverage section: an attack or regression case run
/// with checks in full and elided, which must stop identically with
/// identical audit provenance.
#[derive(Debug, Clone)]
pub struct CoverageRow {
    /// Attack scenario name or corpus file stem.
    pub name: String,
    /// Whether the (identical) runs stopped on a violation.
    pub detected: bool,
    /// Audit-log entries recorded (identical in both runs).
    pub audit_entries: u64,
    /// Whether the program's elision map is empty. Attacks with
    /// error-or-worse lint findings always are; programs that lint
    /// clean may elide genuinely in-bounds accesses.
    pub map_empty: bool,
    /// Checks dynamically skipped in the elided run (0 whenever
    /// `map_empty`).
    pub elided_dynamic: u64,
}

impl CoverageRow {
    /// The row as an object whose name member is `key` (`"attack"` or
    /// `"name"`).
    fn to_json(&self, key: &str) -> Json {
        Json::obj(vec![
            (key, Json::from(self.name.as_str())),
            ("detected", Json::Bool(self.detected)),
            ("audit_entries", Json::UInt(self.audit_entries)),
            ("map_empty", Json::Bool(self.map_empty)),
            ("elided_dynamic", Json::UInt(self.elided_dynamic)),
        ])
    }
}

/// Fails the campaign if the full and elided runs of one cell differ in
/// any architecturally visible way: stop reason, guest output bytes, or
/// the audit log (entry-for-entry, provenance included).
pub fn assert_differential(cell: &str, full: &SimResult, elided: &SimResult) -> Result<(), String> {
    if full.stop != elided.stop {
        return Err(format!(
            "{cell}: stop reasons diverge under elision — full {:?}, elided {:?}",
            full.stop, elided.stop
        ));
    }
    if full.output != elided.output {
        return Err(format!("{cell}: guest output diverges under elision"));
    }
    if full.audit != elided.audit {
        return Err(format!(
            "{cell}: audit logs diverge under elision — full {} entries, elided {}",
            full.audit.total(),
            elided.audit.total()
        ));
    }
    Ok(())
}

/// Builds one [`ElideRow`] from the four simulated cells, re-deriving
/// the static reports from the programs of the row's own full jobs and
/// enforcing the differential gate plus the check-count reconciliation
/// (full checks == elided-run checks + dynamically skipped checks).
pub fn rollup(row: &FigureRow, scale: Scale, cells: &[&SimResult; 4]) -> Result<ElideRow, String> {
    let [rest_full, rest_elided, asan_full, asan_elided] = *cells;
    let mut pairs = Vec::new();
    for (full, elided, full_label) in [
        (rest_full, rest_elided, "rest-secure-full"),
        (asan_full, asan_elided, "asan"),
    ] {
        let cell = format!("{} {full_label}", row.name);
        assert_differential(&cell, full, elided)?;
        let fp = full
            .profile
            .as_ref()
            .ok_or_else(|| format!("{cell}: full run carries no profile"))?;
        let ep = elided
            .profile
            .as_ref()
            .ok_or_else(|| format!("{cell}: elided run carries no profile"))?;
        let (checks_full, checks_elided_run) = if fp.backend_checks > 0 {
            (fp.backend_checks, ep.backend_checks)
        } else {
            (fp.checks.total(), ep.checks.total())
        };
        let skipped = elided.core.elided_checks;
        if full.core.elided_checks != 0 {
            return Err(format!("{cell}: full run skipped checks without a map"));
        }
        // Every application access is either still checked or skipped;
        // runtime-internal validations appear identically in both runs.
        if checks_elided_run + skipped != checks_full {
            return Err(format!(
                "{cell}: check counts do not reconcile — full {checks_full}, \
                 elided-run {checks_elided_run} + skipped {skipped}"
            ));
        }
        pairs.push(PairCell {
            checks_full,
            checks_elided_run,
            elided_dynamic: skipped,
            check_uops_full: fp.check_uops.total(),
            check_uops_elided: ep.check_uops.total(),
            cycles_full: full.core.cycles,
            cycles_elided: elided.core.cycles,
            uops_full: full.core.uops,
            uops_elided: elided.core.uops,
            elided_sites: ep.elided_sites.clone(),
        });
    }
    let asan = pairs.pop().expect("two pairs");
    let rest = pairs.pop().expect("two pairs");

    let jobs = jobs_for(row, scale);
    let [rest_static, asan_static] = [&jobs[0], &jobs[2]].map(|job| {
        job.elision()
            .map_err(|e| format!("{} {}: {e}", row.name, job.label))
    });
    let (rest_static, asan_static) = (rest_static?, asan_static?);
    Ok(ElideRow {
        benchmark: row.name.to_string(),
        workload: row.workload.name(),
        seed: row.seed,
        rest_static,
        asan_static,
        rest,
        asan,
    })
}

/// The assembled campaign report.
#[derive(Debug, Clone)]
pub struct ElideFigure {
    /// Benchmark rows, in figure order.
    pub rows: Vec<ElideRow>,
    /// Attack-coverage rows, in [`rest_attacks::Attack::ALL`] order.
    pub attacks: Vec<CoverageRow>,
    /// Regression-corpus rows, in corpus (sorted-name) order.
    pub regressions: Vec<CoverageRow>,
}

impl ElideFigure {
    /// Rows with a static REST elision share of at least 20%.
    pub fn rows_at_20pct(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.rest_static.elide_pct() >= 20.0)
            .count()
    }

    /// The per-program `rest-elide/v1` documents (both schemes per
    /// row); the result sink checks each with
    /// [`rest_obs::validate_elide`] before writing.
    pub fn programs_json(&self) -> Json {
        let reports = self
            .rows
            .iter()
            .flat_map(|r| [(r, &r.rest_static), (r, &r.asan_static)]);
        Json::Arr(
            reports
                .map(|(row, report)| report.to_json(&row.benchmark))
                .collect(),
        )
    }

    /// The `summary` member: campaign-wide totals and the hard-gate
    /// inputs.
    pub fn summary_json(&self) -> Json {
        let total_pcs: u64 = self
            .rows
            .iter()
            .map(|r| r.rest_static.access_pcs as u64)
            .sum();
        let total_elided: u64 = self
            .rows
            .iter()
            .map(|r| r.rest_static.map.len() as u64)
            .sum();
        let dynamic: u64 = self.rows.iter().map(|r| r.rest.elided_dynamic).sum();
        let recovered: u64 = self
            .rows
            .iter()
            .map(|r| r.asan.check_uops_recovered())
            .sum();
        Json::obj(vec![
            ("rows", Json::UInt(self.rows.len() as u64)),
            ("rows_at_20pct", Json::UInt(self.rows_at_20pct() as u64)),
            ("access_pcs", Json::UInt(total_pcs)),
            ("elided_pcs", Json::UInt(total_elided)),
            ("elided_dynamic", Json::UInt(dynamic)),
            ("check_uops_recovered", Json::UInt(recovered)),
            ("attacks", Json::UInt(self.attacks.len() as u64)),
            (
                "attacks_detected",
                Json::UInt(self.attacks.iter().filter(|a| a.detected).count() as u64),
            ),
            ("regressions", Json::UInt(self.regressions.len() as u64)),
        ])
    }

    /// The `rows` member.
    pub fn rows_json(&self) -> Json {
        Json::Arr(self.rows.iter().map(ElideRow::to_json).collect())
    }

    /// The `attacks` member.
    pub fn attacks_json(&self) -> Json {
        Json::Arr(self.attacks.iter().map(|r| r.to_json("attack")).collect())
    }

    /// The `regressions` member.
    pub fn regressions_json(&self) -> Json {
        Json::Arr(self.regressions.iter().map(|r| r.to_json("name")).collect())
    }

    /// The per-row summary table, then attack coverage under elision.
    pub fn text_table(&self) -> String {
        let mut rows = Table::named([
            "benchmark",
            "accesses",
            "elided",
            "static %",
            "dyn %",
            "checks off",
            "uops rec.",
            "cycles Δ",
        ]);
        for r in &self.rows {
            let dc = r.rest.cycles_full as i64 - r.rest.cycles_elided as i64;
            rows.row([
                r.benchmark.clone(),
                r.rest_static.access_pcs.to_string(),
                r.rest_static.map.len().to_string(),
                format!("{:.1}", r.rest_static.elide_pct()),
                format!("{:.1}", r.rest.elided_dynamic_pct()),
                r.rest.elided_dynamic.to_string(),
                r.asan.check_uops_recovered().to_string(),
                dc.to_string(),
            ]);
        }
        let mut attacks = Table::new([Align::Left; 4]);
        for a in &self.attacks {
            attacks.row([
                a.name.clone(),
                (if a.detected { "DETECTED" } else { "clean" }).to_string(),
                format!("audit entries: {}", a.audit_entries),
                format!("elided: {}", a.elided_dynamic),
            ]);
        }
        format!(
            "{rows}\nattack coverage under elision (stop + audit identical by gate):\n{attacks}"
        )
    }
}

/// Runs the full campaign: 16 rows × the four scheme cells plus a
/// full/elided pair per attack and regression case, enforces every
/// differential and reconciliation gate, and returns the document.
pub fn run_campaign(h: &mut Harness) -> Result<Vec<Artifact>, String> {
    let scale = h.scale;
    let rows = h.filter_rows(crate::figure_rows());
    let mut jobs: Vec<SimJob> = rows.iter().flat_map(|row| jobs_for(row, scale)).collect();
    let row_jobs = jobs.len();
    // Every attack, then every minimized fuzzer reproducer, as a
    // full/elided pair under the headline scheme.
    let rest_rt = RtConfig::from_label("rest-secure-full").expect("canonical label");
    let adversaries = crate::adversaries()?;
    for adv in &adversaries {
        let full = adv.job("rest-secure-full", rest_rt.clone(), scale);
        let elided = SimJob {
            elide: true,
            label: "rest-elided".to_string(),
            ..full.clone()
        };
        jobs.extend([full, elided]);
    }
    let outcomes = h.run_all(&jobs);

    let mut figure = ElideFigure {
        rows: Vec::new(),
        attacks: Vec::new(),
        regressions: Vec::new(),
    };
    for (row, chunk) in rows.iter().zip(outcomes[..row_jobs].chunks(4)) {
        let mut cells = Vec::new();
        for (outcome, label) in chunk.iter().zip(SCHEMES) {
            match outcome.as_ref() {
                Ok(result) => cells.push(result),
                Err(e) => return Err(format!("{} {label} failed: {e}", row.name)),
            }
        }
        let cells: &[&SimResult; 4] = &[cells[0], cells[1], cells[2], cells[3]];
        figure.rows.push(rollup(row, scale, cells)?);
    }
    let pairs = jobs[row_jobs..]
        .chunks(2)
        .zip(outcomes[row_jobs..].chunks(2));
    for (adv, (pair, runs)) in adversaries.iter().zip(pairs) {
        let guest = &pair[0].guest;
        let [full, elided] = [0, 1].map(|i| {
            runs[i]
                .as_ref()
                .as_ref()
                .map_err(|e| format!("{guest} {} run failed: {e}", pair[i].label))
        });
        let (full, elided) = (full?, elided?);
        if let Err(e) = assert_differential(&guest.to_string(), full, elided) {
            return Err(format!("DETECTION LOSS: {e}"));
        }
        let map_empty = pair[0]
            .elision()
            .map_err(|e| format!("{guest}: {e}"))?
            .map
            .is_empty();
        if map_empty && elided.core.elided_checks != 0 {
            return Err(format!(
                "{guest}: {} checks skipped with an empty map",
                elided.core.elided_checks
            ));
        }
        let row = CoverageRow {
            name: adv.name().to_string(),
            detected: matches!(full.stop, StopReason::Violation(_)),
            audit_entries: full.audit.total(),
            map_empty,
            elided_dynamic: elided.core.elided_checks,
        };
        match adv {
            Adversary::Attack(_) => figure.attacks.push(row),
            Adversary::Regress(_) => figure.regressions.push(row),
        }
    }
    // The headline acceptance gate: without --filter, at least 4 rows
    // must elide >= 20% of their access PCs.
    if h.cli.filter.is_none() && figure.rows_at_20pct() < 4 {
        return Err(format!(
            "only {} rows reach 20% static elision (4 required)",
            figure.rows_at_20pct()
        ));
    }
    let text = crate::machine_header(
        "elide — static check-elision: proven-safe accesses skip their checks",
        scale,
    ) + &figure.text_table();

    let mut sink = h.sink();
    sink.push("schema", Json::from(rest_obs::ELIDE_SCHEMA));
    sink.push(
        "schemes",
        Json::Arr(SCHEMES.iter().map(|&s| Json::from(s)).collect()),
    );
    sink.push("rows", figure.rows_json());
    sink.push("attacks", figure.attacks_json());
    sink.push("regressions", figure.regressions_json());
    sink.push("programs", figure.programs_json());
    sink.push("summary", figure.summary_json());
    sink.artifacts(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rest_workloads::Workload;

    fn pair(row: &FigureRow, label: &str, rt: RtConfig) -> (SimResult, SimResult) {
        let mut full = SimJob::new(row, label, rt, Scale::Test);
        full.cfg.profile_guest = true;
        let elided = SimJob {
            elide: true,
            ..full.clone()
        };
        (
            full.execute().expect("full run exits cleanly"),
            elided.execute().expect("elided run exits cleanly"),
        )
    }

    #[test]
    fn elision_changes_nothing_architecturally_visible() {
        let row = FigureRow::of(Workload::Bzip2);
        let (full, elided) = pair(
            &row,
            "rest-secure-full",
            RtConfig::from_label("rest-secure-full").unwrap(),
        );
        assert_differential("bzip2 rest-secure-full", &full, &elided).expect("identical");
        assert!(elided.core.elided_checks > 0, "bzip2 elides many checks");
        assert_eq!(full.core.elided_checks, 0);
        // Checks reconcile: skipped + still-performed == full.
        let fp = full.profile.as_ref().unwrap();
        let ep = elided.profile.as_ref().unwrap();
        assert_eq!(
            ep.backend_checks + elided.core.elided_checks,
            fp.backend_checks
        );
        assert!(!ep.elided_sites.is_empty(), "skips attribute to sites");
        let site_total: u64 = ep.elided_sites.iter().map(|&(_, n)| n).sum();
        assert_eq!(site_total, elided.core.elided_checks);
    }

    #[test]
    fn asan_elision_recovers_check_uops() {
        let row = FigureRow::of(Workload::Hmmer);
        let (full, elided) = pair(&row, "asan", RtConfig::asan());
        assert_differential("hmmer asan", &full, &elided).expect("identical");
        let fp = full.profile.as_ref().unwrap();
        let ep = elided.profile.as_ref().unwrap();
        assert!(elided.core.elided_checks > 0);
        // ASan injects 5 uops per checked access; every skipped check
        // recovers exactly that sequence from the uop stream.
        assert_eq!(
            fp.check_uops.total() - ep.check_uops.total(),
            5 * elided.core.elided_checks
        );
        assert_eq!(
            full.core.uops - elided.core.uops,
            5 * elided.core.elided_checks
        );
    }

    /// Attack-coverage differential at the engine level: a detected
    /// attack, a false-negative attack that lints clean (and so carries
    /// a non-empty elision map), and a UAF all behave identically with
    /// elision on and off.
    #[test]
    fn attacks_keep_their_detection_under_elision() {
        use rest_attacks::Attack;
        let rt = RtConfig::from_label("rest-secure-full").unwrap();
        for attack in [
            Attack::Heartbleed,
            Attack::PaddingGapOverread,
            Attack::UseAfterFree,
        ] {
            let full = SimJob::for_attack(attack, "rest-secure-full", rt.clone(), Scale::Test);
            let elided = SimJob {
                elide: true,
                ..full.clone()
            };
            let full = full.execute().expect("full attack run completes");
            let elided = elided.execute().expect("elided attack run completes");
            assert_differential(&format!("attack {}", attack.name()), &full, &elided)
                .expect("zero detection loss under elision");
        }
    }

    #[test]
    fn rollup_builds_a_consistent_row() {
        let row = FigureRow::of(Workload::Lbm);
        let jobs = jobs_for(&row, Scale::Test);
        assert_eq!(jobs.len(), 4);
        let results: Vec<SimResult> = jobs
            .iter()
            .map(|j| j.execute().expect("cell completes"))
            .collect();
        let cells: [&SimResult; 4] = [&results[0], &results[1], &results[2], &results[3]];
        let r = rollup(&row, Scale::Test, &cells).expect("gates hold");
        assert_eq!(r.benchmark, "lbm");
        assert!(r.rest_static.preconditions_ok);
        assert_eq!(
            r.rest.elided_dynamic + r.rest.checks_elided_run,
            r.rest.checks_full
        );
        // REST injects no check uops, so nothing to recover there; the
        // ASan pair carries the recovered micro-ops.
        assert_eq!(r.rest.check_uops_recovered(), 0);
        if r.asan.elided_dynamic > 0 {
            assert_eq!(r.asan.check_uops_recovered(), 5 * r.asan.elided_dynamic);
        }
        let doc = Json::parse(&r.to_json().to_string_pretty()).expect("valid JSON");
        assert_eq!(
            doc.get("rest")
                .unwrap()
                .get("elided_dynamic")
                .unwrap()
                .as_u64(),
            Some(r.rest.elided_dynamic)
        );
    }
}
