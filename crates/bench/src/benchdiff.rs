//! Host-time regression gate: compares the host profiles
//! (`rest-host-profile/v2`) of two `regen --profile-out` runs and fails
//! when the jobs both runs simulated took longer in total.
//!
//! The `bench-diff` binary wraps [`run`]:
//!
//! ```text
//! bench-diff --baseline base.json --current change.json
//! ```
//!
//! Jobs are matched by label and occurrence (ablations submits the same
//! label more than once), and only jobs simulated fresh on both sides
//! are compared. The work behind a label is deterministic, so while the
//! model is unchanged a job's wall ratio is its host ns-per-uop ratio.
//! The gate is the summed wall of those matched jobs; the report also
//! breaks it down per experiment and names the jobs that moved most.
//! Beside each experiment's matched jobs it prints the experiment's
//! whole wall from both profiles' `experiments` arrays, so work that runs
//! outside the engine's job log (the fuzz campaign's cases) shows up
//! too; those walls are reported, never gated.
//!
//! Both inputs must pass [`HostProfile::validate`] and record the same
//! worker count, so a truncated, foreign or mis-shaped document is an
//! error (exit 2), never a pass. Absolute host time does not transfer
//! between machines or sessions: compare two profiles taken back to
//! back on one host.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

use rest_obs::{HostProfile, Json};

use crate::table::{Align, Table};

/// The gate: the current run fails when its matched fresh-job wall
/// exceeds the baseline's by more than this many percent. Seventeen
/// back-to-back comparisons of identical `regen --test --jobs 2` runs on
/// a shared 2-core host moved the total by -15.5% to +26.6%, so the
/// gate sits above that (see EXPERIMENTS.md, "Performance measurement").
pub const TOLERANCE_PCT: f64 = 35.0;

/// How many of the largest per-job changes the report lists.
const TOP_MOVERS: usize = 10;

/// One job fresh in both profiles.
#[derive(Debug)]
struct JobDelta {
    /// The job label (`"<experiment>: <row> <column>"`).
    label: String,
    /// Baseline wall time in seconds.
    base_s: f64,
    /// Current wall time in seconds.
    current_s: f64,
}

/// The comparison of two host profiles.
#[derive(Debug)]
pub struct DiffReport {
    /// Jobs fresh in both profiles, in current-profile order.
    jobs: Vec<JobDelta>,
    /// Jobs not compared: unmatched, or cached on one side only.
    skipped: Vec<String>,
    /// Whole wall of each experiment: current-profile order, then
    /// baseline-only experiments.
    walls: Vec<(String, Pair)>,
}

/// A `(baseline, current)` wall in seconds; `None` where a side has
/// none.
type Pair = (Option<f64>, Option<f64>);

/// The three table cells of a pair: both walls and the change.
fn pair_cells((base, current): Pair) -> [String; 3] {
    let secs = |s: Option<f64>| s.map_or("-".to_string(), |s| format!("{s:.4}"));
    let change = match (base, current) {
        (Some(b), Some(c)) => format!("{:+.2}%", pct(c, b)),
        _ => "-".to_string(),
    };
    [secs(base), secs(current), change]
}

/// Sum of the present values; `None` if there are none.
fn sum_some(values: impl Iterator<Item = Option<f64>>) -> Option<f64> {
    values
        .flatten()
        .fold(None, |sum, v| Some(sum.unwrap_or(0.0) + v))
}

fn pct(current: f64, base: f64) -> f64 {
    if base > 0.0 {
        (current / base - 1.0) * 100.0
    } else {
        0.0
    }
}

impl DiffReport {
    /// Summed `(base, current)` wall of the matched jobs.
    fn totals(&self) -> (f64, f64) {
        self.jobs
            .iter()
            .fold((0.0, 0.0), |(b, c), j| (b + j.base_s, c + j.current_s))
    }

    /// Change of the matched total in percent (positive = slower).
    fn delta_pct(&self) -> f64 {
        let (base, current) = self.totals();
        pct(current, base)
    }

    /// Whether the matched total slowed by more than [`TOLERANCE_PCT`].
    pub fn regressed(&self) -> bool {
        self.delta_pct() > TOLERANCE_PCT
    }

    /// Per experiment, in first-seen order: `(name, jobs, base, current)`.
    fn experiments(&self) -> Vec<(&str, usize, f64, f64)> {
        let mut rows: Vec<(&str, usize, f64, f64)> = Vec::new();
        for j in &self.jobs {
            let name = j
                .label
                .split_once(": ")
                .map_or(j.label.as_str(), |(e, _)| e);
            match rows.iter_mut().find(|r| r.0 == name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += j.base_s;
                    r.3 += j.current_s;
                }
                None => rows.push((name, 1, j.base_s, j.current_s)),
            }
        }
        rows
    }

    /// The experiment table (matched jobs, then the whole experiment
    /// wall), the largest per-job changes, the skipped jobs and one
    /// verdict line.
    pub fn render(&self) -> String {
        let mut table = Table::named([
            "experiment",
            "jobs",
            "base s",
            "current s",
            "change",
            "|",
            "wall base",
            "wall cur",
            "change",
        ]);
        let mut row = |name: &str, jobs: usize, matched: Pair, wall: Pair| {
            let cells = [name.to_string(), jobs.to_string()].into_iter();
            let cells = cells.chain(pair_cells(matched)).chain(["|".to_string()]);
            table.row(cells.chain(pair_cells(wall)));
        };
        let jobs = self.experiments();
        let mut names: Vec<&str> = self.walls.iter().map(|w| w.0.as_str()).collect();
        for r in &jobs {
            if !names.contains(&r.0) {
                names.push(r.0);
            }
        }
        for name in names {
            let (n, matched) = jobs
                .iter()
                .find(|r| r.0 == name)
                .map_or((0, (None, None)), |r| (r.1, (Some(r.2), Some(r.3))));
            let wall = self
                .walls
                .iter()
                .find(|w| w.0 == name)
                .map_or((None, None), |w| w.1);
            row(name, n, matched, wall);
        }
        let (base, current) = self.totals();
        let wall = (
            sum_some(self.walls.iter().map(|w| w.1 .0)),
            sum_some(self.walls.iter().map(|w| w.1 .1)),
        );
        row("total", self.jobs.len(), (Some(base), Some(current)), wall);
        let mut out = table.to_string();
        let _ = writeln!(
            out,
            "# jobs/base s/current s: jobs fresh in both profiles (the gated total); \
             wall: whole experiment, reported only"
        );

        let mut movers: Vec<&JobDelta> = self.jobs.iter().collect();
        movers.sort_by(|a, b| {
            let change = |j: &JobDelta| (j.current_s - j.base_s).abs();
            change(b).total_cmp(&change(a))
        });
        use Align::{Left, Right};
        let mut changes = Table::new([Left, Right, Left, Right, Left, Right]);
        for j in movers.into_iter().take(TOP_MOVERS) {
            changes.row([
                j.label.clone(),
                format!("{:.4}", j.base_s),
                "->".to_string(),
                format!("{:.4}", j.current_s),
                "s".to_string(),
                format!("{:+.2}%", pct(j.current_s, j.base_s)),
            ]);
        }
        let _ = write!(out, "\nlargest job changes:\n{changes}");
        for s in &self.skipped {
            let _ = writeln!(out, "# not compared: {s}");
        }
        let _ = writeln!(
            out,
            "{}: fresh-job wall {base:.3} s -> {current:.3} s over {} matched jobs \
             ({:+.2}%, tolerance +{TOLERANCE_PCT:.0}%)",
            if self.regressed() { "REGRESSION" } else { "OK" },
            self.jobs.len(),
            self.delta_pct()
        );
        out
    }
}

/// `(label, wall_s, cached)` of every job record, in profile order.
fn job_log(doc: &Json) -> Result<Vec<(&str, f64, bool)>, String> {
    doc.req("jobs", Json::as_arr)?
        .iter()
        .map(|j| {
            Ok((
                j.req("label", Json::as_str)?,
                j.req("wall_s", Json::as_f64)?,
                j.get("cached") == Some(&Json::Bool(true)),
            ))
        })
        .collect()
}

/// `(name, wall_s)` of every experiment the profile ran, in order.
fn experiment_walls(doc: &Json) -> Result<Vec<(&str, f64)>, String> {
    doc.req("experiments", Json::as_arr)?
        .iter()
        .map(|e| Ok((e.req("name", Json::as_str)?, e.req("wall_s", Json::as_f64)?)))
        .collect()
}

/// Keys each record by its label and how often that label occurred
/// before it.
fn by_occurrence<'a>(log: &[(&'a str, f64, bool)]) -> Vec<((&'a str, usize), f64, bool)> {
    let mut seen: HashMap<&str, usize> = HashMap::new();
    log.iter()
        .map(|&(label, wall, cached)| {
            let n = seen.entry(label).or_default();
            *n += 1;
            ((label, *n), wall, cached)
        })
        .collect()
}

/// Validates both profiles and compares the jobs fresh in both.
pub fn diff(baseline: &Json, current: &Json) -> Result<DiffReport, String> {
    HostProfile::validate(baseline).map_err(|e| format!("baseline: {e}"))?;
    HostProfile::validate(current).map_err(|e| format!("current: {e}"))?;
    let workers = |doc: &Json| doc.get("effective_jobs").and_then(Json::as_u64);
    if workers(baseline) != workers(current) {
        return Err(format!(
            "the profiles ran on different worker counts (baseline {:?}, current {:?})",
            workers(baseline),
            workers(current)
        ));
    }
    let base_log = job_log(baseline)?;
    let mut base: HashMap<(&str, usize), (f64, bool)> = by_occurrence(&base_log)
        .into_iter()
        .map(|(key, wall, cached)| (key, (wall, cached)))
        .collect();
    let name = |(label, n): (&str, usize)| format!("{label} (occurrence {n})");
    let base_walls = experiment_walls(baseline)?;
    let current_walls = experiment_walls(current)?;
    let total = |walls: &[(&str, f64)], experiment: &str| {
        sum_some(
            walls
                .iter()
                .filter(|w| w.0 == experiment)
                .map(|w| Some(w.1)),
        )
    };
    let mut walls: Vec<(String, Pair)> = Vec::new();
    for &(experiment, _) in current_walls.iter().chain(&base_walls) {
        if walls.iter().all(|w| w.0 != experiment) {
            let pair = (
                total(&base_walls, experiment),
                total(&current_walls, experiment),
            );
            walls.push((experiment.to_string(), pair));
        }
    }
    let mut report = DiffReport {
        jobs: Vec::new(),
        skipped: Vec::new(),
        walls,
    };
    for (key, current_s, cached) in by_occurrence(&job_log(current)?) {
        match base.remove(&key) {
            None => report.skipped.push(format!("{}: current only", name(key))),
            Some((base_s, base_cached)) => match (base_cached, cached) {
                (false, false) => report.jobs.push(JobDelta {
                    label: key.0.to_string(),
                    base_s,
                    current_s,
                }),
                (true, true) => {}
                (true, false) => report
                    .skipped
                    .push(format!("{}: cached in baseline", name(key))),
                (false, true) => report
                    .skipped
                    .push(format!("{}: cached in current", name(key))),
            },
        }
    }
    let mut rest: Vec<_> = base.into_keys().collect();
    rest.sort_unstable();
    report.skipped.extend(
        rest.into_iter()
            .map(|key| format!("{}: baseline only", name(key))),
    );
    if report.jobs.is_empty() {
        return Err("no job is fresh in both profiles: nothing to compare".to_string());
    }
    Ok(report)
}

/// Reads and parses one document from disk.
fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Loads both profiles and compares them. Every `Err` is an input
/// error, which `bench-diff` reports with exit status 2.
pub fn run(baseline: &Path, current: &Path) -> Result<DiffReport, String> {
    diff(&load(baseline)?, &load(current)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rest_obs::JobTiming;
    use std::time::Duration;

    /// A valid profile on `workers` workers: one job per `(label,
    /// wall ms, cached)`, every fresh job on worker 0.
    fn profile(workers: usize, jobs: &[(&str, u64, bool)]) -> Json {
        profile_with_walls(workers, jobs, &[])
    }

    /// [`profile`] that also records one whole wall per `(experiment,
    /// wall ms)`.
    fn profile_with_walls(
        workers: usize,
        jobs: &[(&str, u64, bool)],
        walls: &[(&str, u64)],
    ) -> Json {
        let mut p = HostProfile::new("regen", workers);
        p.add_phase("simulate", Duration::from_millis(1));
        p.add_phase("report", Duration::from_millis(1));
        for &(name, ms) in walls {
            p.add_experiment(name, Duration::from_millis(ms));
        }
        for &(label, ms, cached) in jobs {
            p.add_job(JobTiming {
                label: label.to_string(),
                worker: 0,
                start: Duration::ZERO,
                queue: Duration::ZERO,
                wall: Duration::from_millis(ms),
                cached,
                outcome: "ok".to_string(),
            });
        }
        p.to_json()
    }

    /// Writes `text` to a fresh scratch file named after `tag`.
    fn scratch(tag: &str, text: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("rest-benchdiff-{}-{tag}", std::process::id()));
        std::fs::write(&path, text).unwrap();
        path
    }

    const BASE: [(&str, u64, bool); 4] = [
        ("fig7: lbm plain", 100, false),
        ("fig7: lbm asan", 300, false),
        ("fig8: lbm 16B-full", 200, false),
        ("fig8: lbm 64B-full", 0, true),
    ];

    #[test]
    fn equal_profiles_pass_and_report_per_experiment() {
        let base = profile(2, &BASE);
        let report = diff(&base, &base).unwrap();
        assert!(!report.regressed());
        assert_eq!(
            report.jobs.len(),
            3,
            "the job cached on both sides is not compared"
        );
        assert!(report.skipped.is_empty());
        assert_eq!(
            report.experiments(),
            [("fig7", 2, 0.4, 0.4), ("fig8", 1, 0.2, 0.2)]
        );
        assert!(report
            .render()
            .contains("OK: fresh-job wall 0.600 s -> 0.600 s"));
    }

    #[test]
    fn a_slower_total_fails_and_names_the_mover() {
        let mut noisy = BASE;
        noisy[1].1 = 360;
        let report = diff(&profile(2, &BASE), &profile(2, &noisy)).unwrap();
        assert!((report.delta_pct() - 10.0).abs() < 1e-9);
        assert!(!report.regressed(), "+10% is within the tolerance");
        let mut slow = BASE;
        slow[1].1 = 900;
        let report = diff(&profile(2, &BASE), &profile(2, &slow)).unwrap();
        assert!((report.delta_pct() - 100.0).abs() < 1e-9);
        assert!(report.regressed());
        let text = report.render();
        assert!(text.contains("REGRESSION"), "{text}");
        let movers = text.split("largest job changes:\n").nth(1).unwrap();
        assert!(movers.starts_with("fig7: lbm asan"), "{text}");
        // Faster never fails.
        assert!(!diff(&profile(2, &slow), &profile(2, &BASE))
            .unwrap()
            .regressed());
    }

    #[test]
    fn an_experiment_without_jobs_reports_its_wall_outside_the_verdict() {
        let base = profile_with_walls(2, &BASE, &[("fig7", 250), ("fuzz", 700), ("fig8", 120)]);
        // The fuzz campaign runs no engine job: twice as slow, it moves
        // only its own wall row, never the verdict.
        let current = profile_with_walls(2, &BASE, &[("fig7", 260), ("fuzz", 1400), ("old", 5)]);
        let report = diff(&base, &current).unwrap();
        assert!(!report.regressed());
        assert_eq!(
            report.walls,
            [
                ("fig7".to_string(), (Some(0.25), Some(0.26))),
                ("fuzz".to_string(), (Some(0.7), Some(1.4))),
                ("old".to_string(), (None, Some(0.005))),
                ("fig8".to_string(), (Some(0.12), None)),
            ]
        );
        let text = report.render();
        let row = |name: &str| {
            let line = text
                .lines()
                .find(|l| l.starts_with(&format!("{name} ")))
                .unwrap();
            line.split_whitespace()
                .skip(1)
                .collect::<Vec<_>>()
                .join(" ")
        };
        assert_eq!(row("fuzz"), "0 - - - | 0.7000 1.4000 +100.00%", "{text}");
        assert_eq!(
            row("fig7"),
            "2 0.4000 0.4000 +0.00% | 0.2500 0.2600 +4.00%",
            "{text}"
        );
        assert_eq!(row("fig8"), "1 0.2000 0.2000 +0.00% | 0.1200 - -", "{text}");
        assert_eq!(
            row("total"),
            "3 0.6000 0.6000 +0.00% | 1.0700 1.6650 +55.61%",
            "{text}"
        );
        assert!(text.contains("reported only"), "{text}");
        assert!(
            text.contains("OK: fresh-job wall 0.600 s -> 0.600 s"),
            "{text}"
        );
    }

    #[test]
    fn duplicate_labels_match_by_occurrence() {
        let base = profile(
            1,
            &[
                ("ablations: gcc plain", 100, false),
                ("ablations: gcc plain", 10, false),
            ],
        );
        let current = profile(
            1,
            &[
                ("ablations: gcc plain", 100, false),
                ("ablations: gcc plain", 20, false),
                ("ablations: gcc plain", 5, false),
            ],
        );
        let report = diff(&base, &current).unwrap();
        let walls: Vec<(f64, f64)> = report
            .jobs
            .iter()
            .map(|j| (j.base_s, j.current_s))
            .collect();
        assert_eq!(walls, [(0.1, 0.1), (0.01, 0.02)]);
        assert_eq!(
            report.skipped,
            ["ablations: gcc plain (occurrence 3): current only"]
        );
    }

    #[test]
    fn jobs_fresh_on_one_side_only_are_reported_not_compared() {
        let mut current = BASE;
        current[0].2 = true;
        current[3].2 = false;
        let report = diff(&profile(2, &BASE), &profile(2, &current)).unwrap();
        assert_eq!(report.jobs.len(), 2);
        assert_eq!(
            report.skipped,
            [
                "fig7: lbm plain (occurrence 1): cached in current",
                "fig8: lbm 64B-full (occurrence 1): cached in baseline",
            ]
        );
        assert!(report.render().contains("# not compared: fig7: lbm plain"));
    }

    #[test]
    fn an_unreadable_file_is_an_error() {
        let good = scratch("unreadable-good", &profile(2, &BASE).to_string_pretty());
        let missing = std::env::temp_dir().join("rest-benchdiff-no-such-file.json");
        assert!(run(&missing, &good).is_err());
        assert!(run(&good, &missing).is_err());
        std::fs::remove_file(good).unwrap();
    }

    #[test]
    fn unparsable_json_is_an_error() {
        let good = scratch("parse-good", &profile(2, &BASE).to_string_pretty());
        let bad = scratch("parse-bad", "{\"schema\": \"rest-host-profile/v2\",");
        let err = run(&good, &bad).unwrap_err();
        assert!(err.contains("parse-bad"), "{err}");
        std::fs::remove_file(good).unwrap();
        std::fs::remove_file(bad).unwrap();
    }

    #[test]
    fn a_wrong_schema_is_an_error() {
        let good = profile(2, &BASE);
        let old = Json::obj(vec![
            ("schema", Json::from("rest-throughput/v2")),
            ("effective_jobs", Json::UInt(2)),
        ]);
        let err = diff(&old, &good).unwrap_err();
        assert!(err.starts_with("baseline: unexpected schema"), "{err}");
        let err = diff(&good, &Json::Null).unwrap_err();
        assert!(err.starts_with("current: missing \"schema\""), "{err}");
    }

    #[test]
    fn a_profile_that_does_not_reconcile_is_an_error() {
        let good = profile(2, &BASE);
        let mut bad = good.clone();
        *bad.path_mut("workers.0.jobs").unwrap() = Json::UInt(7);
        let err = diff(&good, &bad).unwrap_err();
        assert!(err.starts_with("current: worker 0 reports 7"), "{err}");
    }

    #[test]
    fn different_worker_counts_are_an_error() {
        let err = diff(&profile(1, &BASE), &profile(2, &BASE)).unwrap_err();
        assert!(err.contains("different worker counts"), "{err}");
    }

    #[test]
    fn no_job_fresh_on_both_sides_is_an_error() {
        let cached = profile(2, &[("fig7: lbm plain", 0, true)]);
        assert!(diff(&cached, &cached)
            .unwrap_err()
            .contains("nothing to compare"));
    }
}
