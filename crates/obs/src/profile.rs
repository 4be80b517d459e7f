//! Host self-profiling and campaign telemetry.
//!
//! Simulated results are byte-deterministic, but *how long the host
//! took to produce them* is exactly the thing the ROADMAP's perf work
//! needs to track over time. A [`HostProfile`] records wall-clock time
//! per coarse phase (simulate / report) and per experiment, and one
//! [`JobTiming`] per
//! submitted engine job — which worker ran it, when it started, how
//! long it queued and ran, whether it came from the job cache, and how
//! it ended — and serialises to the `rest-host-profile/v2` document
//! written to `--profile-out` (by convention
//! `results/BENCH_baseline.json`, the repository's perf-trajectory
//! baseline). The same profile renders the campaign timeline as a
//! Perfetto trace ([`HostProfile::to_perfetto`]).
//!
//! Wall times are inherently nondeterministic, so this document is
//! **never** part of the experiment result JSON — it is a separate
//! `BENCH_` file, keeping the byte-determinism guarantee intact.
//!
//! [`HostProfile::validate`] checks cross-member consistency, not just
//! shape: worker ids are dense and every job names a listed worker,
//! each worker's job count equals the fresh jobs it ran, cache
//! hits/misses equal the cached/fresh job counts, and the panic count
//! equals the jobs whose outcome is `"panic"`.

use crate::json::Json;
use crate::perfetto::PerfettoTrace;
use std::time::Duration;

/// Wall-clock record of one submitted engine job. Cache hits record
/// worker 0, the submission's start, and zero queue and wall time.
#[derive(Debug, Clone, PartialEq)]
pub struct JobTiming {
    /// The job's display label (`"<row> <column>"`).
    pub label: String,
    /// Worker-pool slot that executed the job.
    pub worker: usize,
    /// Start offset from the engine's first submission — campaign
    /// relative, so jobs from successive submissions share one timeline.
    pub start: Duration,
    /// Time spent queued before a worker picked the job up.
    pub queue: Duration,
    /// Host wall time spent simulating the job.
    pub wall: Duration,
    /// Whether the result came from the engine's job cache.
    pub cached: bool,
    /// `"ok"`, or the error kind the job ended with.
    pub outcome: String,
}

/// Wall-clock profile of one harness invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct HostProfile {
    experiment: String,
    workers: usize,
    phases: Vec<(String, Duration)>,
    experiments: Vec<(String, Duration)>,
    jobs: Vec<JobTiming>,
}

/// Phases every experiment run records: the engine runs and the
/// reporting that follows them.
const REQUIRED_PHASES: [&str; 2] = ["simulate", "report"];

impl HostProfile {
    /// Schema identifier emitted in (and required of) profile
    /// documents.
    pub const SCHEMA: &'static str = "rest-host-profile/v2";

    /// An empty profile for the named experiment, run on a pool of
    /// `workers` engine workers.
    pub fn new(experiment: &str, workers: usize) -> HostProfile {
        HostProfile {
            experiment: experiment.to_string(),
            workers: workers.max(1),
            phases: Vec::new(),
            experiments: Vec::new(),
            jobs: Vec::new(),
        }
    }

    /// Records a coarse phase (e.g. "simulate", "report"). Phases
    /// with the same name accumulate.
    pub fn add_phase(&mut self, name: &str, wall: Duration) {
        if let Some((_, d)) = self.phases.iter_mut().find(|(n, _)| n == name) {
            *d += wall;
        } else {
            self.phases.push((name.to_string(), wall));
        }
    }

    /// Records the wall time of one experiment the invocation ran.
    pub fn add_experiment(&mut self, name: &str, wall: Duration) {
        self.experiments.push((name.to_string(), wall));
    }

    /// Records one engine job's timing.
    pub fn add_job(&mut self, timing: JobTiming) {
        self.jobs.push(timing);
    }

    /// Recorded per-job timings.
    pub fn jobs(&self) -> &[JobTiming] {
        &self.jobs
    }

    /// Per-worker rollup: `(jobs, busy)` for each pool slot. Cache hits
    /// cost no worker time, so only freshly executed jobs count.
    fn worker_rollup(&self) -> Vec<(u64, Duration)> {
        let mut rollup = vec![(0u64, Duration::ZERO); self.workers];
        for j in self.jobs.iter().filter(|j| !j.cached) {
            if let Some(w) = rollup.get_mut(j.worker) {
                w.0 += 1;
                w.1 += j.wall;
            }
        }
        rollup
    }

    /// Serialises to the `rest-host-profile/v2` document:
    ///
    /// ```text
    /// {"schema": "rest-host-profile/v2", "experiment": "regen",
    ///  "effective_jobs": W,
    ///  "phases": [{"name": .., "wall_s": ..}, ..],
    ///  "experiments": [{"name": .., "wall_s": ..}, ..],
    ///  "jobs": [{"label": .., "worker": .., "start_s": .., "queue_s": ..,
    ///            "wall_s": .., "cached": bool, "outcome": ..}, ..],
    ///  "workers": [{"worker": i, "jobs": N, "busy_s": ..}, ..],
    ///  "cache": {"hits": N, "misses": N}, "panics": N,
    ///  "summary": {"phase_wall_s": .., "job_wall_s": ..,
    ///              "job_wall_s_max": ..}}
    /// ```
    pub fn to_json(&self) -> Json {
        let phase_total: f64 = self.phases.iter().map(|(_, d)| d.as_secs_f64()).sum();
        let job_total: f64 = self.jobs.iter().map(|j| j.wall.as_secs_f64()).sum();
        let job_max = self
            .jobs
            .iter()
            .map(|j| j.wall.as_secs_f64())
            .fold(0.0_f64, f64::max);
        let hits = self.jobs.iter().filter(|j| j.cached).count() as u64;
        let panics = self.jobs.iter().filter(|j| j.outcome == "panic").count() as u64;
        let walls = |list: &[(String, Duration)]| {
            Json::Arr(
                list.iter()
                    .map(|(name, d)| {
                        Json::obj(vec![
                            ("name", Json::from(name.as_str())),
                            ("wall_s", Json::Num(d.as_secs_f64())),
                        ])
                    })
                    .collect(),
            )
        };
        let jobs = self
            .jobs
            .iter()
            .map(|j| {
                Json::obj(vec![
                    ("label", Json::from(j.label.as_str())),
                    ("worker", Json::UInt(j.worker as u64)),
                    ("start_s", Json::Num(j.start.as_secs_f64())),
                    ("queue_s", Json::Num(j.queue.as_secs_f64())),
                    ("wall_s", Json::Num(j.wall.as_secs_f64())),
                    ("cached", Json::Bool(j.cached)),
                    ("outcome", Json::from(j.outcome.as_str())),
                ])
            })
            .collect();
        let workers = self
            .worker_rollup()
            .into_iter()
            .enumerate()
            .map(|(i, (jobs, busy))| {
                Json::obj(vec![
                    ("worker", Json::UInt(i as u64)),
                    ("jobs", Json::UInt(jobs)),
                    ("busy_s", Json::Num(busy.as_secs_f64())),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::from(Self::SCHEMA)),
            ("experiment", Json::from(self.experiment.as_str())),
            ("effective_jobs", Json::UInt(self.workers as u64)),
            ("phases", walls(&self.phases)),
            ("experiments", walls(&self.experiments)),
            ("jobs", Json::Arr(jobs)),
            ("workers", Json::Arr(workers)),
            (
                "cache",
                Json::obj(vec![
                    ("hits", Json::UInt(hits)),
                    ("misses", Json::UInt(self.jobs.len() as u64 - hits)),
                ]),
            ),
            ("panics", Json::UInt(panics)),
            (
                "summary",
                Json::obj(vec![
                    ("phase_wall_s", Json::Num(phase_total)),
                    ("job_wall_s", Json::Num(job_total)),
                    ("job_wall_s_max", Json::Num(job_max)),
                ]),
            ),
        ])
    }

    /// The campaign timeline as a Chrome trace-event document: one
    /// track per worker, one slice per freshly executed job (campaign
    /// milliseconds mapped to the trace's µs field), and a per-worker
    /// `utilization` counter stepping 1/0 at each slice's edges.
    pub fn to_perfetto(&self) -> PerfettoTrace {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let mut trace = PerfettoTrace::new(&format!("{} campaign", self.experiment));
        let tracks: Vec<_> = (0..self.workers)
            .map(|w| trace.track(&format!("worker {w}")))
            .collect();
        for j in self.jobs.iter().filter(|j| !j.cached) {
            let Some(&track) = tracks.get(j.worker) else {
                continue;
            };
            let ts = ms(j.start) as u64;
            let dur = (ms(j.wall) as u64).max(1);
            trace.slice(
                track,
                &j.label,
                "job",
                ts,
                dur,
                vec![
                    ("outcome", Json::from(j.outcome.as_str())),
                    ("queue_ms", Json::Num(ms(j.queue))),
                ],
            );
            trace.counter(track, "utilization", ts, vec![("busy", Json::UInt(1))]);
            trace.counter(
                track,
                "utilization",
                ts + dur,
                vec![("busy", Json::UInt(0))],
            );
        }
        trace
    }

    /// Checks that a parsed document matches the
    /// `rest-host-profile/v2` shape and that its rollups reconcile with
    /// its per-job records.
    pub fn validate(doc: &Json) -> Result<(), String> {
        match doc.get("schema").and_then(Json::as_str) {
            Some(s) if s == Self::SCHEMA => {}
            Some(s) => return Err(format!("unexpected schema {s:?}")),
            None => return Err("missing \"schema\"".to_string()),
        }
        doc.req("experiment", Json::as_str)?;
        let effective_jobs = doc.req("effective_jobs", Json::as_u64)?;
        if effective_jobs == 0 {
            return Err("effective_jobs must be >= 1".to_string());
        }

        let phases = doc.req("phases", Json::as_arr)?;
        let mut names = Vec::new();
        for p in phases {
            names.push(p.req("name", Json::as_str)?);
            p.req("wall_s", Json::as_f64)?;
        }
        for want in REQUIRED_PHASES {
            if !names.contains(&want) {
                return Err(format!("missing the {want:?} phase"));
            }
        }
        for e in doc.req("experiments", Json::as_arr)? {
            e.req("name", Json::as_str)?;
            e.req("wall_s", Json::as_f64)?;
        }

        let workers = doc.req("workers", Json::as_arr)?;
        if workers.len() as u64 != effective_jobs {
            return Err(format!(
                "{} workers listed for effective_jobs {effective_jobs}",
                workers.len()
            ));
        }
        for (i, w) in workers.iter().enumerate() {
            let id = w.req("worker", Json::as_u64)?;
            if id != i as u64 {
                return Err(format!("worker {i} has id {id}; ids must be dense"));
            }
            w.req("busy_s", Json::as_f64)?;
        }

        let jobs = doc.req("jobs", Json::as_arr)?;
        let mut fresh_per_worker = vec![0u64; workers.len()];
        let (mut cached, mut panics) = (0u64, 0u64);
        for (i, j) in jobs.iter().enumerate() {
            j.req("label", Json::as_str)?;
            let worker = j.req("worker", Json::as_u64)?;
            if worker >= workers.len() as u64 {
                return Err(format!(
                    "job {i} names worker {worker}, but only {} workers are listed",
                    workers.len()
                ));
            }
            for key in ["start_s", "queue_s", "wall_s"] {
                j.req(key, Json::as_f64)?;
            }
            match j.get("cached") {
                Some(Json::Bool(true)) => cached += 1,
                Some(Json::Bool(false)) => fresh_per_worker[worker as usize] += 1,
                _ => return Err(format!("job {i} missing bool \"cached\"")),
            }
            let outcome = j.req("outcome", Json::as_str)?;
            if outcome == "panic" {
                panics += 1;
            }
        }
        for (i, (w, &want)) in workers.iter().zip(&fresh_per_worker).enumerate() {
            let got = w.req("jobs", Json::as_u64)?;
            if got != want {
                return Err(format!(
                    "worker {i} reports {got} job(s) but ran {want} fresh job(s)"
                ));
            }
        }

        let fresh: u64 = fresh_per_worker.iter().sum();
        let cache = doc.get("cache").ok_or("missing \"cache\"")?;
        if cache.req("hits", Json::as_u64)? != cached {
            return Err(format!(
                "cache.hits disagrees with the {cached} cached job(s)"
            ));
        }
        if cache.req("misses", Json::as_u64)? != fresh {
            return Err(format!(
                "cache.misses disagrees with the {fresh} fresh job(s)"
            ));
        }
        let got = doc.req("panics", Json::as_u64)?;
        if got != panics {
            return Err(format!(
                "panics is {got} but {panics} job(s) ended in a panic"
            ));
        }

        let summary = doc.get("summary").ok_or("missing \"summary\"")?;
        for key in ["phase_wall_s", "job_wall_s", "job_wall_s_max"] {
            summary.req(key, Json::as_f64)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(label: &str, worker: usize, wall_ms: u64, cached: bool, outcome: &str) -> JobTiming {
        JobTiming {
            label: label.to_string(),
            worker,
            start: Duration::from_millis(5),
            queue: Duration::from_millis(1),
            wall: Duration::from_millis(wall_ms),
            cached,
            outcome: outcome.to_string(),
        }
    }

    fn profile() -> HostProfile {
        let mut p = HostProfile::new("regen", 2);
        p.add_phase("simulate", Duration::from_millis(120));
        p.add_phase("report", Duration::from_millis(3));
        p.add_phase("simulate", Duration::from_millis(30));
        p.add_experiment("defense", Duration::from_millis(153));
        for j in [
            job("lbm plain", 0, 40, false, "ok"),
            job("lbm asan", 1, 60, false, "ok"),
            job("lbm plain", 0, 0, true, "ok"),
            job("mcf asan", 1, 10, false, "panic"),
        ] {
            p.add_job(j);
        }
        p
    }

    /// Replaces the node at `path` (object keys, or array indices as
    /// decimal strings) with `value`.
    fn patch(mut doc: Json, path: &[&str], value: u64) -> Json {
        let mut node = &mut doc;
        for seg in path {
            node = match node {
                Json::Obj(members) => &mut members.iter_mut().find(|(k, _)| k == seg).unwrap().1,
                Json::Arr(items) => &mut items[seg.parse::<usize>().unwrap()],
                _ => panic!("path {path:?} runs into a scalar"),
            };
        }
        *node = Json::UInt(value);
        doc
    }

    #[test]
    fn profile_document_validates_and_rolls_up() {
        let doc = Json::parse(&profile().to_json().to_string_pretty()).expect("valid JSON");
        HostProfile::validate(&doc).expect("schema-valid");
        assert_eq!(
            doc.get("schema").unwrap().as_str(),
            Some(HostProfile::SCHEMA)
        );
        // Same-named phases accumulate.
        let phases = doc.get("phases").unwrap().as_arr().unwrap();
        assert_eq!(phases.len(), 2);
        assert!(phases[0].get("wall_s").unwrap().as_f64().unwrap() > 0.14);
        let experiments = doc.get("experiments").unwrap().as_arr().unwrap();
        assert_eq!(experiments.len(), 1);
        assert_eq!(experiments[0].get("name"), Some(&Json::from("defense")));
        let cache = doc.get("cache").unwrap();
        assert_eq!(cache.get("hits").unwrap().as_u64(), Some(1));
        assert_eq!(cache.get("misses").unwrap().as_u64(), Some(3));
        assert_eq!(doc.get("panics").unwrap().as_u64(), Some(1));
        // The cached replay of "lbm plain" does not count as worker
        // utilization — only the fresh run does.
        let workers = doc.get("workers").unwrap().as_arr().unwrap();
        assert_eq!(workers.len(), 2);
        assert_eq!(workers[0].get("jobs").unwrap().as_u64(), Some(1));
        assert_eq!(workers[1].get("jobs").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn rollups_must_reconcile_with_jobs() {
        for (path, value, needle) in [
            (&["cache", "hits"][..], 2, "cache.hits"),
            (&["cache", "misses"][..], 4, "cache.misses"),
            (&["panics"][..], 0, "panics"),
            (&["workers", "0", "jobs"][..], 7, "worker 0 reports 7"),
        ] {
            let err = HostProfile::validate(&patch(profile().to_json(), path, value)).unwrap_err();
            assert!(err.contains(needle), "{err}");
        }
    }

    #[test]
    fn worker_ids_must_be_dense_and_in_range() {
        let sparse = patch(profile().to_json(), &["workers", "1", "worker"], 5);
        let err = HostProfile::validate(&sparse).unwrap_err();
        assert!(err.contains("dense"), "{err}");

        let stray = patch(profile().to_json(), &["jobs", "3", "worker"], 7);
        let err = HostProfile::validate(&stray).unwrap_err();
        assert!(err.contains("worker 7"), "{err}");

        let short = patch(profile().to_json(), &["effective_jobs"], 3);
        let err = HostProfile::validate(&short).unwrap_err();
        assert!(err.contains("effective_jobs 3"), "{err}");
    }

    #[test]
    fn simulate_and_report_phases_are_required() {
        let mut p = HostProfile::new("fig7", 1);
        p.add_phase("simulate", Duration::from_millis(1));
        let err = HostProfile::validate(&p.to_json()).unwrap_err();
        assert!(err.contains("\"report\""), "{err}");
        p.add_phase("report", Duration::from_millis(1));
        HostProfile::validate(&p.to_json()).expect("job-free run with both phases is valid");
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        let missing = Json::obj(vec![("schema", Json::from(HostProfile::SCHEMA))]);
        assert!(HostProfile::validate(&missing).is_err());
        let wrong = Json::obj(vec![("schema", Json::from("rest-host-profile/v1"))]);
        assert!(HostProfile::validate(&wrong).is_err());
        assert!(HostProfile::validate(&Json::Null).is_err());
    }

    #[test]
    fn perfetto_trace_has_one_track_per_worker_and_skips_cache_hits() {
        let mut p = HostProfile::new("fig7", 3);
        p.add_job(job("a plain", 0, 40, false, "ok"));
        p.add_job(job("a plain", 0, 0, true, "ok"));
        p.add_job(job("b asan", 2, 25, false, "ok"));
        let trace = p.to_perfetto();
        assert_eq!(trace.slice_count(), 2, "cache hits draw no slice");
        // Each fresh slice contributes a busy-edge pair.
        assert_eq!(trace.counter_count(), 4);
        let doc = trace.to_json();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let track_names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
            .map(|e| {
                e.get("args")
                    .unwrap()
                    .get("name")
                    .unwrap()
                    .as_str()
                    .unwrap()
            })
            .collect();
        assert_eq!(track_names, ["worker 0", "worker 1", "worker 2"]);
    }
}
