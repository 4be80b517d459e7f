//! Command-line layer and harness of the `regen` binary:
//!
//! ```text
//! [EXPERIMENT ...]       experiments to run, by name (default: every entry of
//!                        regen::EXPERIMENTS, in table order)
//! --test                 run every experiment at test scale (default: each
//!                        experiment's committed scale)
//! --jobs N               worker threads (default: available parallelism)
//! --out DIR              artifact directory (default: results)
//! --filter SUBSTRING     keep only benchmark rows whose name contains SUBSTRING
//!                        (recorded as a document's "filter" only by the
//!                        experiments that select rows)
//! --sample-interval N    snapshot counters + occupancy gauges every N committed
//!                        instructions into a "series" JSON section (0 = off)
//! --trace-out PATH       write a Chrome trace-event (Perfetto) JSON of the
//!                        first traced job's pipeline activity to PATH
//!                        (the first TRACE_UOPS micro-ops of each matrix's
//!                        first job are traced)
//! --profile-out PATH     write the rest-host-profile/v2 host document (phases,
//!                        per-experiment wall; per job the worker, start, queue
//!                        and wall time, cache flag and outcome; per-worker
//!                        rollup, cache hits/misses, panic count) to PATH;
//!                        nothing is written without it
//! --campaign-trace-out PATH
//!                        write that document's campaign timeline as a
//!                        Perfetto trace (one track per engine worker) to PATH
//! --verify               statically lint each matrix job's program with
//!                        rest-verify before simulating; fail fast on
//!                        error-or-worse findings
//! --reference            simulate matrix jobs on the reference decode path
//!                        (re-decode every fetch) instead of the pre-decoded tables
//! --emit-regress DIR     write minimized fuzz reproducers (.s + .trace) into DIR
//! --help                 usage
//! ```
//!
//! `--verify`, `--reference`, `--sample-interval` and `--trace-out`
//! apply to the figure and campaign matrix jobs only
//! ([`Harness::run_matrix`]); job lists run through
//! [`Harness::run_all`] (the attack, regression, fault and elision
//! cells) keep their own configuration.
//!
//! `--jobs` is clamped to the host's available parallelism: requesting
//! more workers than cores never helps a CPU-bound simulation and the
//! determinism contract makes the clamp invisible in experiment output
//! (only the host profile records the effective worker count).
//!
//! A run fails (exit 1) after writing its artifacts when any experiment
//! failed or any engine job panicked, naming each.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use rest_cpu::ExecTier;
use rest_obs::HostProfile;
use rest_workloads::Scale;

use crate::engine::{Engine, JobOutcome, MatrixResults, MatrixSpec, SimJob};
use crate::sink::ResultSink;
use crate::FigureRow;

/// Micro-ops traced from the first job of each matrix under
/// `--trace-out`.
pub const TRACE_UOPS: usize = 512;

/// Parsed common command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchCli {
    /// Experiments named on the command line (empty = all of them).
    pub experiments: Vec<String>,
    /// Force test scale on every experiment (`--test`).
    pub test: bool,
    /// Worker threads for the job runner.
    pub jobs: usize,
    /// Artifact directory (`--out`, default `results`).
    pub out: PathBuf,
    /// Row filter (`--filter`), a case-insensitive substring.
    pub filter: Option<String>,
    /// Interval sampler period in committed instructions
    /// (`--sample-interval`, 0 = off).
    pub sample_interval: u64,
    /// Perfetto trace output path (`--trace-out`), if any. Enables
    /// micro-op tracing on the first job of every matrix.
    pub trace_out: Option<PathBuf>,
    /// Host-profile output path (`--profile-out`), if any: the
    /// `rest-host-profile/v2` document is written only when given.
    pub profile_out: Option<PathBuf>,
    /// Campaign-timeline Perfetto trace path (`--campaign-trace-out`),
    /// if any: one track per engine worker, one slice per fresh job.
    pub campaign_trace_out: Option<PathBuf>,
    /// Statically verify each program before simulating (`--verify`):
    /// jobs fail fast with error kind `"verify"` instead of running a
    /// program the linter can prove broken.
    pub verify: bool,
    /// Simulate on the reference decode path (`--reference`): re-decode
    /// every instruction on every fetch instead of replaying from the
    /// pre-decoded op and template tables. Output must be byte-identical; CI diffs it.
    pub reference: bool,
    /// Directory to write minimized regression reproducers to
    /// (`--emit-regress`), if any.
    pub emit_regress: Option<PathBuf>,
}

impl BenchCli {
    /// Base seed of the fault campaign (`faults`).
    pub const DEFAULT_FAULT_SEED: u64 = 0x5EED_FA17;

    /// Seed of the adversarial-corpus generator behind the fuzz
    /// campaign (`fuzz`).
    pub const DEFAULT_FUZZ_SEED: u64 = 0xF0CC_5EED;

    /// The execution tier the flags select: the reference decode path
    /// under `--reference`, the pre-decoded tables otherwise.
    pub fn exec_tier(&self) -> ExecTier {
        if self.reference {
            ExecTier::Reference
        } else {
            ExecTier::Fast
        }
    }

    /// Default worker count: the machine's available parallelism.
    pub fn default_jobs() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Parses the process arguments; prints usage and exits on `--help`
    /// or a malformed command line.
    pub fn parse() -> BenchCli {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match Self::from_args(&args) {
            Ok(cli) => cli,
            Err(msg) => Self::usage_exit(&msg),
        }
    }

    /// Prints `msg` and the usage, then exits: 0 for a `--help`
    /// request (`msg == "help"`), 2 otherwise.
    fn usage_exit(msg: &str) -> ! {
        if msg == "help" {
            eprintln!("{}", Self::usage());
            std::process::exit(0);
        }
        eprintln!("regen: {msg}");
        eprintln!("{}", Self::usage());
        std::process::exit(2);
    }

    /// Pure parser (testable). `Err("help")` signals a `--help` request.
    pub fn from_args(args: &[String]) -> Result<BenchCli, String> {
        let mut cli = BenchCli {
            experiments: Vec::new(),
            test: false,
            jobs: Self::default_jobs(),
            out: PathBuf::from("results"),
            filter: None,
            sample_interval: 0,
            trace_out: None,
            profile_out: None,
            campaign_trace_out: None,
            verify: false,
            reference: false,
            emit_regress: None,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--test" => cli.test = true,
                "--jobs" => {
                    let v = it.next().ok_or("--jobs needs a value")?;
                    cli.jobs = v
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("--jobs: invalid worker count {v:?}"))?;
                }
                "--out" => {
                    let v = it.next().ok_or("--out needs a directory")?;
                    cli.out = PathBuf::from(v);
                }
                "--filter" => {
                    let v = it.next().ok_or("--filter needs a substring")?;
                    cli.filter = Some(v.to_string());
                }
                "--sample-interval" => {
                    let v = it.next().ok_or("--sample-interval needs a value")?;
                    cli.sample_interval = v
                        .parse::<u64>()
                        .map_err(|_| format!("--sample-interval: invalid interval {v:?}"))?;
                }
                "--trace-out" => {
                    let v = it.next().ok_or("--trace-out needs a path")?;
                    cli.trace_out = Some(PathBuf::from(v));
                }
                "--profile-out" => {
                    let v = it.next().ok_or("--profile-out needs a path")?;
                    cli.profile_out = Some(PathBuf::from(v));
                }
                "--campaign-trace-out" => {
                    let v = it.next().ok_or("--campaign-trace-out needs a path")?;
                    cli.campaign_trace_out = Some(PathBuf::from(v));
                }
                "--verify" => cli.verify = true,
                "--reference" => cli.reference = true,
                "--emit-regress" => {
                    let v = it.next().ok_or("--emit-regress needs a directory")?;
                    cli.emit_regress = Some(PathBuf::from(v));
                }
                "--help" | "-h" => return Err("help".to_string()),
                other if other.starts_with('-') => {
                    return Err(format!("unknown argument {other:?}"))
                }
                name => {
                    if !crate::regen::EXPERIMENTS.iter().any(|e| e.name == name) {
                        return Err(format!("unknown experiment {name:?}"));
                    }
                    cli.experiments.push(name.to_string());
                }
            }
        }
        // Oversubscribing a CPU-bound job pool only adds contention; the
        // effective count is recorded in the host profile, never in
        // experiment JSON, so the clamp cannot perturb result bytes.
        cli.jobs = cli.jobs.min(Self::default_jobs());
        Ok(cli)
    }

    fn usage() -> String {
        let names: Vec<&str> = crate::regen::EXPERIMENTS.iter().map(|e| e.name).collect();
        format!(
            "usage: regen [EXPERIMENT ...] [--test] [--jobs N] [--out DIR]\n\
             \x20                 [--filter SUBSTRING] [--sample-interval N] [--trace-out PATH]\n\
             \x20                 [--profile-out PATH] [--campaign-trace-out PATH]\n\
             \x20                 [--verify] [--reference] [--emit-regress DIR]\n\
             \n\
             EXPERIMENT           one of: {}\n\
             \x20                    (default: all, in that order)\n\
             --test               run every experiment at test scale (fast smoke check;\n\
             \x20                    default: each experiment's committed scale)\n\
             --jobs N             worker threads (default and upper bound:\n\
             \x20                    available parallelism)\n\
             --out DIR            write artifacts into DIR (default: results)\n\
             --filter SUBSTRING   keep only rows whose benchmark name contains SUBSTRING\n\
             --sample-interval N  sample counters + gauges every N committed instructions\n\
             \x20                    of each matrix job into the JSON \"series\" sections (0 = off)\n\
             --trace-out PATH     write a Perfetto/Chrome trace-event JSON of the first\n\
             \x20                    matrix job's pipeline activity ({TRACE_UOPS} micro-ops) to PATH\n\
             --profile-out PATH   write the host document (phase, experiment and per-job\n\
             \x20                    wall times, worker rollup, cache and panic counts) to\n\
             \x20                    PATH; no host document is written without it\n\
             --campaign-trace-out PATH\n\
             \x20                    write the host document's campaign timeline as a\n\
             \x20                    Perfetto trace (one track per engine worker) to PATH\n\
             --verify             statically lint each matrix job's program before\n\
             \x20                    simulating; fail fast on error-or-worse findings\n\
             --reference          re-decode every fetch of matrix jobs instead of using\n\
             \x20                    the pre-decoded tables (differential/perf baseline)\n\
             --emit-regress DIR   write minimized fuzz reproducers (.s + .trace)\n\
             \x20                    into DIR\n\
             --help               this message\n\
             \n\
             --verify, --reference, --sample-interval and --trace-out apply to the figure\n\
             and campaign matrix jobs only; the attack, regression, fault and elision job\n\
             lists ignore them.",
            names.join(", ")
        )
    }
}

/// The state every experiment of one run shares: the command line, one
/// [`Engine`] (so a job several experiments submit is simulated once),
/// one host profile and the run's failures.
///
/// `regen` brackets each experiment with [`Harness::begin`] and
/// [`Harness::end`] and closes the run with [`Harness::finish`]; an
/// experiment only describes its matrices and assembles its artifacts:
///
/// ```ignore
/// let matrix = h.run_matrix(spec);
/// let mut sink = h.sink();
/// sink.push_matrix("matrix", &matrix);
/// sink.artifacts(matrix.text_table().to_string())
/// ```
pub struct Harness {
    /// The parsed common command line.
    pub cli: BenchCli,
    /// The shared job engine.
    pub engine: Engine,
    /// The running experiment: names its documents and job labels.
    pub experiment: &'static str,
    /// The running experiment's scale.
    pub scale: Scale,
    /// Whether the running experiment applied `--filter` to its rows.
    filtered: bool,
    profile: HostProfile,
    started: Instant,
    /// Engine time spent by the running experiment so far.
    simulated: Duration,
    /// The first pipeline trace any matrix recorded, as Perfetto JSON.
    trace: Option<String>,
    failures: Vec<String>,
}

impl Harness {
    /// A harness over a parsed command line.
    pub fn new(cli: BenchCli) -> Harness {
        let engine = Engine::new(cli.jobs);
        let mut profile = HostProfile::new("regen", engine.workers());
        // Both phases exist even in a run that never simulates.
        profile.add_phase("simulate", Duration::ZERO);
        profile.add_phase("report", Duration::ZERO);
        Harness {
            cli,
            engine,
            experiment: "",
            scale: Scale::Ref,
            filtered: false,
            profile,
            started: Instant::now(),
            simulated: Duration::ZERO,
            trace: None,
            failures: Vec::new(),
        }
    }

    /// Starts `experiment` at its committed `scale` (test scale under
    /// `--test`).
    pub fn begin(&mut self, experiment: &'static str, scale: Scale) {
        self.experiment = experiment;
        self.scale = if self.cli.test { Scale::Test } else { scale };
        self.filtered = false;
        self.started = Instant::now();
        self.simulated = Duration::ZERO;
    }

    /// Closes the running experiment: its wall time outside the engine
    /// accrues to the "report" phase, and the whole of it to the
    /// profile's per-experiment list.
    pub fn end(&mut self) {
        let wall = self.started.elapsed();
        self.profile
            .add_phase("report", wall.saturating_sub(self.simulated));
        self.profile.add_experiment(self.experiment, wall);
    }

    /// Runs `work` on the engine, charging its wall time to the
    /// "simulate" phase and logging its jobs under the experiment name.
    fn simulate<T>(&mut self, work: impl FnOnce(&Engine) -> T) -> T {
        let started = Instant::now();
        let out = work(&self.engine);
        let wall = started.elapsed();
        self.simulated += wall;
        self.profile.add_phase("simulate", wall);
        for mut timing in self.engine.take_timings() {
            timing.label = format!("{}: {}", self.experiment, timing.label);
            self.profile.add_job(timing);
        }
        out
    }

    /// Runs an experiment matrix with the command line applied: the
    /// `--verify` gate, and on the matrix's machine the sampler
    /// interval, the execution tier and under `--trace-out` the trace
    /// length (which the engine applies to the first job only).
    pub fn run_matrix(&mut self, mut spec: MatrixSpec) -> MatrixResults {
        spec.verify = self.cli.verify;
        spec.cfg.sample_interval = self.cli.sample_interval;
        spec.cfg.tier = self.cli.exec_tier();
        spec.cfg.trace_uops = if self.cli.trace_out.is_some() {
            TRACE_UOPS
        } else {
            0
        };
        let matrix = self.simulate(|engine| engine.run_matrix(&spec));
        if self.trace.is_none() {
            self.trace = matrix.first_trace().map(|t| t.to_perfetto().render());
        }
        matrix
    }

    /// Runs a plain job list on the shared engine.
    pub fn run_all(&mut self, jobs: &[SimJob]) -> Vec<JobOutcome> {
        self.simulate(|engine| engine.run_all(jobs))
    }

    /// Runs `count` independent tasks on the engine's worker pool (see
    /// [`Engine::run_tasks`]).
    pub fn run_tasks<T: Send, F: Fn(usize) -> T + Sync>(
        &mut self,
        count: usize,
        task: F,
    ) -> Vec<T> {
        self.simulate(|engine| engine.run_tasks(count, task))
    }

    /// Applies `--filter` to a row list (case-insensitive substring on
    /// the row's display name) and marks the running experiment as
    /// filtered, so its documents record the filter.
    pub fn filter_rows(&mut self, rows: Vec<FigureRow>) -> Vec<FigureRow> {
        let Some(filter) = &self.cli.filter else {
            return rows;
        };
        self.filtered = true;
        let needle = filter.to_ascii_lowercase();
        rows.into_iter()
            .filter(|r| r.name.to_ascii_lowercase().contains(&needle))
            .collect()
    }

    /// A result sink pre-populated with the running experiment's
    /// identity. The `filter` member names `--filter` only when the
    /// experiment applied it ([`Harness::filter_rows`]); an experiment
    /// that ran every row records `null`.
    pub fn sink(&self) -> ResultSink {
        let filter = self.cli.filter.as_deref().filter(|_| self.filtered);
        ResultSink::new(self.experiment, self.scale, filter)
    }

    /// The running experiment's scale as serialised into documents.
    pub fn scale_name(&self) -> &'static str {
        crate::scale_name(self.scale)
    }

    /// Records a failure of the running experiment. The run goes on and
    /// its artifacts are still written; [`Harness::finish`] reports it.
    pub fn fail(&mut self, msg: impl std::fmt::Display) {
        self.failures.push(format!("{}: {msg}", self.experiment));
    }

    /// Writes the run's observability documents: the Perfetto trace of
    /// the first traced job (`--trace-out`), the validated host profile
    /// (`--profile-out`) and its campaign timeline
    /// (`--campaign-trace-out`). Fails — after writing them — when any
    /// experiment failed or any job panicked, naming each.
    pub fn finish(mut self) -> Result<(), String> {
        let doc = self.profile.to_json();
        HostProfile::validate(&doc).map_err(|e| format!("invalid host profile: {e}"))?;
        if let Some(path) = &self.cli.trace_out {
            match &self.trace {
                Some(trace) => crate::write_text_file(path, trace)?,
                None => eprintln!(
                    "# --trace-out: the traced job failed or recorded nothing; no trace written"
                ),
            }
        }
        if let Some(path) = &self.cli.profile_out {
            crate::write_text_file(path, &format!("{}\n", doc.to_string_pretty()))?;
        }
        if let Some(path) = &self.cli.campaign_trace_out {
            crate::write_text_file(path, &self.profile.to_perfetto().render())?;
        }
        let panicked: Vec<&str> = self
            .profile
            .jobs()
            .iter()
            .filter(|j| j.outcome == "panic")
            .map(|j| j.label.as_str())
            .collect();
        if !panicked.is_empty() {
            let msg = format!(
                "{} job(s) panicked: {}",
                panicked.len(),
                panicked.join(", ")
            );
            self.failures.push(msg);
        }
        if self.failures.is_empty() {
            Ok(())
        } else {
            Err(self.failures.join("\n"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ColumnSpec;
    use rest_runtime::RtConfig;
    use rest_workloads::Workload;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults() {
        let cli = BenchCli::from_args(&[]).unwrap();
        assert!(cli.experiments.is_empty());
        assert!(!cli.test);
        assert_eq!(cli.jobs, BenchCli::default_jobs());
        assert!(cli.jobs >= 1);
        assert_eq!(cli.out, PathBuf::from("results"));
        assert_eq!(cli.filter, None);
        assert_eq!(cli.sample_interval, 0);
        assert_eq!(cli.trace_out, None);
        assert_eq!(cli.profile_out, None);
        assert_eq!(cli.campaign_trace_out, None);
        assert!(!cli.verify);
        assert!(!cli.reference);
        assert_eq!(cli.exec_tier(), ExecTier::Fast);
        assert_eq!(cli.emit_regress, None);
    }

    #[test]
    fn fuzz_flags_parse() {
        let cli = BenchCli::from_args(&argv(&["--emit-regress", "/tmp/regress"])).unwrap();
        assert_eq!(cli.emit_regress, Some(PathBuf::from("/tmp/regress")));
    }

    #[test]
    fn all_flags_parse() {
        let cli = BenchCli::from_args(&argv(&[
            "fig8", "--test", "--jobs", "3", "--out", "/tmp/x", "--filter", "gobmk", "fig7",
        ]))
        .unwrap();
        assert_eq!(cli.experiments, ["fig8", "fig7"]);
        assert!(cli.test);
        assert_eq!(cli.jobs, 3.min(BenchCli::default_jobs()));
        assert_eq!(cli.out, PathBuf::from("/tmp/x"));
        assert_eq!(cli.filter.as_deref(), Some("gobmk"));
    }

    #[test]
    fn test_flag_forces_test_scale() {
        let mut h = Harness::new(BenchCli::from_args(&[]).unwrap());
        h.begin("fig7", Scale::Ref);
        assert_eq!((h.scale, h.scale_name()), (Scale::Ref, "ref"));
        let mut h = Harness::new(BenchCli::from_args(&argv(&["--test"])).unwrap());
        h.begin("fig7", Scale::Ref);
        assert_eq!((h.scale, h.scale_name()), (Scale::Test, "test"));
    }

    #[test]
    fn jobs_clamp_to_available_parallelism() {
        let cli = BenchCli::from_args(&argv(&["--jobs", "100000"])).unwrap();
        assert_eq!(cli.jobs, BenchCli::default_jobs());
        let cli = BenchCli::from_args(&argv(&["--jobs", "1"])).unwrap();
        assert_eq!(cli.jobs, 1, "requests at or under the limit pass through");
    }

    #[test]
    fn reference_flag_parses() {
        let cli = BenchCli::from_args(&argv(&["--reference"])).unwrap();
        assert!(cli.reference);
        assert_eq!(cli.exec_tier(), ExecTier::Reference);
    }

    #[test]
    fn observability_flags_parse() {
        let cli = BenchCli::from_args(&argv(&[
            "--sample-interval",
            "5000",
            "--trace-out",
            "/tmp/trace.json",
            "--profile-out",
            "/tmp/prof.json",
            "--campaign-trace-out",
            "/tmp/campaign.json",
            "--verify",
        ]))
        .unwrap();
        assert_eq!(cli.sample_interval, 5000);
        assert_eq!(cli.trace_out, Some(PathBuf::from("/tmp/trace.json")));
        assert_eq!(cli.profile_out, Some(PathBuf::from("/tmp/prof.json")));
        assert_eq!(
            cli.campaign_trace_out,
            Some(PathBuf::from("/tmp/campaign.json"))
        );
        assert!(cli.verify);
    }

    #[test]
    fn errors_are_reported() {
        for bad in [
            &["--jobs"][..],
            &["--jobs", "0"],
            &["--jobs", "x"],
            &["--frobnicate"],
            &["fig9"],
            &["--out"],
            &["--sample-interval"],
            &["--sample-interval", "x"],
            &["--trace-out"],
            &["--profile-out"],
            &["--campaign-trace-out"],
            &["--emit-regress"],
            &["--resume"],
            &["--max-cells", "5"],
            &["--fault-seed", "1"],
            &["--fuzz-seed", "1"],
            &["--round-size", "5"],
            &["--min-programs", "5"],
            &["--trace"],
        ] {
            assert!(BenchCli::from_args(&argv(bad)).is_err(), "{bad:?}");
        }
        assert_eq!(BenchCli::from_args(&argv(&["--help"])).unwrap_err(), "help");
    }

    #[test]
    fn harness_shares_one_engine_and_profiles_simulate_time() {
        let cli = BenchCli::from_args(&argv(&["--test", "--jobs", "1"])).unwrap();
        let mut h = Harness::new(cli);
        h.begin("harness-test", Scale::Test);
        let job = SimJob::plain(&FigureRow::of(Workload::Lbm), Scale::Test);
        let first = h.run_all(std::slice::from_ref(&job));
        let again = h.run_all(std::slice::from_ref(&job));
        assert!(first[0].is_ok());
        // The harness engine caches across calls like a bare Engine.
        assert!(std::sync::Arc::ptr_eq(&first[0], &again[0]));
        // Both runs landed in the profile under the experiment's name,
        // the second as a cache hit.
        h.end();
        let jobs = h.profile.jobs();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].label, "harness-test: lbm plain");
        assert!(!jobs[0].cached && jobs[1].cached);
        assert!(!h.sink().to_json_string().is_empty());
        h.finish().expect("a clean run passes");
    }

    #[test]
    fn every_matrix_gets_the_command_line() {
        // A bare spec, as every experiment builds it: the harness alone
        // applies --reference, so its job must run on the reference tier.
        let cli = BenchCli::from_args(&argv(&["--reference", "--jobs", "1"])).unwrap();
        let mut h = Harness::new(cli);
        h.begin("tier-test", Scale::Test);
        let row = FigureRow::of(Workload::Lbm);
        let spec = MatrixSpec {
            include_plain: false,
            ..MatrixSpec::new(
                vec![row],
                vec![ColumnSpec::new("plain", RtConfig::plain())],
                Scale::Test,
            )
        };
        let matrix = h.run_matrix(spec);
        let mut reference = SimJob::plain(&row, Scale::Test);
        reference.cfg.tier = ExecTier::Reference;
        // The engine caches by the whole job: a hit proves the matrix
        // job carried the reference tier.
        let again = h.run_all(&[reference]);
        assert!(std::sync::Arc::ptr_eq(&matrix.rows[0].cells[0], &again[0]));
        assert!(h.profile.jobs()[1].cached);
    }

    #[test]
    fn filter_selects_rows_case_insensitively() {
        let mut h = Harness::new(BenchCli::from_args(&argv(&["--filter", "GOBMK"])).unwrap());
        let rows = h.filter_rows(crate::figure_rows());
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|r| r.name.starts_with("gobmk")));
        let mut h = Harness::new(BenchCli::from_args(&argv(&["--filter", "zzz"])).unwrap());
        assert!(h.filter_rows(crate::figure_rows()).is_empty());
    }

    #[test]
    fn only_an_experiment_that_filtered_records_the_filter() {
        let mut h = Harness::new(BenchCli::from_args(&argv(&["--filter", "gobmk"])).unwrap());
        h.begin("fig7", Scale::Test);
        h.filter_rows(crate::figure_rows());
        assert!(h.sink().to_json_string().contains("\"filter\": \"gobmk\""));
        // The next experiment starts unfiltered.
        h.begin("faults", Scale::Test);
        assert!(h.sink().to_json_string().contains("\"filter\": null"));

        // table1 selects no rows (and simulates nothing): a filtered
        // run of it writes `"filter": null`.
        let out = std::env::temp_dir().join(format!("rest-cli-filter-{}", std::process::id()));
        let out_arg = out.to_string_lossy().to_string();
        let cli = BenchCli::from_args(&argv(&[
            "table1", "--test", "--filter", "gobmk", "--out", &out_arg,
        ]))
        .unwrap();
        crate::regen::run(cli).expect("table1 runs without simulating");
        let doc = rest_obs::Json::parse(&std::fs::read_to_string(out.join("table1.json")).unwrap())
            .unwrap();
        assert_eq!(doc.get("filter"), Some(&rest_obs::Json::Null));
        std::fs::remove_dir_all(&out).unwrap();
    }
}
