//! Shared command-line layer for every harness binary.
//!
//! All seven experiment binaries accept the same flags:
//!
//! ```text
//! --test                 run at test scale (fast; default is reference scale)
//! --jobs N               worker threads (default: available parallelism)
//! --json PATH            JSON output path (default: results/<experiment>.json)
//! --filter SUBSTRING     keep only benchmark rows whose name contains SUBSTRING
//! --sample-interval N    snapshot counters + occupancy gauges every N committed
//!                        instructions into a "series" JSON section (0 = off)
//! --trace-out PATH       write a Chrome trace-event (Perfetto) JSON of the
//!                        first traced job's pipeline activity to PATH
//! --trace-uops N         micro-ops to trace for --trace-out (default 512)
//! --profile-out PATH     write the rest-host-profile/v2 host document (phases;
//!                        per job the worker, start, queue and wall time,
//!                        cache flag and outcome; per-worker rollup, cache
//!                        hits/misses, panic count) to PATH; nothing is
//!                        written without it
//! --campaign-trace-out PATH
//!                        write that document's campaign timeline as a
//!                        Perfetto trace (one track per engine worker) to PATH
//! --verify               statically lint each guest program with rest-verify
//!                        before simulating; fail fast on error-or-worse findings
//! --reference            simulate on the reference decode path (re-decode every
//!                        fetch) instead of the decoded-uop cache
//! --trace                simulate on the superblock-trace tier (decoded-uop
//!                        cache plus run-time trace compilation of hot loops)
//! --resume               resume an interrupted campaign from its checkpoint
//! --ckpt PATH            checkpoint path (default: results/<experiment>.ckpt.json)
//! --max-cells N          stop after N freshly simulated cells, keeping the
//!                        checkpoint (deterministic interruption for CI)
//! --fault-seed N         base seed for fault-injection campaigns
//! --help                 usage
//! ```
//!
//! `--jobs` is clamped to the host's available parallelism: requesting
//! more workers than cores never helps a CPU-bound simulation and the
//! determinism contract makes the clamp invisible in experiment output
//! (only the host profile and throughput reports record the effective
//! worker count).
//!
//! A run fails (exit 1) after writing its documents when any engine job
//! panicked, naming every such job.

use std::path::PathBuf;
use std::time::Instant;

use rest_cpu::ExecTier;
use rest_obs::HostProfile;
use rest_workloads::Scale;

use crate::engine::{Engine, JobOutcome, MatrixResults, MatrixSpec, SimJob};
use crate::sink::ResultSink;
use crate::FigureRow;

/// Parsed common command line of one experiment binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchCli {
    /// Experiment name (`"fig7"`, …): names the default JSON output.
    pub experiment: String,
    /// Simulation scale (`--test` ⇒ [`Scale::Test`]).
    pub scale: Scale,
    /// Worker threads for the job runner.
    pub jobs: usize,
    /// Explicit JSON output path (`--json`), if any.
    pub json: Option<PathBuf>,
    /// Row filter (`--filter`), a case-insensitive substring.
    pub filter: Option<String>,
    /// Interval sampler period in committed instructions
    /// (`--sample-interval`, 0 = off).
    pub sample_interval: u64,
    /// Perfetto trace output path (`--trace-out`), if any. Enables
    /// micro-op tracing on the first job of the experiment.
    pub trace_out: Option<PathBuf>,
    /// Micro-ops to trace when `--trace-out` is given (`--trace-uops`).
    pub trace_uops: usize,
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
    /// decoded-uop cache. Output must be byte-identical; CI diffs it.
    pub reference: bool,
    /// Simulate on the superblock-trace tier (`--trace`): decoded-uop
    /// cache plus run-time trace compilation of hot loops. Output must
    /// be byte-identical; CI diffs it.
    pub trace: bool,
    /// Resume an interrupted campaign from its checkpoint file
    /// (`--resume`): cells already recorded there are not re-simulated.
    pub resume: bool,
    /// Explicit checkpoint path (`--ckpt`); defaults to
    /// `results/<experiment>.ckpt.json`.
    pub ckpt: Option<PathBuf>,
    /// Stop after simulating this many fresh cells (`--max-cells`),
    /// leaving the checkpoint behind for `--resume` — used by CI to
    /// interrupt a campaign deterministically.
    pub max_cells: Option<usize>,
    /// Base seed for fault-injection campaigns (`--fault-seed`).
    pub fault_seed: u64,
    /// Seed for the adversarial-corpus generator (`--fuzz-seed`).
    pub fuzz_seed: u64,
    /// Programs per fuzz-campaign round (`--round-size`).
    pub round_size: usize,
    /// Minimum programs a fuzz campaign must generate before it may
    /// declare itself dry (`--min-programs`).
    pub min_programs: usize,
    /// Directory to write minimized regression reproducers to
    /// (`--emit-regress`), if any.
    pub emit_regress: Option<PathBuf>,
}

/// Parses a u64 with an optional `0x` prefix (seeds read naturally in
/// hex).
fn parse_u64(v: &str) -> Option<u64> {
    match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
}

impl BenchCli {
    /// Default base seed for fault campaigns: fixed so CI runs are
    /// reproducible without passing `--fault-seed`.
    pub const DEFAULT_FAULT_SEED: u64 = 0x5EED_FA17;

    /// Default seed for the adversarial-corpus generator: fixed so CI
    /// campaigns are reproducible without passing `--fuzz-seed`.
    pub const DEFAULT_FUZZ_SEED: u64 = 0xF0CC_5EED;

    /// The execution tier the flags select: `--trace` wins over
    /// `--reference` (the more-specialised tier), default is the
    /// decoded-uop cache.
    pub fn exec_tier(&self) -> ExecTier {
        if self.trace {
            ExecTier::Trace
        } else if self.reference {
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
    pub fn parse(experiment: &str) -> BenchCli {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match Self::from_args(experiment, &args) {
            Ok(cli) => cli,
            Err(msg) => {
                if msg == "help" {
                    eprintln!("{}", Self::usage(experiment));
                    std::process::exit(0);
                }
                eprintln!("{experiment}: {msg}");
                eprintln!("{}", Self::usage(experiment));
                std::process::exit(2);
            }
        }
    }

    /// Pure parser (testable). `Err("help")` signals a `--help` request.
    pub fn from_args(experiment: &str, args: &[String]) -> Result<BenchCli, String> {
        let mut cli = BenchCli {
            experiment: experiment.to_string(),
            scale: Scale::Ref,
            jobs: Self::default_jobs(),
            json: None,
            filter: None,
            sample_interval: 0,
            trace_out: None,
            trace_uops: 512,
            profile_out: None,
            campaign_trace_out: None,
            verify: false,
            reference: false,
            trace: false,
            resume: false,
            ckpt: None,
            max_cells: None,
            fault_seed: Self::DEFAULT_FAULT_SEED,
            fuzz_seed: Self::DEFAULT_FUZZ_SEED,
            round_size: 2500,
            min_programs: 10_000,
            emit_regress: None,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--test" => cli.scale = Scale::Test,
                "--jobs" => {
                    let v = it.next().ok_or("--jobs needs a value")?;
                    cli.jobs = v
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("--jobs: invalid worker count {v:?}"))?;
                }
                "--json" => {
                    let v = it.next().ok_or("--json needs a path")?;
                    cli.json = Some(PathBuf::from(v));
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
                "--trace-uops" => {
                    let v = it.next().ok_or("--trace-uops needs a value")?;
                    cli.trace_uops = v
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("--trace-uops: invalid count {v:?}"))?;
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
                "--trace" => cli.trace = true,
                "--resume" => cli.resume = true,
                "--ckpt" => {
                    let v = it.next().ok_or("--ckpt needs a path")?;
                    cli.ckpt = Some(PathBuf::from(v));
                }
                "--max-cells" => {
                    let v = it.next().ok_or("--max-cells needs a value")?;
                    cli.max_cells = Some(
                        v.parse::<usize>()
                            .ok()
                            .filter(|&n| n >= 1)
                            .ok_or_else(|| format!("--max-cells: invalid count {v:?}"))?,
                    );
                }
                "--fault-seed" => {
                    let v = it.next().ok_or("--fault-seed needs a value")?;
                    cli.fault_seed = parse_u64(v)
                        .ok_or_else(|| format!("--fault-seed: invalid seed {v:?}"))?;
                }
                "--fuzz-seed" => {
                    let v = it.next().ok_or("--fuzz-seed needs a value")?;
                    cli.fuzz_seed = parse_u64(v)
                        .ok_or_else(|| format!("--fuzz-seed: invalid seed {v:?}"))?;
                }
                "--round-size" => {
                    let v = it.next().ok_or("--round-size needs a value")?;
                    cli.round_size = v
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("--round-size: invalid count {v:?}"))?;
                }
                "--min-programs" => {
                    let v = it.next().ok_or("--min-programs needs a value")?;
                    cli.min_programs = v
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("--min-programs: invalid count {v:?}"))?;
                }
                "--emit-regress" => {
                    let v = it.next().ok_or("--emit-regress needs a directory")?;
                    cli.emit_regress = Some(PathBuf::from(v));
                }
                "--help" | "-h" => return Err("help".to_string()),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        // Oversubscribing a CPU-bound job pool only adds contention; the
        // effective count is recorded in BENCH_* reports, never in
        // experiment JSON, so the clamp cannot perturb result bytes.
        cli.jobs = cli.jobs.min(Self::default_jobs());
        Ok(cli)
    }

    /// The JSON output path: `--json` if given, else
    /// `results/<experiment>.json`.
    pub fn json_path(&self) -> PathBuf {
        self.json
            .clone()
            .unwrap_or_else(|| PathBuf::from(format!("results/{}.json", self.experiment)))
    }

    /// Applies `--filter` to a row list (case-insensitive substring on
    /// the row's display name).
    pub fn filter_rows(&self, rows: Vec<FigureRow>) -> Vec<FigureRow> {
        match &self.filter {
            None => rows,
            Some(f) => {
                let needle = f.to_ascii_lowercase();
                rows.into_iter()
                    .filter(|r| r.name.to_ascii_lowercase().contains(&needle))
                    .collect()
            }
        }
    }

    /// Scale name as serialized into results (`"test"` / `"ref"`).
    pub fn scale_name(&self) -> &'static str {
        match self.scale {
            Scale::Test => "test",
            Scale::Ref => "ref",
        }
    }

    /// The checkpoint path: `--ckpt` if given, else
    /// `results/<experiment>.ckpt.json`.
    pub fn ckpt_path(&self) -> PathBuf {
        self.ckpt
            .clone()
            .unwrap_or_else(|| PathBuf::from(format!("results/{}.ckpt.json", self.experiment)))
    }

    fn usage(experiment: &str) -> String {
        format!(
            "usage: {experiment} [--test] [--jobs N] [--json PATH] [--filter SUBSTRING]\n\
             \x20                 [--sample-interval N] [--trace-out PATH] [--trace-uops N]\n\
             \x20                 [--profile-out PATH] [--campaign-trace-out PATH]\n\
             \x20                 [--verify] [--reference] [--trace] [--resume] [--ckpt PATH]\n\
             \x20                 [--max-cells N] [--fault-seed N] [--fuzz-seed N]\n\
             \x20                 [--round-size N] [--min-programs N] [--emit-regress DIR]\n\
             \n\
             --test               run at test scale (fast smoke check)\n\
             --jobs N             worker threads (default and upper bound:\n\
             \x20                    available parallelism)\n\
             --json PATH          write JSON results to PATH\n\
             \x20                    (default: results/{experiment}.json)\n\
             --filter SUBSTRING   keep only rows whose benchmark name contains SUBSTRING\n\
             --sample-interval N  sample counters + gauges every N committed\n\
             \x20                    instructions into the JSON \"series\" sections (0 = off)\n\
             --trace-out PATH     write a Perfetto/Chrome trace-event JSON of the first\n\
             \x20                    job's pipeline activity to PATH\n\
             --trace-uops N       micro-ops to trace for --trace-out (default 512)\n\
             --profile-out PATH   write the host document (phase and per-job wall\n\
             \x20                    times, worker rollup, cache and panic counts) to PATH;\n\
             \x20                    no host document is written without it\n\
             --campaign-trace-out PATH\n\
             \x20                    write the host document's campaign timeline as a\n\
             \x20                    Perfetto trace (one track per engine worker) to PATH\n\
             --verify             statically lint each guest program before simulating;\n\
             \x20                    fail fast on error-or-worse findings\n\
             --reference          re-decode every fetch instead of using the\n\
             \x20                    decoded-uop cache (differential/perf baseline)\n\
             --trace              superblock-trace execution tier: decoded-uop cache\n\
             \x20                    plus run-time trace compilation of hot loops\n\
             --resume             resume an interrupted campaign from its checkpoint;\n\
             \x20                    recorded cells are not re-simulated\n\
             --ckpt PATH          checkpoint path for campaign experiments\n\
             \x20                    (default: results/{experiment}.ckpt.json)\n\
             --max-cells N        stop after N freshly simulated cells, keeping the\n\
             \x20                    checkpoint for --resume (CI interruption hook)\n\
             --fault-seed N       base seed for fault-injection campaigns\n\
             \x20                    (decimal or 0x-hex; default 0x5eedfa17)\n\
             --fuzz-seed N        seed for the adversarial-corpus generator\n\
             \x20                    (decimal or 0x-hex; default 0xf0cc5eed)\n\
             --round-size N       programs per fuzz-campaign round (default 2500)\n\
             --min-programs N     programs a fuzz campaign must reach before it may\n\
             \x20                    stop dry (default 10000)\n\
             --emit-regress DIR   write minimized fuzz reproducers (.s + .trace)\n\
             \x20                    into DIR\n\
             --help               this message"
        )
    }
}

/// Shared setup/teardown for the experiment binaries.
///
/// Every binary used to open with the same dance — parse the common
/// command line, build one [`Engine`], wrap the engine runs in a
/// "simulate" [`HostProfile`] phase, then close with a "report" phase,
/// the result sink, and the observability artefacts. `Harness` owns
/// that boilerplate so a binary reduces to *describe the experiment →
/// print the tables → finish*:
///
/// ```ignore
/// let mut h = Harness::new("fig7");
/// let matrix = h.run_matrix(&spec);
/// matrix.print_text_table();
/// let mut sink = h.sink();
/// sink.push_matrix("matrix", &matrix);
/// h.finish(sink, &matrix);
/// ```
///
/// Binaries without an engine phase (e.g. `table1`) use only
/// [`Harness::sink`]; campaign binaries (`faults`, `defense`) drive
/// [`Harness::run_all`] in checkpointed chunks.
pub struct Harness {
    /// The parsed common command line.
    pub cli: BenchCli,
    /// The shared job engine: one per process, so plain baselines are
    /// simulated once across every matrix the binary runs.
    pub engine: Engine,
    profile: HostProfile,
    /// Start of the report phase, re-based after every engine run so
    /// [`Harness::finish`] charges only actual reporting time.
    report_started: Instant,
}

impl Harness {
    /// Parses the process arguments (exiting on `--help` or a malformed
    /// command line) and sets up the engine and host profile.
    pub fn new(experiment: &str) -> Harness {
        Harness::from_cli(BenchCli::parse(experiment))
    }

    /// A harness over an already-parsed command line (testable).
    pub fn from_cli(cli: BenchCli) -> Harness {
        let engine = Engine::new(cli.jobs);
        Harness {
            profile: HostProfile::new(&cli.experiment, engine.workers()),
            engine,
            report_started: Instant::now(),
            cli,
        }
    }

    /// Runs an experiment matrix on the shared engine; the wall time
    /// accrues to the profile's "simulate" phase.
    pub fn run_matrix(&mut self, spec: &MatrixSpec) -> MatrixResults {
        let started = Instant::now();
        let matrix = self.engine.run_matrix(spec);
        self.profile.add_phase("simulate", started.elapsed());
        self.report_started = Instant::now();
        matrix
    }

    /// Runs a plain job list on the shared engine; the wall time
    /// accrues to the profile's "simulate" phase.
    pub fn run_all(&mut self, jobs: &[SimJob]) -> Vec<JobOutcome> {
        let started = Instant::now();
        let outcomes = self.engine.run_all(jobs);
        self.profile.add_phase("simulate", started.elapsed());
        self.report_started = Instant::now();
        outcomes
    }

    /// A result sink pre-populated with this experiment's identity.
    pub fn sink(&self) -> ResultSink {
        ResultSink::new(&self.cli)
    }

    /// Writes the finished sink, closes the "report" phase, and emits
    /// the observability artefacts (see [`crate::finish_observability`]).
    /// Exits 1 when the document or the host profile is invalid, or
    /// when any job panicked.
    pub fn finish(mut self, sink: ResultSink, matrix: &MatrixResults) {
        sink.finish();
        self.profile
            .add_phase("report", self.report_started.elapsed());
        if let Err(e) = crate::finish_observability(&self.cli, &self.engine, matrix, self.profile) {
            eprintln!("{}: {e}", self.cli.experiment);
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults() {
        let cli = BenchCli::from_args("fig7", &[]).unwrap();
        assert_eq!(cli.scale, Scale::Ref);
        assert_eq!(cli.jobs, BenchCli::default_jobs());
        assert!(cli.jobs >= 1);
        assert_eq!(cli.json, None);
        assert_eq!(cli.filter, None);
        assert_eq!(cli.json_path(), PathBuf::from("results/fig7.json"));
        assert_eq!(cli.scale_name(), "ref");
        assert_eq!(cli.sample_interval, 0);
        assert_eq!(cli.trace_out, None);
        assert_eq!(cli.trace_uops, 512);
        assert_eq!(cli.profile_out, None);
        assert_eq!(cli.campaign_trace_out, None);
        assert!(!cli.verify);
        assert!(!cli.reference);
        assert!(!cli.trace);
        assert!(!cli.resume);
        assert_eq!(cli.ckpt, None);
        assert_eq!(cli.ckpt_path(), PathBuf::from("results/fig7.ckpt.json"));
        assert_eq!(cli.max_cells, None);
        assert_eq!(cli.fault_seed, BenchCli::DEFAULT_FAULT_SEED);
        assert_eq!(cli.fuzz_seed, BenchCli::DEFAULT_FUZZ_SEED);
        assert_eq!(cli.round_size, 2500);
        assert_eq!(cli.min_programs, 10_000);
        assert_eq!(cli.emit_regress, None);
    }

    #[test]
    fn campaign_flags_parse() {
        let cli = BenchCli::from_args(
            "faults",
            &argv(&[
                "--resume",
                "--ckpt",
                "/tmp/f.ckpt.json",
                "--max-cells",
                "5",
                "--fault-seed",
                "0x1234",
            ]),
        )
        .unwrap();
        assert!(cli.resume);
        assert_eq!(cli.ckpt_path(), PathBuf::from("/tmp/f.ckpt.json"));
        assert_eq!(cli.max_cells, Some(5));
        assert_eq!(cli.fault_seed, 0x1234);
        let decimal = BenchCli::from_args("faults", &argv(&["--fault-seed", "42"])).unwrap();
        assert_eq!(decimal.fault_seed, 42);
    }

    #[test]
    fn fuzz_flags_parse() {
        let cli = BenchCli::from_args(
            "fuzz",
            &argv(&[
                "--fuzz-seed",
                "0xabc",
                "--round-size",
                "250",
                "--min-programs",
                "500",
                "--emit-regress",
                "/tmp/regress",
            ]),
        )
        .unwrap();
        assert_eq!(cli.fuzz_seed, 0xabc);
        assert_eq!(cli.round_size, 250);
        assert_eq!(cli.min_programs, 500);
        assert_eq!(cli.emit_regress, Some(PathBuf::from("/tmp/regress")));
        let decimal = BenchCli::from_args("fuzz", &argv(&["--fuzz-seed", "7"])).unwrap();
        assert_eq!(decimal.fuzz_seed, 7);
    }

    #[test]
    fn all_flags_parse() {
        let cli = BenchCli::from_args(
            "fig8",
            &argv(&["--test", "--jobs", "3", "--json", "/tmp/x.json", "--filter", "gobmk"]),
        )
        .unwrap();
        assert_eq!(cli.scale, Scale::Test);
        assert_eq!(cli.jobs, 3.min(BenchCli::default_jobs()));
        assert_eq!(cli.json_path(), PathBuf::from("/tmp/x.json"));
        assert_eq!(cli.filter.as_deref(), Some("gobmk"));
        assert_eq!(cli.scale_name(), "test");
    }

    #[test]
    fn jobs_clamp_to_available_parallelism() {
        let cli = BenchCli::from_args("fig7", &argv(&["--jobs", "100000"])).unwrap();
        assert_eq!(cli.jobs, BenchCli::default_jobs());
        let cli = BenchCli::from_args("fig7", &argv(&["--jobs", "1"])).unwrap();
        assert_eq!(cli.jobs, 1, "requests at or under the limit pass through");
    }

    #[test]
    fn reference_flag_parses() {
        let cli = BenchCli::from_args("fig7", &argv(&["--reference"])).unwrap();
        assert!(cli.reference);
        assert_eq!(cli.exec_tier(), ExecTier::Reference);
    }

    #[test]
    fn trace_flag_parses_and_wins_tier_selection() {
        let cli = BenchCli::from_args("fig7", &argv(&[])).unwrap();
        assert_eq!(cli.exec_tier(), ExecTier::Fast);
        let cli = BenchCli::from_args("fig7", &argv(&["--trace"])).unwrap();
        assert!(cli.trace);
        assert_eq!(cli.exec_tier(), ExecTier::Trace);
        // Both flags: the more-specialised tier wins deterministically.
        let cli = BenchCli::from_args("fig7", &argv(&["--reference", "--trace"])).unwrap();
        assert_eq!(cli.exec_tier(), ExecTier::Trace);
    }

    #[test]
    fn observability_flags_parse() {
        let cli = BenchCli::from_args(
            "fig7",
            &argv(&[
                "--sample-interval",
                "5000",
                "--trace-out",
                "/tmp/trace.json",
                "--trace-uops",
                "128",
                "--profile-out",
                "/tmp/prof.json",
                "--campaign-trace-out",
                "/tmp/campaign.json",
                "--verify",
            ]),
        )
        .unwrap();
        assert_eq!(cli.sample_interval, 5000);
        assert_eq!(cli.trace_out, Some(PathBuf::from("/tmp/trace.json")));
        assert_eq!(cli.trace_uops, 128);
        assert_eq!(cli.profile_out, Some(PathBuf::from("/tmp/prof.json")));
        assert_eq!(
            cli.campaign_trace_out,
            Some(PathBuf::from("/tmp/campaign.json"))
        );
        assert!(cli.verify);
    }

    #[test]
    fn errors_are_reported() {
        assert!(BenchCli::from_args("fig7", &argv(&["--jobs"])).is_err());
        assert!(BenchCli::from_args("fig7", &argv(&["--jobs", "0"])).is_err());
        assert!(BenchCli::from_args("fig7", &argv(&["--jobs", "x"])).is_err());
        assert!(BenchCli::from_args("fig7", &argv(&["--frobnicate"])).is_err());
        assert!(BenchCli::from_args("fig7", &argv(&["--sample-interval"])).is_err());
        assert!(BenchCli::from_args("fig7", &argv(&["--sample-interval", "x"])).is_err());
        assert!(BenchCli::from_args("fig7", &argv(&["--trace-uops", "0"])).is_err());
        assert!(BenchCli::from_args("fig7", &argv(&["--trace-out"])).is_err());
        assert!(BenchCli::from_args("fig7", &argv(&["--profile-out"])).is_err());
        assert!(BenchCli::from_args("fig7", &argv(&["--campaign-trace-out"])).is_err());
        assert!(BenchCli::from_args("fig7", &argv(&["--ckpt"])).is_err());
        assert!(BenchCli::from_args("fig7", &argv(&["--max-cells", "0"])).is_err());
        assert!(BenchCli::from_args("fig7", &argv(&["--fault-seed", "0xzz"])).is_err());
        assert!(BenchCli::from_args("fig7", &argv(&["--fuzz-seed", "0xzz"])).is_err());
        assert!(BenchCli::from_args("fig7", &argv(&["--round-size", "0"])).is_err());
        assert!(BenchCli::from_args("fig7", &argv(&["--min-programs", "0"])).is_err());
        assert!(BenchCli::from_args("fig7", &argv(&["--emit-regress"])).is_err());
        assert_eq!(
            BenchCli::from_args("fig7", &argv(&["--help"])).unwrap_err(),
            "help"
        );
    }

    #[test]
    fn harness_shares_one_engine_and_profiles_simulate_time() {
        let cli = BenchCli::from_args("harness-test", &argv(&["--test", "--jobs", "1"])).unwrap();
        let mut h = Harness::from_cli(cli);
        let job = SimJob::plain(
            &FigureRow::of(rest_workloads::Workload::Lbm),
            crate::engine::CoreKind::OutOfOrder,
            Scale::Test,
        );
        let first = h.run_all(std::slice::from_ref(&job));
        let again = h.run_all(std::slice::from_ref(&job));
        assert!(first[0].is_ok());
        // The harness engine caches across calls like a bare Engine.
        assert!(std::sync::Arc::ptr_eq(&first[0], &again[0]));
        // Both runs accrued into the one "simulate" phase, and the
        // engine's per-job log recorded the cache hit.
        assert_eq!(h.engine.take_timings().len(), 2);
        assert!(!h.sink().to_json_string().is_empty());
    }

    #[test]
    fn filter_selects_rows_case_insensitively() {
        let cli = BenchCli::from_args("fig7", &argv(&["--filter", "GOBMK"])).unwrap();
        let rows = cli.filter_rows(crate::figure_rows());
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|r| r.name.starts_with("gobmk")));
        let none = BenchCli::from_args("fig7", &argv(&["--filter", "zzz"]))
            .unwrap()
            .filter_rows(crate::figure_rows());
        assert!(none.is_empty());
    }
}
