//! Shared experiment engine: declarative simulation jobs, a
//! deterministic thread-pool runner, and job matrices.
//!
//! Every experiment describes its simulations as a [`MatrixSpec`]
//! (benchmark rows × hardened configurations) or a list of [`SimJob`]s
//! and hands it to an [`Engine`]. The engine:
//!
//! * fans independent `System::run()` calls across `--jobs N` worker
//!   threads (each simulation is single-threaded and independent),
//! * caches results by job identity, so the plain baseline for a
//!   benchmark is simulated once even when several matrices or columns
//!   share it,
//! * converts panicking or failing simulations into structured
//!   [`JobError`]s instead of aborting the whole sweep,
//! * reports per-job progress and wall time on **stderr** only —
//!   results (text tables, JSON) contain no timing, so the same job
//!   matrix produces byte-identical output at any `--jobs` level.
//!
//! Results are assembled strictly in job-submission order; worker
//! scheduling affects only wall-clock time.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rest_cpu::{ExecTier, SimConfig, SimResult, StopReason, System};
use rest_obs::JobTiming;
use rest_runtime::RtConfig;
use rest_workloads::{Scale, Workload, WorkloadParams};

use crate::{stack_for, FigureRow};

/// Which pipeline model a job runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreKind {
    /// The paper's Table II 8-wide out-of-order core.
    OutOfOrder,
    /// The narrow in-order core (Figure 3's measurement platform).
    InOrder,
}

/// One simulation to run: a benchmark row under one configuration.
///
/// The job is pure data; [`SimJob::execute`] performs the simulation.
/// Two jobs that differ only in the display `name` and `label` are the
/// same experiment and share one cached result in the [`Engine`]
/// ([`SimJob::cache_key`]). Every field is plain data with a
/// deterministic `Debug` encoding, which the key is derived from.
#[derive(Debug, Clone)]
pub struct SimJob {
    /// Row display name (`"gobmk-capture"`, `"lbm"`, …).
    pub name: String,
    /// Column display label (`"asan"`, `"rest-secure-full"`, …).
    pub label: String,
    /// Workload kernel.
    pub workload: Workload,
    /// Input seed (gobmk sub-inputs vary the board position).
    pub seed: u64,
    /// Runtime / protection-scheme configuration.
    pub rt: RtConfig,
    /// Pipeline model.
    pub core: CoreKind,
    /// Input-set scale.
    pub scale: Scale,
    /// Ablation: serialise arm/disarm execution (§III-B's rejected
    /// alternative).
    pub serialize_rest_ops: bool,
    /// Dedicated token-cache entries (0 = paper's evaluated design).
    pub token_cache_entries: usize,
    /// Micro-op budget override; `None` keeps the generous default.
    /// (Small values force [`StopReason::UopLimit`] — used by tests to
    /// inject failing jobs.)
    pub max_uops: Option<u64>,
    /// Interval sampler period in committed instructions (0 = off);
    /// the result then carries a [`rest_obs::TimeSeries`].
    pub sample_interval: u64,
    /// Pipeline-trace length in micro-ops (0 = off); the result then
    /// carries a [`rest_cpu::PipelineTrace`].
    pub trace_uops: usize,
    /// Run the static ARM/DISARM verifier over the built program before
    /// simulating, failing fast (kind `"verify"`) on any error-or-worse
    /// finding instead of burning cycles on a bad program.
    pub verify: bool,
    /// Functional execution tier: reference re-decode (`--reference`),
    /// the decoded-uop cache (default), or superblock traces
    /// (`--trace`). Results are identical by construction; CI diffs the
    /// tiers byte-for-byte.
    pub tier: ExecTier,
    /// Attack scenario to run instead of `workload` (fault-injection
    /// campaigns mix clean workload rows with attack rows). When set,
    /// `workload` is an ignored placeholder and the verify gate is
    /// skipped — attacks violate the ARM/DISARM discipline on purpose.
    pub attack: Option<rest_attacks::Attack>,
    /// Hardware fault to inject during the run (`rest-faults`).
    pub fault: Option<rest_faults::FaultSpec>,
    /// Treat **any** guest stop as a successful simulation instead of
    /// mapping non-`exit(0)` stops to [`JobError`]s. Fault campaigns
    /// need the full result (stop reason, output, fault report) for
    /// every cell — a detected violation is data, not a failure.
    pub accept_any_stop: bool,
    /// Guest cycle budget (0 = off): the simulation stops with
    /// [`StopReason::CycleLimit`] once the pipeline clock (or, for
    /// functional runs, the committed-uop count) reaches it. This is
    /// the fault campaign's watchdog: deterministic, so results stay
    /// byte-identical on any host.
    pub max_cycles: u64,
    /// Test knob: the job panics before simulating — exercises the
    /// panic-isolation path.
    pub inject_panic: bool,
    /// Collect the guest hotspot profile (dense per-PC cycle/uop/check
    /// counters plus the per-allocation-site table); the result then
    /// carries a [`rest_cpu::GuestProfile`].
    pub profile_guest: bool,
    /// Run the static check-elision pass (`rest-verify`) over the built
    /// program and hand its map to the simulator: proven-safe accesses
    /// skip check injection and validation, counted in
    /// `CoreStats::elided_checks`. Applied to attack rows too: attacks
    /// with Error+ lint findings get empty maps by construction, and
    /// any residual elisions on clean-linting attacks are pinned by the
    /// differential attack-coverage gate (identical stop and audit).
    pub elide: bool,
    /// Minimized regression program to run instead of `workload`
    /// (assembly text from `tests/regress/`, see `rest_attacks::regress`).
    /// Like `attack`, the workload is an ignored placeholder and the
    /// verify gate is skipped — reproducers trip REST on purpose.
    pub regress: Option<RegressProg>,
}

/// A regression-corpus program: minimized reproducer assembly replayed
/// by defense/elide campaigns alongside the hand-written attacks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegressProg {
    /// Corpus file stem (`"oob-write-agree-detected"`, …).
    pub name: String,
    /// Assembly text (shared: one corpus load serves every scheme).
    pub asm: Arc<String>,
}

impl SimJob {
    /// A job running `row` under `rt` on the out-of-order core.
    pub fn new(row: &FigureRow, label: impl Into<String>, rt: RtConfig, scale: Scale) -> SimJob {
        SimJob {
            name: row.name.to_string(),
            label: label.into(),
            workload: row.workload,
            seed: row.seed,
            rt,
            core: CoreKind::OutOfOrder,
            scale,
            serialize_rest_ops: false,
            token_cache_entries: 0,
            max_uops: None,
            sample_interval: 0,
            trace_uops: 0,
            verify: false,
            tier: ExecTier::Fast,
            attack: None,
            fault: None,
            accept_any_stop: false,
            max_cycles: 0,
            inject_panic: false,
            profile_guest: false,
            elide: false,
            regress: None,
        }
    }

    /// A job replaying regression-corpus program `prog` under `rt`: any
    /// stop is accepted (the stop reason *is* the measurement).
    pub fn for_regress(
        prog: RegressProg,
        label: impl Into<String>,
        rt: RtConfig,
        scale: Scale,
    ) -> SimJob {
        let row = FigureRow {
            name: "regress",
            // Placeholder only: `regress` overrides the workload.
            workload: Workload::Lbm,
            seed: 0,
        };
        let mut job = SimJob {
            accept_any_stop: true,
            ..SimJob::new(&row, label, rt, scale)
        };
        job.name = prog.name.clone();
        job.regress = Some(prog);
        job
    }

    /// A job running attack scenario `attack` under `rt`: any stop is
    /// accepted (the stop reason *is* the measurement).
    pub fn for_attack(
        attack: rest_attacks::Attack,
        label: impl Into<String>,
        rt: RtConfig,
        scale: Scale,
    ) -> SimJob {
        let row = FigureRow {
            name: attack.name(),
            // Placeholder only: `attack` overrides the workload.
            workload: Workload::Lbm,
            seed: 0,
        };
        SimJob {
            attack: Some(attack),
            accept_any_stop: true,
            ..SimJob::new(&row, label, rt, scale)
        }
    }

    /// The unprotected baseline job for `row`.
    pub fn plain(row: &FigureRow, core: CoreKind, scale: Scale) -> SimJob {
        SimJob {
            core,
            ..SimJob::new(row, "plain", RtConfig::plain(), scale)
        }
    }

    /// The job for `row` under matrix column `col`.
    pub fn for_column(row: &FigureRow, col: &ColumnSpec, core: CoreKind, scale: Scale) -> SimJob {
        SimJob {
            core,
            serialize_rest_ops: col.serialize_rest_ops,
            token_cache_entries: col.token_cache_entries,
            ..SimJob::new(row, col.label.clone(), col.rt.clone(), scale)
        }
    }

    /// Identity of the simulation this job performs: the job's `Debug`
    /// encoding with the display-only `name` and `label` blanked, so
    /// every other field — including any added later — takes part.
    /// Regression programs are keyed by their full assembly text.
    pub fn cache_key(&self) -> String {
        format!(
            "{:?}",
            SimJob {
                name: String::new(),
                label: String::new(),
                ..self.clone()
            }
        )
    }

    /// Builds the program (workload, attack or regression case) and
    /// simulates it, mapping panics and abnormal stops to [`JobError`]s.
    pub fn execute(&self) -> Result<SimResult, JobError> {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if self.inject_panic {
                panic!("injected panic (test knob)");
            }
            let program = if let Some(attack) = self.attack {
                attack.build(stack_for(&self.rt))
            } else if let Some(prog) = &self.regress {
                match rest_isa::parse_asm(&prog.asm) {
                    Ok(p) => p,
                    Err(e) => {
                        return Err(JobError {
                            kind: "regress-parse".to_string(),
                            detail: format!("regression case {}: {e}", prog.name),
                        })
                    }
                }
            } else {
                let params = WorkloadParams {
                    scale: self.scale,
                    stack_scheme: stack_for(&self.rt),
                    token_width: self.rt.token_width,
                    seed: self.seed,
                };
                self.workload.build(&params)
            };
            if self.verify && self.attack.is_none() && self.regress.is_none() {
                let lint = rest_verify::verify_program(&program);
                let worst: Vec<_> = lint.at_least(rest_verify::Severity::Error).collect();
                if !worst.is_empty() {
                    let f = worst[0];
                    return Err(JobError {
                        kind: "verify".to_string(),
                        detail: format!(
                            "{} (seed {:#x}): {} finding(s) at error or above; first: \
                             [{}] pc {:#x} {}: {}",
                            self.workload,
                            self.seed,
                            worst.len(),
                            f.severity.name(),
                            f.pc,
                            f.pass,
                            f.message
                        ),
                    });
                }
            }
            // The elision map is computed from the same program object
            // the simulator runs, so the PCs line up by construction.
            // Attack programs with Error+ findings get empty maps;
            // clean-linting attacks may elide provably in-bounds
            // accesses. The attack-coverage gate verifies end to end
            // that detection and audit provenance are unchanged.
            let elision = if self.elide {
                let scheme = if self.rt.scheme == rest_runtime::Scheme::Asan {
                    rest_verify::ElideScheme::Asan
                } else {
                    rest_verify::ElideScheme::Rest
                };
                let report = rest_verify::elide_program(&program, scheme);
                Some(Arc::new(report.map))
            } else {
                None
            };
            let mut cfg = match self.core {
                CoreKind::OutOfOrder => SimConfig::isca2018(self.rt.clone()),
                CoreKind::InOrder => SimConfig::inorder(self.rt.clone()),
            };
            cfg.elision = elision;
            cfg.core.serialize_rest_ops = self.serialize_rest_ops;
            cfg.mem.token_cache_entries = self.token_cache_entries;
            cfg.sample_interval = self.sample_interval;
            cfg.trace_uops = self.trace_uops;
            cfg.tier = self.tier;
            cfg.max_cycles = self.max_cycles;
            cfg.fault = self.fault;
            cfg.profile_guest = self.profile_guest;
            if let Some(budget) = self.max_uops {
                cfg.max_uops = budget;
            }
            Ok(System::new(program, cfg).run())
        }));
        let result = match outcome {
            Err(payload) => {
                let detail = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                return Err(JobError {
                    kind: "panic".to_string(),
                    detail,
                });
            }
            Ok(Err(e)) => return Err(e),
            Ok(Ok(r)) => r,
        };
        if matches!(result.stop, StopReason::Exit(0)) || self.accept_any_stop {
            return Ok(result);
        }
        let stop = &result.stop;
        Err(JobError {
            kind: match stop {
                StopReason::Halted => "halted",
                StopReason::Exit(_) => "nonzero-exit",
                StopReason::Violation(_) => "violation",
                StopReason::UopLimit => "uop-limit",
                StopReason::CycleLimit => "cycle-limit",
                StopReason::Fault(_) => "fault",
            }
            .to_string(),
            detail: format!(
                "{} (seed {:#x}) stopped with {:?} under {}",
                self.workload, self.seed, stop, result.label
            ),
        })
    }
}

/// A simulation that did not complete normally: the guest stopped with
/// anything other than `exit(0)`, or the attempt itself failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// Machine-readable class. Guest stops map to `"violation"`,
    /// `"uop-limit"`, `"cycle-limit"`, `"fault"`, `"halted"`, or
    /// `"nonzero-exit"`; job failures to `"panic"` (simulator
    /// panicked), `"verify"` (static lint gate) or `"regress-parse"`
    /// (unparsable regression case).
    pub kind: String,
    /// Human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}

/// Shared outcome of one job (cached, so cheap to clone).
pub type JobOutcome = Arc<Result<SimResult, JobError>>;

/// What a worker recorded about one freshly executed job.
struct FreshRun {
    wall: Duration,
    queue: Duration,
    worker: usize,
}

/// Locks a mutex, recovering the data from a poisoned lock. A panic on
/// one worker thread (already surfaced as a `"panic"` [`JobError`] by
/// `catch_unwind`) poisons any mutex it held; unwrapping the poison
/// would cascade that one failure into panics on every later lock of
/// the shared cache/timing state, taking the whole sweep down. The
/// guarded data is only ever mutated by single `insert`/`push` calls,
/// so the recovered state is consistent.
fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// The job runner: a fixed-size worker pool plus a result cache keyed
/// by [`SimJob::cache_key`].
///
/// One engine can serve several matrices in sequence; jobs they share
/// (typically plain baselines) are simulated once.
pub struct Engine {
    workers: usize,
    cache: Mutex<HashMap<String, JobOutcome>>,
    timings: Mutex<Vec<JobTiming>>,
    /// Wall time already consumed by earlier `run_all` calls: jobs
    /// from successive submissions continue one campaign timeline.
    epoch: Mutex<Duration>,
}

impl Engine {
    /// An engine running at most `workers` simulations concurrently.
    pub fn new(workers: usize) -> Engine {
        Engine {
            workers: workers.max(1),
            cache: Mutex::new(HashMap::new()),
            timings: Mutex::new(Vec::new()),
            epoch: Mutex::new(Duration::ZERO),
        }
    }

    /// The configured worker-pool size (after the `max(1)` clamp).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The per-job log accumulated so far: one [`JobTiming`] per
    /// submitted job in submission order, cache hits included (with
    /// `cached: true` and zero wall time). Draining resets the log, so
    /// successive experiments on one engine can profile separately.
    pub fn take_timings(&self) -> Vec<JobTiming> {
        std::mem::take(&mut lock_recover(&self.timings))
    }

    /// Runs every job not already cached, in parallel, and returns one
    /// outcome per input job **in input order** (duplicates and cache
    /// hits resolve to the same shared result).
    pub fn run_all(&self, jobs: &[SimJob]) -> Vec<JobOutcome> {
        let keys: Vec<String> = jobs.iter().map(SimJob::cache_key).collect();
        // The first request for each key not cached yet is simulated.
        let fresh: Vec<usize> = {
            let cache = lock_recover(&self.cache);
            let mut seen = HashSet::new();
            (0..jobs.len())
                .filter(|&i| !cache.contains_key(&keys[i]) && seen.insert(&keys[i]))
                .collect()
        };
        let total = fresh.len();
        let base = *lock_recover(&self.epoch);
        let run_started = Instant::now();
        let done = AtomicUsize::new(0);
        let results = self.pool(total, |slot, worker| {
            let job = &jobs[fresh[slot]];
            let job_started = Instant::now();
            let queue = job_started.duration_since(run_started);
            let result = job.execute();
            let wall = job_started.elapsed();
            let secs = wall.as_secs_f64();
            let n = done.fetch_add(1, Ordering::Relaxed) + 1;
            match &result {
                Ok(r) => eprintln!(
                    "[{n}/{total}] {} {}: {} cycles, {secs:.2}s",
                    job.name,
                    job.label,
                    r.cycles()
                ),
                Err(e) => eprintln!(
                    "[{n}/{total}] {} {}: FAILED ({e}), {secs:.2}s",
                    job.name, job.label
                ),
            }
            (
                result,
                FreshRun {
                    wall,
                    queue,
                    worker,
                },
            )
        });
        if total > 0 {
            eprintln!(
                "# {total} jobs on {} workers in {:.2}s",
                self.workers.min(total),
                run_started.elapsed().as_secs_f64()
            );
        }
        let mut cache = lock_recover(&self.cache);
        let mut runs: Vec<Option<FreshRun>> = (0..jobs.len()).map(|_| None).collect();
        for (&i, (result, run)) in fresh.iter().zip(results) {
            cache.insert(keys[i].clone(), Arc::new(result));
            runs[i] = Some(run);
        }
        // Log every job in submission order: the simulated request for a
        // key gets the measured record; duplicates and pre-cached keys
        // log as cache hits.
        let outcomes: Vec<JobOutcome> = keys.iter().map(|k| cache[k].clone()).collect();
        let mut timings = lock_recover(&self.timings);
        for ((job, outcome), run) in jobs.iter().zip(&outcomes).zip(runs) {
            let cached = run.is_none();
            let run = run.unwrap_or(FreshRun {
                wall: Duration::ZERO,
                queue: Duration::ZERO,
                worker: 0,
            });
            timings.push(JobTiming {
                label: format!("{} {}", job.name, job.label),
                worker: run.worker,
                start: base + run.queue,
                queue: run.queue,
                wall: run.wall,
                cached,
                outcome: match outcome.as_ref() {
                    Ok(_) => "ok".to_string(),
                    Err(e) => e.kind.clone(),
                },
            });
        }
        *lock_recover(&self.epoch) = base + run_started.elapsed();
        outcomes
    }

    /// Runs `count` independent tasks on the worker pool and returns
    /// their results **in index order** — worker scheduling affects
    /// wall-clock only, so output built from the results is
    /// byte-identical at any `--jobs` level. Used by campaigns whose
    /// unit of work is not a [`SimJob`] (the fuzz campaign's tri-oracle
    /// cells); tasks are expected to catch their own panics.
    pub fn run_tasks<T: Send, F: Fn(usize) -> T + Sync>(&self, count: usize, task: F) -> Vec<T> {
        if self.workers.min(count) <= 1 {
            return (0..count).map(task).collect();
        }
        self.pool(count, |i, _| task(i))
    }

    /// Runs `task(i, worker)` for every `i < count` on up to `workers`
    /// scoped threads and returns the results in index order.
    fn pool<T: Send, F: Fn(usize, usize) -> T + Sync>(&self, count: usize, task: F) -> Vec<T> {
        let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for worker in 0..self.workers.min(count) {
                let (next, slots, task) = (&next, &slots, &task);
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    let result = task(i, worker);
                    *lock_recover(&slots[i]) = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(|poison| poison.into_inner())
                    .expect("every task slot filled")
            })
            .collect()
    }

    /// Runs a full experiment matrix. Plain baselines (when
    /// `spec.include_plain`) and hardened cells all go through the same
    /// worker pool and cache.
    pub fn run_matrix(&self, spec: &MatrixSpec) -> MatrixResults {
        let mut jobs = Vec::new();
        for row in &spec.rows {
            if spec.include_plain {
                jobs.push(SimJob::plain(row, spec.core, spec.scale));
            }
            for col in &spec.columns {
                jobs.push(SimJob::for_column(row, col, spec.core, spec.scale));
            }
        }
        for job in &mut jobs {
            job.sample_interval = spec.sample_interval;
            job.verify = spec.verify;
            job.tier = spec.tier;
            job.profile_guest = spec.profile_guest;
        }
        // Tracing is bounded to the matrix's first job: one Perfetto
        // document per experiment is plenty, and tracing every job
        // would multiply memory use for no added insight.
        if let Some(first) = jobs.first_mut() {
            first.trace_uops = spec.trace_uops;
        }
        let outcomes = self.run_all(&jobs);
        let stride = spec.columns.len() + usize::from(spec.include_plain);
        let rows = spec
            .rows
            .iter()
            .zip(outcomes.chunks(stride.max(1)))
            .map(|(row, chunk)| {
                let (plain, cells) = if spec.include_plain {
                    (Some(chunk[0].clone()), chunk[1..].to_vec())
                } else {
                    (None, chunk.to_vec())
                };
                RowResults {
                    row: *row,
                    plain,
                    cells,
                }
            })
            .collect();
        MatrixResults {
            columns: spec.columns.clone(),
            rows,
        }
    }
}

/// One hardened column of an experiment matrix.
#[derive(Debug, Clone)]
pub struct ColumnSpec {
    /// Display label (also the JSON cell label).
    pub label: String,
    /// Runtime configuration.
    pub rt: RtConfig,
    /// Ablation: serialised arm/disarm execution.
    pub serialize_rest_ops: bool,
    /// Dedicated token-cache entries (0 = disabled).
    pub token_cache_entries: usize,
}

impl ColumnSpec {
    /// A plain column: `rt` on the stock machine.
    pub fn new(label: impl Into<String>, rt: RtConfig) -> ColumnSpec {
        ColumnSpec {
            label: label.into(),
            rt,
            serialize_rest_ops: false,
            token_cache_entries: 0,
        }
    }
}

/// A declarative experiment: rows × columns at one core/scale.
#[derive(Debug, Clone)]
pub struct MatrixSpec {
    /// Benchmark rows.
    pub rows: Vec<FigureRow>,
    /// Hardened configurations.
    pub columns: Vec<ColumnSpec>,
    /// Pipeline model for every job in the matrix.
    pub core: CoreKind,
    /// Input-set scale.
    pub scale: Scale,
    /// Also simulate the plain baseline per row (needed for overhead
    /// columns and mean summaries).
    pub include_plain: bool,
    /// Interval sampler period applied to **every** job of the matrix
    /// (0 = off). This field and the next three carry the command line;
    /// [`crate::cli::Harness::run_matrix`] sets them on every spec.
    pub sample_interval: u64,
    /// Pipeline-trace length applied to the matrix's **first** job
    /// only (0 = off).
    pub trace_uops: usize,
    /// Run the static verifier over every program before simulating
    /// (`--verify`): jobs with error-or-worse lint findings fail fast.
    pub verify: bool,
    /// Execution tier applied to every job (`--reference` / `--trace`);
    /// output must stay byte-identical across tiers.
    pub tier: ExecTier,
    /// Collect the guest hotspot profile on **every** job of the
    /// matrix: results then carry per-PC counters and the
    /// per-allocation-site table (used by the defense campaign's
    /// check-attribution section).
    pub profile_guest: bool,
}

impl MatrixSpec {
    /// A standard overhead matrix: out-of-order core, plain baselines
    /// included.
    pub fn new(rows: Vec<FigureRow>, columns: Vec<ColumnSpec>, scale: Scale) -> MatrixSpec {
        MatrixSpec {
            rows,
            columns,
            core: CoreKind::OutOfOrder,
            scale,
            include_plain: true,
            sample_interval: 0,
            trace_uops: 0,
            verify: false,
            tier: ExecTier::Fast,
            profile_guest: false,
        }
    }
}

/// Outcomes for one matrix row.
#[derive(Clone)]
pub struct RowResults {
    /// The benchmark row.
    pub row: FigureRow,
    /// Plain-baseline outcome (present iff the spec included it).
    pub plain: Option<JobOutcome>,
    /// One outcome per matrix column.
    pub cells: Vec<JobOutcome>,
}

impl RowResults {
    /// The plain baseline, if it ran and succeeded.
    pub fn plain_result(&self) -> Option<&SimResult> {
        self.plain.as_deref().and_then(|r| r.as_ref().ok())
    }

    /// Column `col`'s result, if it succeeded.
    pub fn cell(&self, col: usize) -> Option<&SimResult> {
        self.cells.get(col).and_then(|r| r.as_ref().as_ref().ok())
    }

    /// Column `col`'s overhead over this row's plain baseline, in
    /// percent; NaN when either run failed.
    pub fn overhead_pct(&self, col: usize) -> f64 {
        match (self.plain_result(), self.cell(col)) {
            (Some(plain), Some(cell)) => cell.overhead_pct_vs(plain),
            _ => f64::NAN,
        }
    }
}

/// All outcomes of one matrix, in row-major submission order.
pub struct MatrixResults {
    /// The matrix's columns (labels + configurations).
    pub columns: Vec<ColumnSpec>,
    /// Per-row outcomes, in spec order.
    pub rows: Vec<RowResults>,
}

impl MatrixResults {
    /// The first successful result carrying a pipeline trace (the
    /// matrix's first job, when the spec enabled tracing).
    pub fn first_trace(&self) -> Option<&rest_cpu::PipelineTrace> {
        self.rows
            .iter()
            .flat_map(|r| r.plain.iter().chain(r.cells.iter()))
            .filter_map(|o| o.as_ref().as_ref().ok())
            .find_map(|r| r.trace.as_ref())
    }

    /// Per-column `(WtdAriMean, GeoMean)` overhead summaries over the
    /// rows whose plain and hardened runs both succeeded.
    pub fn summary(&self) -> Vec<(f64, f64)> {
        (0..self.columns.len())
            .map(|col| {
                let (mut plain, mut hardened) = (Vec::new(), Vec::new());
                for row in &self.rows {
                    if let (Some(p), Some(h)) = (row.plain_result(), row.cell(col)) {
                        plain.push(p.cycles());
                        hardened.push(h.cycles());
                    }
                }
                (
                    crate::wtd_ari_mean_overhead(&plain, &hardened),
                    crate::geo_mean_overhead(&plain, &hardened),
                )
            })
            .collect()
    }

    /// The standard overhead table: benchmark rows, one column per
    /// configuration, WtdAriMean/GeoMean summary rows.
    pub fn text_table(&self) -> String {
        let mut t = format!("{:<12}", "benchmark");
        for col in &self.columns {
            t += &format!("{:>18}", col.label);
        }
        t.push('\n');
        for row in &self.rows {
            let cells: Vec<f64> = (0..self.columns.len())
                .map(|c| row.overhead_pct(c))
                .collect();
            t += &crate::fmt_row(row.row.name, &cells);
            t.push('\n');
        }
        let summary = self.summary();
        let wtd: Vec<f64> = summary.iter().map(|&(w, _)| w).collect();
        let geo: Vec<f64> = summary.iter().map(|&(_, g)| g).collect();
        t += &format!("{}\n", crate::fmt_row("WtdAriMean", &wtd));
        t += &format!("{}\n", crate::fmt_row("GeoMean", &geo));
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lbm_row() -> FigureRow {
        FigureRow {
            name: "lbm",
            workload: Workload::Lbm,
            seed: 0xC0FFEE,
        }
    }

    #[test]
    fn cache_key_covers_every_field_but_the_display_strings() {
        let base = SimJob::new(&lbm_row(), "a", RtConfig::plain(), Scale::Test);
        fn regress(asm: &str) -> Option<RegressProg> {
            Some(RegressProg {
                name: "case".to_string(),
                asm: Arc::new(asm.to_string()),
            })
        }
        type Edit = fn(&mut SimJob);
        let edits: Vec<(&str, Edit)> = vec![
            ("workload", |j| j.workload = Workload::Sjeng),
            ("seed", |j| j.seed += 1),
            ("rt", |j| j.rt = RtConfig::asan()),
            ("core", |j| j.core = CoreKind::InOrder),
            ("scale", |j| j.scale = Scale::Ref),
            ("serialize_rest_ops", |j| j.serialize_rest_ops = true),
            ("token_cache_entries", |j| j.token_cache_entries = 4),
            ("max_uops", |j| j.max_uops = Some(100)),
            ("sample_interval", |j| j.sample_interval = 1000),
            ("trace_uops", |j| j.trace_uops = 64),
            ("verify", |j| j.verify = true),
            ("tier reference", |j| j.tier = ExecTier::Reference),
            ("tier trace", |j| j.tier = ExecTier::Trace),
            ("attack", |j| {
                j.attack = Some(rest_attacks::Attack::Heartbleed)
            }),
            ("fault", |j| {
                j.fault = Some(rest_faults::FaultKind::MetaBitClear.default_spec(7))
            }),
            ("accept_any_stop", |j| j.accept_any_stop = true),
            ("max_cycles", |j| j.max_cycles = 1000),
            ("inject_panic", |j| j.inject_panic = true),
            ("profile_guest", |j| j.profile_guest = true),
            ("elide", |j| j.elide = true),
            ("regress", |j| {
                j.regress = regress("main:\n    li a0, 0\n    ecall 5\n")
            }),
            // Two corpus files with different assembly must not alias.
            ("regress asm", |j| {
                j.regress = regress("main:\n    li a0, 1\n    ecall 5\n")
            }),
        ];
        let mut keys = HashMap::new();
        keys.insert(base.cache_key(), "base");
        for (field, edit) in &edits {
            let mut job = base.clone();
            edit(&mut job);
            if let Some(clash) = keys.insert(job.cache_key(), *field) {
                panic!("changing {field} leaves the key of {clash}");
            }
        }
        // The display strings are not part of the simulation.
        let display: [Edit; 2] = [
            |j| j.name = "other".to_string(),
            |j| j.label = "b".to_string(),
        ];
        for edit in display {
            let mut job = base.clone();
            edit(&mut job);
            assert_eq!(job.cache_key(), base.cache_key());
        }
    }

    #[test]
    fn reference_and_fast_paths_simulate_identically() {
        let row = lbm_row();
        let fast = SimJob::plain(&row, CoreKind::OutOfOrder, Scale::Test)
            .execute()
            .unwrap();
        let reference = SimJob {
            tier: ExecTier::Reference,
            ..SimJob::plain(&row, CoreKind::OutOfOrder, Scale::Test)
        }
        .execute()
        .unwrap();
        assert_eq!(fast.stats_map(), reference.stats_map());
        assert_eq!(fast.stop, reference.stop);
        assert_eq!(fast.output, reference.output);
        let trace = SimJob {
            tier: ExecTier::Trace,
            ..SimJob::plain(&row, CoreKind::OutOfOrder, Scale::Test)
        }
        .execute()
        .unwrap();
        assert_eq!(fast.stats_map(), trace.stats_map());
        assert_eq!(fast.stop, trace.stop);
        assert_eq!(fast.output, trace.output);
    }

    #[test]
    fn verify_gate_passes_clean_programs() {
        let row = lbm_row();
        let job = SimJob {
            verify: true,
            ..SimJob::plain(&row, CoreKind::OutOfOrder, Scale::Test)
        };
        // lbm lints clean, so the gated run simulates normally and
        // matches the ungated result.
        let gated = job.execute().expect("clean program must pass the gate");
        let plain = SimJob::plain(&row, CoreKind::OutOfOrder, Scale::Test)
            .execute()
            .unwrap();
        assert_eq!(gated.core.insts, plain.core.insts);
        assert_eq!(gated.core.cycles, plain.core.cycles);
    }

    #[test]
    fn engine_caches_identical_jobs() {
        let row = lbm_row();
        let engine = Engine::new(2);
        let job = SimJob::plain(&row, CoreKind::OutOfOrder, Scale::Test);
        let first = engine.run_all(std::slice::from_ref(&job));
        let again = engine.run_all(&[job.clone(), job]);
        assert!(first[0].is_ok());
        // Same allocation: the cached Arc is reused, not re-simulated.
        assert!(Arc::ptr_eq(&first[0], &again[0]));
        assert!(Arc::ptr_eq(&again[0], &again[1]));
    }

    #[test]
    fn uop_budget_becomes_job_error() {
        let row = lbm_row();
        let job = SimJob {
            max_uops: Some(50),
            ..SimJob::plain(&row, CoreKind::OutOfOrder, Scale::Test)
        };
        let err = job.execute().unwrap_err();
        assert_eq!(err.kind, "uop-limit");
        assert!(err.detail.contains("lbm"));
    }

    #[test]
    fn injected_panic_becomes_structured_job_error() {
        let row = lbm_row();
        let job = SimJob {
            inject_panic: true,
            ..SimJob::plain(&row, CoreKind::OutOfOrder, Scale::Test)
        };
        let err = job.execute().unwrap_err();
        assert_eq!(err.kind, "panic");
        assert!(err.detail.contains("injected panic"));
    }

    #[test]
    fn panicking_job_does_not_poison_the_engine() {
        // A panicking cell must neither kill its siblings nor poison
        // the engine's shared state for later submissions.
        let row = lbm_row();
        let engine = Engine::new(2);
        let panicking = SimJob {
            inject_panic: true,
            ..SimJob::plain(&row, CoreKind::OutOfOrder, Scale::Test)
        };
        let healthy = SimJob::plain(&row, CoreKind::OutOfOrder, Scale::Test);
        let outcomes = engine.run_all(&[panicking, healthy.clone()]);
        assert_eq!(outcomes[0].as_ref().as_ref().unwrap_err().kind, "panic");
        assert!(outcomes[1].is_ok());
        // The engine stays usable afterwards.
        let again = engine.run_all(std::slice::from_ref(&healthy));
        assert!(again[0].is_ok());
        assert_eq!(engine.take_timings().len(), 3);
    }

    #[test]
    fn timings_record_workers_outcomes_and_cache_hits() {
        let row = lbm_row();
        let engine = Engine::new(2);
        let job = SimJob::plain(&row, CoreKind::OutOfOrder, Scale::Test);
        let outcomes = engine.run_all(&[job.clone(), job.clone()]);
        assert!(outcomes[0].is_ok());
        let timings = engine.take_timings();
        assert_eq!(timings.len(), 2);
        assert_eq!(timings[0].label, "lbm plain");
        assert!(!timings[0].cached);
        assert_eq!(timings[0].outcome, "ok");
        assert!(timings[0].wall > Duration::ZERO);
        // The duplicate resolves from the cache.
        assert!(timings[1].cached);
        assert_eq!((timings[1].worker, timings[1].wall), (0, Duration::ZERO));
        // A later submission records its error kind and continues the
        // campaign timeline.
        let panicking = SimJob {
            inject_panic: true,
            ..job
        };
        engine.run_all(std::slice::from_ref(&panicking));
        let later = engine.take_timings();
        assert_eq!(later.len(), 1);
        assert_eq!(later[0].outcome, "panic");
        assert!(later[0].start >= timings[0].wall, "epoch must accumulate");
        // Draining resets the log.
        assert!(engine.take_timings().is_empty());
    }

    #[test]
    fn profile_guest_participates_in_cache_keys_and_results() {
        let row = lbm_row();
        let plain = SimJob::plain(&row, CoreKind::OutOfOrder, Scale::Test);
        let profiled = SimJob {
            profile_guest: true,
            ..plain.clone()
        };
        assert_ne!(plain.cache_key(), profiled.cache_key());
        let result = profiled.execute().unwrap();
        let profile = result.profile.expect("profiled job carries the tables");
        assert_eq!(profile.cycles.total(), result.core.cycles);
        assert!(plain.execute().unwrap().profile.is_none());
    }

    #[test]
    fn regress_jobs_run_parsed_assembly() {
        let prog = RegressProg {
            name: "exit-only".to_string(),
            asm: Arc::new("main:\n    li a0, 0\n    ecall 5\n".to_string()),
        };
        let job = SimJob::for_regress(prog, "plain", RtConfig::plain(), Scale::Test);
        let result = job.execute().expect("minimal program runs");
        assert!(matches!(result.stop, StopReason::Exit(0)));
        let broken = SimJob::for_regress(
            RegressProg {
                name: "broken".to_string(),
                asm: Arc::new("main:\n    not-an-instruction\n".to_string()),
            },
            "plain",
            RtConfig::plain(),
            Scale::Test,
        );
        assert_eq!(broken.execute().unwrap_err().kind, "regress-parse");
    }

    #[test]
    fn run_tasks_returns_results_in_index_order() {
        for workers in [1, 2, 8] {
            let engine = Engine::new(workers);
            let results = engine.run_tasks(37, |i| i * i);
            assert_eq!(results, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(Engine::new(4).run_tasks(0, |i| i).is_empty());
    }

    #[test]
    fn attack_jobs_accept_violation_stops_as_results() {
        use rest_core::Mode;
        let job = SimJob::for_attack(
            rest_attacks::Attack::HeapOverflowWrite,
            "rest-secure-full",
            RtConfig::rest(Mode::Secure, true),
            Scale::Test,
        );
        let result = job.execute().expect("any stop is accepted");
        assert!(
            matches!(result.stop, StopReason::Violation(_)),
            "{:?}",
            result.stop
        );
    }
}
