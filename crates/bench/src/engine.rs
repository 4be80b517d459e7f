//! Shared experiment engine: declarative simulation jobs, a
//! deterministic thread-pool runner, and job matrices.
//!
//! Every experiment describes its simulations as a [`MatrixSpec`]
//! (benchmark rows × hardened configurations) or a list of [`SimJob`]s
//! and hands it to an [`Engine`]. The engine:
//!
//! * fans independent `System::run()` calls across `--jobs N` worker
//!   threads (each simulation is single-threaded and independent),
//! * caches results by the simulation a job performs — its built
//!   program and machine configuration — so the plain baseline for a
//!   benchmark is simulated once even when several matrices or columns
//!   share it, and a Full column whose program equals its Heap twin's
//!   reuses the twin's run,
//! * converts panicking or failing simulations into structured
//!   [`JobError`]s instead of aborting the whole sweep,
//! * reports per-job progress and wall time on **stderr** only —
//!   results (text tables, JSON) contain no timing, so the same job
//!   matrix produces byte-identical output at any `--jobs` level.
//!
//! Results are assembled strictly in job-submission order; worker
//! scheduling affects only wall-clock time.

use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use rest_attacks::regress::RegressCase;
use rest_cpu::{SimConfig, SimResult, StopReason, System};
use rest_isa::Program;
use rest_obs::{JobTiming, Json};
use rest_runtime::RtConfig;
use rest_workloads::{Scale, WorkloadParams};

use crate::table::{fixed, Table};
use crate::FigureRow;

/// The guest program a job runs.
#[derive(Debug, Clone)]
pub enum Guest {
    /// A benchmark row: its workload kernel built at the job's scale.
    Workload(FigureRow),
    /// An attack scenario (fault-injection and defense campaigns mix
    /// clean workload rows with attack rows).
    Attack(rest_attacks::Attack),
    /// A minimized regression-corpus program (shared: one corpus load
    /// serves every scheme).
    Regress(Arc<RegressCase>),
}

impl Guest {
    /// Display name (`"gobmk-capture"`, `"heartbleed-oob-read"`, …).
    pub fn name(&self) -> &str {
        match self {
            Guest::Workload(row) => row.name,
            Guest::Attack(attack) => attack.name(),
            Guest::Regress(case) => &case.name,
        }
    }
}

impl std::fmt::Display for Guest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Guest::Workload(row) => write!(f, "{} (seed {:#x})", row.workload, row.seed),
            Guest::Attack(attack) => write!(f, "attack {}", attack.name()),
            Guest::Regress(case) => write!(f, "regression case {}", case.name),
        }
    }
}

/// One simulation to run: a guest program on one [`SimConfig`].
///
/// The job is pure data; [`SimJob::build`] builds its program and
/// [`SimJob::execute`] performs the simulation with
/// `System::new(program, cfg)`. The other fields are the rules the
/// simulator does not own: how the program is built (`scale`), what is
/// checked or attached before the run (`verify`, `elide`,
/// `inject_panic`) and which stops count as success
/// (`accept_any_stop`). Two jobs that build the same program and differ
/// otherwise only in display strings (and `cfg.rt.stack_protection`, which
/// only picks how the program is built) are the same simulation and
/// share one cached run in the [`Engine`] ([`SimJob::cache_key`]).
/// Every field is plain data with a deterministic `Debug` encoding,
/// which the key is derived from.
#[derive(Debug, Clone)]
pub struct SimJob {
    /// The guest program.
    pub guest: Guest,
    /// Column display label (`"asan"`, `"rest-secure-full"`, …).
    pub label: String,
    /// The machine and run configuration handed to `System::new`.
    pub cfg: SimConfig,
    /// Input-set scale of a workload guest.
    pub scale: Scale,
    /// Run the static ARM/DISARM verifier over a workload program before
    /// simulating, failing fast (kind `"verify"`) on any error-or-worse
    /// finding instead of burning cycles on a bad program. Attack and
    /// regression guests skip the gate: they violate the discipline on
    /// purpose.
    pub verify: bool,
    /// Run the static check-elision pass (`rest-verify`) over the built
    /// program and hand its map to the simulator: proven-safe accesses
    /// skip check injection and validation, counted in
    /// `CoreStats::elided_checks`. Applied to attack rows too: attacks
    /// with Error+ lint findings get empty maps by construction, and
    /// any residual elisions on clean-linting attacks are pinned by the
    /// differential attack-coverage gate (identical stop and audit).
    pub elide: bool,
    /// Treat **any** guest stop as a successful simulation instead of
    /// mapping non-`exit(0)` stops to [`JobError`]s. Attack, regression
    /// and fault campaigns need the full result (stop reason, output,
    /// fault report) for every cell — a detected violation is data, not
    /// a failure.
    pub accept_any_stop: bool,
    /// Test knob: the job panics before simulating — exercises the
    /// panic-isolation path.
    pub inject_panic: bool,
}

impl SimJob {
    /// A job running `guest` on `cfg` with every job-level rule off.
    pub fn on(guest: Guest, label: impl Into<String>, cfg: SimConfig, scale: Scale) -> SimJob {
        SimJob {
            guest,
            label: label.into(),
            cfg,
            scale,
            verify: false,
            elide: false,
            accept_any_stop: false,
            inject_panic: false,
        }
    }

    /// A job running `row` under `rt` on the Table II machine.
    pub fn new(row: &FigureRow, label: impl Into<String>, rt: RtConfig, scale: Scale) -> SimJob {
        SimJob::on(Guest::Workload(*row), label, SimConfig::isca2018(rt), scale)
    }

    /// The unprotected baseline job for `row` on the Table II machine.
    pub fn plain(row: &FigureRow, scale: Scale) -> SimJob {
        SimJob::new(row, "plain", RtConfig::plain(), scale)
    }

    /// A job replaying regression case `case` under `rt`: any stop is
    /// accepted (the stop reason *is* the measurement).
    pub fn for_regress(
        case: Arc<RegressCase>,
        label: impl Into<String>,
        rt: RtConfig,
        scale: Scale,
    ) -> SimJob {
        SimJob {
            accept_any_stop: true,
            ..SimJob::on(Guest::Regress(case), label, SimConfig::isca2018(rt), scale)
        }
    }

    /// A job running attack scenario `attack` under `rt` with the
    /// scenario's own runtime tweaks ([`rest_attacks::Attack::rt_for`],
    /// as `Attack::run` applies them): any stop is accepted (the stop
    /// reason *is* the measurement).
    pub fn for_attack(
        attack: rest_attacks::Attack,
        label: impl Into<String>,
        rt: RtConfig,
        scale: Scale,
    ) -> SimJob {
        let cfg = SimConfig::isca2018(attack.rt_for(rt));
        SimJob {
            accept_any_stop: true,
            ..SimJob::on(Guest::Attack(attack), label, cfg, scale)
        }
    }

    /// Identity of the simulation this job performs with `program` (its
    /// [`SimJob::build`]): a digest of the job's `Debug` encoding with
    /// the display strings (`label`, a workload row's name) and
    /// `cfg.rt.stack_protection` blanked, so every other field — including
    /// any added later — takes part, and of the program's canonical
    /// encoding. Stack protection only chooses how the program is built
    /// (and the label), so with the program in the key it moves the key
    /// exactly when it moves the program.
    pub fn cache_key(&self, program: &Program) -> JobKey {
        let mut recipe = SimJob {
            label: String::new(),
            ..self.clone()
        };
        recipe.cfg.rt.stack_protection = false;
        if let Guest::Workload(row) = &mut recipe.guest {
            row.name = "";
        }
        let recipe = format!("{recipe:?}");
        // Two SipHash digests, salted apart: 128 bits.
        let digest = |salt: u8| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            (salt, &recipe, program).hash(&mut h);
            h.finish()
        };
        JobKey([digest(0), digest(1)])
    }

    /// Builds the program this job simulates (workload, attack or
    /// regression case), mapping a panic or an unparsable regression
    /// case to a [`JobError`].
    pub fn build(&self) -> Result<Program, JobError> {
        catch_panic(|| {
            if self.inject_panic {
                panic!("injected panic (test knob)");
            }
            let rt = &self.cfg.rt;
            match &self.guest {
                Guest::Workload(row) => Ok(row.workload.build(&WorkloadParams {
                    scale: self.scale,
                    stack_scheme: rt.stack_scheme(),
                    token_width: rt.token_width,
                    seed: row.seed,
                })),
                Guest::Attack(attack) => Ok(attack.build(rt.stack_scheme())),
                Guest::Regress(case) => rest_isa::parse_asm(&case.asm).map_err(|e| JobError {
                    kind: "regress-parse".to_string(),
                    detail: format!("regression case {}: {e}", case.name),
                }),
            }
        })
    }

    /// The static check-elision report for this job's program: its map
    /// is what [`SimJob::elide`] attaches to the run (ASan's checks for
    /// an ASan job, REST's otherwise).
    pub fn elision(&self) -> Result<rest_verify::ElisionReport, JobError> {
        Ok(self.elide(&self.build()?))
    }

    /// The elision report for `program` (this job's build) under the
    /// job's scheme.
    fn elide(&self, program: &Program) -> rest_verify::ElisionReport {
        let scheme = if self.cfg.rt.scheme == rest_runtime::Scheme::Asan {
            rest_verify::ElideScheme::Asan
        } else {
            rest_verify::ElideScheme::Rest
        };
        rest_verify::elide_program(program, scheme)
    }

    /// Builds the program and simulates it, mapping panics and abnormal
    /// stops to [`JobError`]s.
    pub fn execute(&self) -> Result<SimResult, JobError> {
        let result = self.simulate(self.build()?)?;
        if self.accepts(&result.stop) {
            Ok(result)
        } else {
            Err(self.stop_error(&result))
        }
    }

    /// Simulates `program` (this job's [`SimJob::build`]) to whatever
    /// stop it reaches; panics and the verify gate become [`JobError`]s.
    fn simulate(&self, program: Program) -> Result<SimResult, JobError> {
        catch_panic(|| {
            if self.verify && matches!(self.guest, Guest::Workload(_)) {
                let lint = rest_verify::verify_program(&program);
                let worst: Vec<_> = lint.at_least(rest_verify::Severity::Error).collect();
                if !worst.is_empty() {
                    let f = worst[0];
                    return Err(JobError {
                        kind: "verify".to_string(),
                        detail: format!(
                            "{}: {} finding(s) at error or above; first: [{}] pc {:#x} {}: {}",
                            self.guest,
                            worst.len(),
                            f.severity.name(),
                            f.pc,
                            f.pass,
                            f.message
                        ),
                    });
                }
            }
            let mut cfg = self.cfg.clone();
            // The elision map is computed from the same program object
            // the simulator runs, so the PCs line up by construction.
            // Attack programs with Error+ findings get empty maps;
            // clean-linting attacks may elide provably in-bounds
            // accesses. The attack-coverage gate verifies end to end
            // that detection and audit provenance are unchanged.
            if self.elide {
                cfg.elision = Some(Arc::new(self.elide(&program).map));
            }
            Ok(System::new(program, cfg).run())
        })
    }

    /// Whether a run stopping with `stop` is a successful simulation.
    fn accepts(&self, stop: &StopReason) -> bool {
        matches!(stop, StopReason::Exit(0)) || self.accept_any_stop
    }

    /// The error for a run of this job that stopped as `result` did.
    fn stop_error(&self, result: &SimResult) -> JobError {
        let stop = &result.stop;
        JobError {
            kind: match stop {
                StopReason::Exit(_) => "nonzero-exit".to_string(),
                StopReason::Fault(_) => "fault".to_string(),
                _ => stop.name(),
            },
            detail: format!(
                "{} stopped with {:?} under {}",
                self.guest,
                stop,
                self.cfg.rt.label()
            ),
        }
    }

    /// This job's outcome from `run`, the [`SimJob::simulate`] result of
    /// a job with the same key: an accepted run is shared, under this
    /// job's label; any other stop becomes this job's own error.
    fn outcome_of(&self, run: &JobOutcome) -> JobOutcome {
        let label = self.cfg.rt.label();
        match run.as_ref() {
            Ok(r) if !self.accepts(&r.stop) => Arc::new(Err(self.stop_error(r))),
            Ok(r) if r.label != label => Arc::new(Ok(SimResult { label, ..r.clone() })),
            _ => run.clone(),
        }
    }
}

/// Identity of the simulation a [`SimJob`] performs
/// ([`SimJob::cache_key`]): a 128-bit digest of its configuration and
/// program, 16 bytes however large either is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobKey([u64; 2]);

/// Runs `f`, mapping a panic to a `"panic"` [`JobError`] carrying its
/// message.
fn catch_panic<T>(f: impl FnOnce() -> Result<T, JobError>) -> Result<T, JobError> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let detail = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Err(JobError {
            kind: "panic".to_string(),
            detail,
        })
    })
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

impl JobError {
    /// The `{"kind", "detail"}` object every document records for a
    /// failed job.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kind", Json::from(self.kind.as_str())),
            ("detail", Json::from(self.detail.as_str())),
        ])
    }
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

/// The job runner: a fixed-size worker pool plus a cache of runs keyed
/// by [`SimJob::cache_key`].
///
/// One engine can serve several matrices in sequence; simulations they
/// share (typically plain baselines) run once.
pub struct Engine {
    workers: usize,
    /// Each key's [`SimJob::simulate`] result; a job's outcome is
    /// derived from it by [`SimJob::outcome_of`].
    cache: Mutex<HashMap<JobKey, JobOutcome>>,
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

    /// Builds every job's program and simulates each one not already
    /// cached, in parallel, and returns one outcome per input job **in
    /// input order**. Jobs with equal keys — duplicates, cache hits, a
    /// Full column whose program equals its Heap twin's — share one run;
    /// each outcome still carries its own job's label.
    pub fn run_all(&self, jobs: &[SimJob]) -> Vec<JobOutcome> {
        let total = jobs.len();
        let base = *lock_recover(&self.epoch);
        let run_started = Instant::now();
        // Jobs claim their keys strictly in submission order (job `i`
        // waits until jobs `0..i` have claimed), so the first request
        // for each key not cached yet is the one simulated at any worker
        // count. Programs build in microseconds, so the wait is short,
        // and no more programs are alive than there are workers.
        let claims = Mutex::new((0, HashSet::new()));
        let turn = Condvar::new();
        let done = AtomicUsize::new(0);
        let slots = self.pool(total, |i, worker| {
            let job = &jobs[i];
            let job_started = Instant::now();
            let queue = job_started.duration_since(run_started);
            let built = catch_panic(|| job.build().map(|p| (job.cache_key(&p), p)));
            let key = built.as_ref().ok().map(|&(key, _)| key);
            let simulate = {
                let mut claims = lock_recover(&claims);
                while claims.0 != i {
                    claims = turn
                        .wait(claims)
                        .unwrap_or_else(|poison| poison.into_inner());
                }
                claims.0 += 1;
                turn.notify_all();
                // A failed build is its job's own outcome, never shared.
                key.is_none_or(|key| {
                    !lock_recover(&self.cache).contains_key(&key) && claims.1.insert(key)
                })
            };
            let n = done.fetch_add(1, Ordering::Relaxed) + 1;
            if !simulate {
                return (key, None);
            }
            let run = built.and_then(|(_, program)| job.simulate(program));
            let wall = job_started.elapsed();
            let secs = wall.as_secs_f64();
            match &run {
                Ok(r) if job.accepts(&r.stop) => eprintln!(
                    "[{n}/{total}] {} {}: {} cycles, {secs:.2}s",
                    job.guest.name(),
                    job.label,
                    r.cycles()
                ),
                Ok(r) => eprintln!(
                    "[{n}/{total}] {} {}: FAILED ({}), {secs:.2}s",
                    job.guest.name(),
                    job.label,
                    job.stop_error(r)
                ),
                Err(e) => eprintln!(
                    "[{n}/{total}] {} {}: FAILED ({e}), {secs:.2}s",
                    job.guest.name(),
                    job.label
                ),
            }
            (
                key,
                Some((
                    Arc::new(run),
                    FreshRun {
                        wall,
                        queue,
                        worker,
                    },
                )),
            )
        });
        let simulated = slots.iter().filter(|(_, run)| run.is_some()).count();
        if simulated > 0 {
            eprintln!(
                "# {simulated} jobs on {} workers in {:.2}s",
                self.workers.min(total),
                run_started.elapsed().as_secs_f64()
            );
        }
        let mut cache = lock_recover(&self.cache);
        for (key, run) in &slots {
            if let (Some(key), Some((run, _))) = (key, run) {
                cache.insert(*key, run.clone());
            }
        }
        // Log every job in submission order: the simulated request for a
        // key gets the measured record; the other requests for it log as
        // cache hits.
        let mut timings = lock_recover(&self.timings);
        let mut outcomes = Vec::with_capacity(total);
        for (job, (key, fresh)) in jobs.iter().zip(slots) {
            let (run, fresh) = match fresh {
                Some((run, fresh)) => (run, Some(fresh)),
                None => (cache[&key.expect("a hit was built")].clone(), None),
            };
            let outcome = job.outcome_of(&run);
            let cached = fresh.is_none();
            let fresh = fresh.unwrap_or(FreshRun {
                wall: Duration::ZERO,
                queue: Duration::ZERO,
                worker: 0,
            });
            timings.push(JobTiming {
                label: format!("{} {}", job.guest.name(), job.label),
                worker: fresh.worker,
                start: base + fresh.queue,
                queue: fresh.queue,
                wall: fresh.wall,
                cached,
                outcome: match outcome.as_ref() {
                    Ok(_) => "ok".to_string(),
                    Err(e) => e.kind.clone(),
                },
            });
            outcomes.push(outcome);
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
        let plain = spec
            .include_plain
            .then(|| ColumnSpec::new("plain", RtConfig::plain()));
        let mut jobs = Vec::new();
        for row in &spec.rows {
            for col in plain.iter().chain(&spec.columns) {
                let mut cfg = SimConfig {
                    rt: col.rt.clone(),
                    // Tracing is bounded to the matrix's first job: one
                    // Perfetto document per experiment is plenty, and
                    // tracing every job would multiply memory use for no
                    // added insight.
                    trace_uops: 0,
                    ..spec.cfg.clone()
                };
                (col.machine)(&mut cfg);
                jobs.push(SimJob {
                    verify: spec.verify,
                    ..SimJob::on(Guest::Workload(*row), col.label.clone(), cfg, spec.scale)
                });
            }
        }
        if let Some(first) = jobs.first_mut() {
            first.cfg.trace_uops = spec.cfg.trace_uops;
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
    /// Edits the matrix's machine template for this column's jobs
    /// (ablations: serialised arm/disarm, a dedicated token cache).
    pub machine: fn(&mut SimConfig),
}

impl ColumnSpec {
    /// A plain column: `rt` on the matrix's machine.
    pub fn new(label: impl Into<String>, rt: RtConfig) -> ColumnSpec {
        ColumnSpec {
            label: label.into(),
            rt,
            machine: |_| {},
        }
    }
}

/// A declarative experiment: rows × columns on one machine at one scale.
#[derive(Debug, Clone)]
pub struct MatrixSpec {
    /// Benchmark rows.
    pub rows: Vec<FigureRow>,
    /// Hardened configurations.
    pub columns: Vec<ColumnSpec>,
    /// Input-set scale.
    pub scale: Scale,
    /// Also simulate the plain baseline per row (needed for overhead
    /// columns and mean summaries).
    pub include_plain: bool,
    /// Run the static verifier over every program before simulating
    /// (`--verify`): jobs with error-or-worse lint findings fail fast.
    pub verify: bool,
    /// The machine every job of the matrix runs on; each job's `rt`
    /// (its column's, or plain) replaces the template's, and
    /// `trace_uops` applies to the matrix's **first** job only.
    /// [`crate::cli::Harness::run_matrix`] sets the command line's
    /// sampler interval, trace length and execution tier on it.
    pub cfg: SimConfig,
}

impl MatrixSpec {
    /// A standard overhead matrix: Table II machine, plain baselines
    /// included.
    pub fn new(rows: Vec<FigureRow>, columns: Vec<ColumnSpec>, scale: Scale) -> MatrixSpec {
        MatrixSpec {
            rows,
            columns,
            scale,
            include_plain: true,
            verify: false,
            cfg: SimConfig::isca2018(RtConfig::plain()),
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

    /// The standard overhead table: a header, one row per benchmark
    /// with each column's overhead over plain in percent (two
    /// decimals, `failed` where a run failed), then the `WtdAriMean`
    /// and `GeoMean` rows.
    pub fn text_table(&self) -> Table {
        let labels = self.columns.iter().map(|c| c.label.as_str());
        let mut t = Table::named(std::iter::once("benchmark").chain(labels));
        for row in &self.rows {
            let cells = (0..self.columns.len()).map(|c| fixed(row.overhead_pct(c), 2));
            t.row(std::iter::once(row.row.name.to_string()).chain(cells));
        }
        let (wtd, geo): (Vec<f64>, Vec<f64>) = self.summary().into_iter().unzip();
        for (name, means) in [("WtdAriMean", wtd), ("GeoMean", geo)] {
            t.row(std::iter::once(name.to_string()).chain(means.iter().map(|&m| fixed(m, 2))));
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rest_core::Mode;
    use rest_cpu::ExecTier;
    use rest_workloads::Workload;

    fn lbm_row() -> FigureRow {
        FigureRow {
            name: "lbm",
            workload: Workload::Lbm,
            seed: 0xC0FFEE,
        }
    }

    /// A job's key over its own program (the default program when its
    /// build fails, as an injected panic's does).
    fn key(job: &SimJob) -> JobKey {
        job.cache_key(&job.build().unwrap_or_default())
    }

    #[test]
    fn cache_key_covers_every_field_but_the_display_strings() {
        let base = SimJob::new(&lbm_row(), "a", RtConfig::plain(), Scale::Test);
        fn regress(asm: &str) -> Guest {
            Guest::Regress(regress_case("case", asm))
        }
        type Edit = fn(&mut SimJob);
        let edits: Vec<(&str, Edit)> = vec![
            // The guest: each variant, and what tells two apart.
            ("workload", |j| {
                j.guest = Guest::Workload(FigureRow {
                    workload: Workload::Sjeng,
                    ..lbm_row()
                })
            }),
            ("seed", |j| {
                j.guest = Guest::Workload(FigureRow {
                    seed: 1,
                    ..lbm_row()
                })
            }),
            ("attack", |j| {
                j.guest = Guest::Attack(rest_attacks::Attack::Heartbleed)
            }),
            ("regress", |j| {
                j.guest = regress("main:\n    li a0, 0\n    ecall 5\n")
            }),
            // Two corpus files with different assembly must not alias.
            ("regress asm", |j| {
                j.guest = regress("main:\n    li a0, 1\n    ecall 5\n")
            }),
            // One field of every `SimConfig` member.
            ("cfg.core", |j| j.cfg.core.serialize_rest_ops = true),
            ("cfg.mem", |j| j.cfg.mem.token_cache_entries = 4),
            ("cfg.rt", |j| j.cfg.rt = RtConfig::asan()),
            ("cfg.token_seed", |j| j.cfg.token_seed += 1),
            ("cfg.max_uops", |j| j.cfg.max_uops = 100),
            ("cfg.max_cycles", |j| j.cfg.max_cycles = 1000),
            ("cfg.fault", |j| {
                j.cfg.fault = Some(rest_faults::FaultKind::MetaBitClear.default_spec(7))
            }),
            ("cfg.trace_uops", |j| j.cfg.trace_uops = 64),
            ("cfg.sample_interval", |j| j.cfg.sample_interval = 1000),
            ("cfg.tier reference", |j| j.cfg.tier = ExecTier::Reference),
            ("cfg.tier trace", |j| j.cfg.tier = ExecTier::Trace),
            ("cfg.profile_guest", |j| j.cfg.profile_guest = true),
            // The job-level rules.
            ("scale", |j| j.scale = Scale::Ref),
            ("verify", |j| j.verify = true),
            ("elide", |j| j.elide = true),
            ("accept_any_stop", |j| j.accept_any_stop = true),
            ("inject_panic", |j| j.inject_panic = true),
        ];
        let mut keys = HashMap::new();
        keys.insert(key(&base), "base");
        for (field, edit) in &edits {
            let mut job = base.clone();
            edit(&mut job);
            if let Some(clash) = keys.insert(key(&job), *field) {
                panic!("changing {field} leaves the key of {clash}");
            }
        }
        // The display strings are not part of the simulation.
        let display: [Edit; 2] = [
            |j| {
                j.guest = Guest::Workload(FigureRow {
                    name: "other",
                    ..lbm_row()
                })
            },
            |j| j.label = "b".to_string(),
        ];
        for edit in display {
            let mut job = base.clone();
            edit(&mut job);
            assert_eq!(key(&job), key(&base));
        }
        // Stack protection only picks how the program is built: it moves
        // the key exactly when it moves the program. Both happen among
        // the figure rows (a row without protected frames builds one
        // program under either scope).
        let mut equal = 0;
        for row in crate::figure_rows() {
            let job = |full| SimJob::new(&row, "", RtConfig::rest(Mode::Secure, full), Scale::Test);
            let (full, heap) = (job(true), job(false));
            let same_program = full.build().unwrap().to_asm() == heap.build().unwrap().to_asm();
            assert_eq!(key(&full) == key(&heap), same_program, "{}", row.name);
            equal += usize::from(same_program);
        }
        assert!(
            (1..crate::figure_rows().len()).contains(&equal),
            "{equal} rows alike"
        );
    }

    #[test]
    fn independent_builds_of_a_job_key_alike() {
        // A program's symbol map iterates in a per-instance order, so a
        // key over the derived `Debug` of two builds of one job would
        // differ whenever the program has two symbols or more.
        let mut most_symbols = 0;
        for row in crate::figure_rows() {
            let job = SimJob::new(&row, "", RtConfig::rest(Mode::Secure, true), Scale::Test);
            let (a, b) = (job.build().unwrap(), job.build().unwrap());
            assert_eq!(job.cache_key(&a), job.cache_key(&b), "{}", row.name);
            let pcs = (0..a.len() as u64).map(|i| Program::CODE_BASE + i * rest_isa::PC_STEP);
            most_symbols = most_symbols.max(pcs.filter(|&pc| a.symbol_at(pc).is_some()).count());
        }
        assert!(
            most_symbols >= 2,
            "no figure row exercises the symbol order"
        );
    }

    #[test]
    fn full_and_heap_twins_share_a_run_only_when_their_programs_match() {
        let twins = |workload| {
            let row = FigureRow::of(workload);
            let engine = Engine::new(2);
            let outcomes = engine.run_all(&[true, false].map(|full| {
                let rt = RtConfig::rest(Mode::Secure, full);
                SimJob::new(&row, rt.label(), rt, Scale::Test)
            }));
            let cached: Vec<bool> = engine.take_timings().iter().map(|t| t.cached).collect();
            (outcomes, cached)
        };
        // lbm protects no stack frame: Full builds Heap's program.
        let (outcomes, cached) = twins(Workload::Lbm);
        assert_eq!(cached, [false, true]);
        let [full, heap] = [0, 1].map(|i| outcomes[i].as_ref().as_ref().unwrap());
        assert_eq!(
            (&*full.label, &*heap.label),
            ("rest-secure-full", "rest-secure-heap")
        );
        assert_eq!(full.stats_map(), heap.stats_map());
        // bzip2's Full program instruments its frames: two runs.
        let (outcomes, cached) = twins(Workload::Bzip2);
        assert_eq!(cached, [false, false]);
        let [full, heap] = [0, 1].map(|i| outcomes[i].as_ref().as_ref().unwrap());
        assert_ne!(full.stats_map(), heap.stats_map());
    }

    #[test]
    fn a_shared_failure_names_each_requesting_job() {
        let row = lbm_row();
        let engine = Engine::new(1);
        let jobs = [true, false].map(|full| {
            let rt = RtConfig::rest(Mode::Secure, full);
            let mut job = SimJob::new(&row, rt.label(), rt, Scale::Test);
            job.cfg.max_uops = 50;
            job
        });
        let outcomes = engine.run_all(&jobs);
        assert_eq!(engine.take_timings().iter().filter(|t| t.cached).count(), 1);
        for (job, outcome) in jobs.iter().zip(&outcomes) {
            let err = outcome.as_ref().as_ref().unwrap_err();
            assert_eq!(err.kind, "uop-limit");
            assert!(
                err.detail.ends_with(&format!("under {}", job.label)),
                "{err}"
            );
        }
    }

    #[test]
    fn reference_and_fast_paths_simulate_identically() {
        let row = lbm_row();
        let on = |tier| {
            let mut job = SimJob::plain(&row, Scale::Test);
            job.cfg.tier = tier;
            job.execute().unwrap()
        };
        let fast = on(ExecTier::Fast);
        for other in [ExecTier::Reference, ExecTier::Trace].map(on) {
            assert_eq!(fast.stats_map(), other.stats_map());
            assert_eq!(fast.stop, other.stop);
            assert_eq!(fast.output, other.output);
        }
    }

    #[test]
    fn verify_gate_passes_clean_programs() {
        let row = lbm_row();
        let job = SimJob {
            verify: true,
            ..SimJob::plain(&row, Scale::Test)
        };
        // lbm lints clean, so the gated run simulates normally and
        // matches the ungated result.
        let gated = job.execute().expect("clean program must pass the gate");
        let plain = SimJob::plain(&row, Scale::Test).execute().unwrap();
        assert_eq!(gated.core.insts, plain.core.insts);
        assert_eq!(gated.core.cycles, plain.core.cycles);
    }

    #[test]
    fn engine_caches_identical_jobs() {
        let row = lbm_row();
        let engine = Engine::new(2);
        let job = SimJob::plain(&row, Scale::Test);
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
        let mut job = SimJob::plain(&row, Scale::Test);
        job.cfg.max_uops = 50;
        let err = job.execute().unwrap_err();
        assert_eq!(err.kind, "uop-limit");
        assert!(err.detail.contains("lbm"));
    }

    #[test]
    fn injected_panic_becomes_structured_job_error() {
        let row = lbm_row();
        let job = SimJob {
            inject_panic: true,
            ..SimJob::plain(&row, Scale::Test)
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
            ..SimJob::plain(&row, Scale::Test)
        };
        let healthy = SimJob::plain(&row, Scale::Test);
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
        let job = SimJob::plain(&row, Scale::Test);
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
        let plain = SimJob::plain(&row, Scale::Test);
        let mut profiled = plain.clone();
        profiled.cfg.profile_guest = true;
        assert_ne!(key(&plain), key(&profiled));
        let result = profiled.execute().unwrap();
        let profile = result.profile.expect("profiled job carries the tables");
        assert_eq!(profile.cycles.total(), result.core.cycles);
        assert!(plain.execute().unwrap().profile.is_none());
    }

    /// A corpus case with no sidecar rows.
    fn regress_case(name: &str, asm: &str) -> Arc<RegressCase> {
        Arc::new(RegressCase {
            name: name.to_string(),
            asm: asm.to_string(),
            ops: Vec::new(),
            expectations: Vec::new(),
        })
    }

    #[test]
    fn regress_jobs_run_parsed_assembly() {
        let case = regress_case("exit-only", "main:\n    li a0, 0\n    ecall 5\n");
        let job = SimJob::for_regress(case, "plain", RtConfig::plain(), Scale::Test);
        let result = job.execute().expect("minimal program runs");
        assert!(matches!(result.stop, StopReason::Exit(0)));
        let broken = SimJob::for_regress(
            regress_case("broken", "main:\n    not-an-instruction\n"),
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

    #[test]
    fn attack_jobs_stage_the_scenarios_own_runtime() {
        use rest_attacks::Attack;
        // As `Attack::run` does: the library overflow models an
        // uninstrumented routine (ASan's libc interception off) and the
        // uninit leak forces heap reuse (a 64-byte quarantine).
        let job = |attack, rt: RtConfig| SimJob::for_attack(attack, rt.label(), rt, Scale::Test);
        let asan = RtConfig::asan();
        assert!(asan.intercept_libc);
        assert!(
            !job(Attack::UncheckedLibraryOverflow, asan.clone())
                .cfg
                .rt
                .intercept_libc
        );
        let rest = RtConfig::rest(Mode::Secure, true);
        for attack in Attack::ALL {
            for rt in [&asan, &rest] {
                assert_eq!(job(attack, rt.clone()).cfg.rt, attack.rt_for(rt.clone()));
            }
        }
        assert_ne!(job(Attack::UninitLeak, rest.clone()).cfg.rt, rest);
    }

    #[test]
    fn failure_details_name_the_real_guest() {
        let job = SimJob {
            accept_any_stop: false,
            ..SimJob::for_attack(
                rest_attacks::Attack::Heartbleed,
                "rest-secure-full",
                RtConfig::rest(Mode::Secure, true),
                Scale::Test,
            )
        };
        let err = job.execute().unwrap_err();
        assert_eq!(err.kind, "violation");
        assert!(err.detail.contains("heartbleed-oob-read"), "{err}");
        assert!(!err.detail.contains("lbm"), "{err}");
    }
}
