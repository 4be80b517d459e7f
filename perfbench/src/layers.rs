//! Traced runs: the simulator's run loops rebuilt from public calls,
//! with host time attributed to the layer each call belongs to.
//!
//! An `Instant::now()` pair costs about as much as one
//! `Pipeline::process` call, so timing every call would mostly measure
//! the timer. Program build and machine construction are long calls
//! and are timed one by one; the run loop's layers come from whole
//! loops timed once each: step-only (the emulator alone), the bare loop
//! (without `Pipeline::process`) and the full loop, each layer being
//! the difference of two of them. Sampled timers (one instruction in
//! [`SAMPLE_STRIDE`], plus every `ecall`) only split a layer into
//! shares, and the calibrated cost of the timer is taken off every
//! sampled interval and every enclosing loop.

use std::time::Instant;

use rest_cpu::{stats_map_parts, Emulator, ExecEngine, Pipeline, SimConfig, StopReason};
use rest_isa::{DynInst, Inst, Program, PC_STEP};
use rest_mem::{Hierarchy, MemStats};

use crate::{metric, Metric};

/// Sampling stride in macro instructions. Prime, so a loop body whose
/// length divides a power of two is not always sampled at one spot.
pub const SAMPLE_STRIDE: u64 = 61;

const ECALL: u8 = 1;
/// Instructions that record line pre-images (arm/disarm, and ecalls
/// whose allocator arms redzones).
const SNAPSHOT: u8 = 2;

/// Cost of reading the host clock, measured at start-up.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    /// Seconds between two back-to-back `Instant::now()` readings: what
    /// one timed interval over-reports.
    pub now_cost: f64,
}

impl Clock {
    pub fn calibrate() -> Clock {
        let samples: Vec<f64> = (0..20_001)
            .map(|_| {
                let a = Instant::now();
                let b = Instant::now();
                (b - a).as_secs_f64()
            })
            .collect();
        Clock {
            now_cost: crate::median(&samples),
        }
    }

    /// Seconds since `t`, less the timer's own cost.
    pub fn since(&self, t: Instant) -> f64 {
        (t.elapsed().as_secs_f64() - self.now_cost).max(0.0)
    }
}

/// Per-instruction classification for the sampled step loops.
pub fn inst_kinds(program: &Program) -> Vec<u8> {
    program
        .instructions()
        .iter()
        .map(|inst| match inst {
            Inst::Ecall => ECALL | SNAPSHOT,
            Inst::Arm { .. } | Inst::Disarm { .. } => SNAPSHOT,
            _ => 0,
        })
        .collect()
}

/// Host-time and work accumulators of one traced pass.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub build_s: f64,
    pub construct_s: f64,
    /// Step-only pass over the timing-path programs.
    pub step_s: f64,
    pub step_insts: u64,
    pub step_uops: u64,
    /// Every `ecall` step, timed.
    pub ecall_s: f64,
    /// Sampled non-`ecall` steps and the total they stand for.
    pub other_sampled_s: f64,
    pub other_sampled: u64,
    pub other_steps: u64,
    /// Full timing loop (step + process + bookkeeping).
    pub loop_s: f64,
    /// The bare loop: the timing loop without `Pipeline::process`.
    pub bare_loop_s: f64,
    pub uops: u64,
    pub mem_uops: u64,
    pub injected_uops: u64,
    pub allocator_uops: u64,
    pub mem: MemStats,
    /// `run_functional` host seconds per tier: reference, fast, trace.
    pub tier_s: [f64; 3],
    pub functional_insts: u64,
    pub trace_tier_insts: u64,
    pub traced_insts: u64,
    pub decode_invalidations: u64,
    pub allocs: u64,
    pub checks: u64,
    pub checked_insts: u64,
    pub verify_s: f64,
    pub verify_cases: u64,
    pub engine_jobs: u64,
    pub engine_cache_hits: u64,
    pub engine_overhead_s: f64,
    pub sink_render_s: f64,
    /// Wall of the traced pass the layer times reconcile against.
    pub traced_wall_s: f64,
    /// Wall of the same work through the untraced public entry point.
    pub untraced_wall_s: f64,
}

/// The result surface `System::run` reports, from the re-driven loop.
#[derive(Debug)]
pub struct TimingResult {
    pub stop: StopReason,
    pub stats: Vec<(&'static str, u64)>,
    pub output: Vec<u8>,
    pub insts: u64,
}

impl Layers {
    /// Allocator and backend counters of a finished run.
    pub fn note_runtime(&mut self, emu: &Emulator) {
        self.allocs += emu.runtime().allocator().stats().allocs;
        self.checks += emu.backend().check_count();
        self.checked_insts += emu.insts();
    }

    /// The step-only and bare-loop passes the timing loop's split comes
    /// from, each on a fresh machine for `build()`'s program. Returns the
    /// finished step-only emulator.
    pub fn split_passes(
        &mut self,
        build: impl Fn() -> Program,
        cfg: &SimConfig,
        clock: &Clock,
    ) -> Emulator {
        let program = build();
        let kinds = inst_kinds(&program);
        let mut emu = Emulator::new(program, cfg);
        self.step_only(&mut emu, &kinds, clock);
        let (mut bare, mut pipe) = construct_timing(build(), cfg);
        self.bare_loop(&mut bare, &mut pipe, &kinds, clock);
        emu
    }

    /// The emulator alone, stepping with micro-op materialisation as the
    /// timing loop does. Every `ecall` step and one step in
    /// [`SAMPLE_STRIDE`] are timed for the ecall share.
    fn step_only(&mut self, emu: &mut Emulator, kinds: &[u8], clock: &Clock) {
        let mut batch: Vec<DynInst> = Vec::with_capacity(64);
        self.step_s += self.sampled_steps(emu, kinds, clock, None, |e| {
            batch.clear();
            e.step(&mut batch)
        });
        self.step_insts += emu.insts();
        self.step_uops += emu.uops();
    }

    /// The timing loop without `Pipeline::process`: stepping plus the
    /// loop's own work (batch round trip, `note_inst`,
    /// `clear_pre_images`). Sampled like [`Layers::step_only`], so the
    /// timer overhead cancels in the difference of the two passes.
    fn bare_loop(&mut self, emu: &mut Emulator, pipe: &mut Pipeline, kinds: &[u8], clock: &Clock) {
        let mut batch: Vec<DynInst> = Vec::with_capacity(64);
        let mut scratch = Layers::default();
        self.bare_loop_s += scratch.sampled_steps(emu, kinds, clock, Some(pipe), |e| {
            batch.clear();
            e.step(&mut batch)
        });
    }

    /// As [`Layers::step_only`] on the counting path (`step_quiet`);
    /// contributes only to the ecall share.
    pub fn quiet_only(&mut self, emu: &mut Emulator, kinds: &[u8], clock: &Clock) {
        self.sampled_steps(emu, kinds, clock, None, |e| e.step_quiet());
    }

    /// Steps `emu` to completion, timing every `ecall` step and one
    /// other step in [`SAMPLE_STRIDE`]; with `bookkeeping`, also does the
    /// timing loop's per-instruction bookkeeping. Returns the pass
    /// seconds less the timers' own cost.
    fn sampled_steps(
        &mut self,
        emu: &mut Emulator,
        kinds: &[u8],
        clock: &Clock,
        mut bookkeeping: Option<&mut Pipeline>,
        mut step: impl FnMut(&mut Emulator) -> bool,
    ) -> f64 {
        let mut pairs = 0u64;
        let mut n = 0u64;
        let start = Instant::now();
        loop {
            let idx = (emu.pc().wrapping_sub(Program::CODE_BASE) / PC_STEP) as usize;
            let kind = kinds.get(idx).copied().unwrap_or(0);
            n += 1;
            let go = if kind & ECALL != 0 {
                let t = Instant::now();
                let go = step(emu);
                self.ecall_s += clock.since(t);
                pairs += 1;
                go
            } else {
                self.other_steps += 1;
                if n.is_multiple_of(SAMPLE_STRIDE) {
                    let t = Instant::now();
                    let go = step(emu);
                    self.other_sampled_s += clock.since(t);
                    self.other_sampled += 1;
                    pairs += 1;
                    go
                } else {
                    step(emu)
                }
            };
            if !go {
                break;
            }
            match bookkeeping.as_deref_mut() {
                Some(pipe) => {
                    pipe.note_inst(emu.insts());
                    emu.mem.clear_pre_images();
                }
                // Keep the pre-image map as small as the timing loop
                // keeps it, without paying for a clear on every step.
                None if kind & SNAPSHOT != 0 => emu.mem.clear_pre_images(),
                None => {}
            }
        }
        (start.elapsed().as_secs_f64() - 2.0 * clock.now_cost * pairs as f64).max(0.0)
    }

    /// The full `System::run` loop, rebuilt from public calls and timed
    /// as a whole: step the emulator, replay the batch through
    /// `Pipeline::process`, drop the line pre-images.
    pub fn full_loop(&mut self, mut emu: Emulator, mut pipe: Pipeline) -> TimingResult {
        let mut batch: Vec<DynInst> = Vec::with_capacity(64);
        let mut mem_uops = 0u64;
        let start = Instant::now();
        loop {
            batch.clear();
            if !emu.step(&mut batch) {
                break;
            }
            pipe.note_inst(emu.insts());
            for d in &batch {
                mem_uops += u64::from(d.kind.is_mem());
                pipe.process(d, &emu.mem, emu.token());
            }
            emu.mem.clear_pre_images();
        }
        self.loop_s += start.elapsed().as_secs_f64();
        let mut core = pipe.finish();
        core.insts = emu.insts();
        core.elided_checks = emu.elided_checks();
        let stop = emu.take_stop().unwrap_or(StopReason::Halted);
        self.uops += core.uops;
        self.mem_uops += mem_uops;
        self.injected_uops += core.uops - core.uops_by_component[0];
        self.allocator_uops += core.uops_by_component[1];
        self.mem.merge(pipe.mem_stats());
        TimingResult {
            stop,
            stats: stats_map_parts(&core, pipe.mem_stats(), emu.runtime().allocator().stats()),
            output: emu.runtime().output().to_vec(),
            insts: core.insts,
        }
    }

    /// `(pipeline.process_s, system.loop_other_s)`: full loop minus the
    /// bare loop, and bare loop minus the step-only pass.
    fn process_and_other(&self) -> (f64, f64) {
        (
            (self.loop_s - self.bare_loop_s).max(0.0),
            (self.bare_loop_s - self.step_s).max(0.0),
        )
    }

    fn run_functional_s(&self) -> f64 {
        self.tier_s.iter().sum()
    }

    /// The disjoint layer times that, with the residue, make up the
    /// traced wall.
    fn layer_times(&self) -> [(&'static str, f64); 7] {
        let (process, other) = self.process_and_other();
        [
            ("setup.build_s", self.build_s),
            ("setup.construct_s", self.construct_s),
            ("verify.s", self.verify_s),
            ("emulator.run_functional_s", self.run_functional_s()),
            ("emulator.step_s", self.step_s),
            ("pipeline.process_s", process),
            ("system.loop_other_s", other),
        ]
    }

    fn residue_s(&self) -> f64 {
        self.traced_wall_s - self.layer_times().iter().map(|(_, s)| s).sum::<f64>()
    }

    /// `#` lines: tracing overhead and the reconciliation of layer times
    /// plus residue against the traced wall.
    pub fn reconciliation(&self) -> Vec<String> {
        let parts: Vec<String> = self
            .layer_times()
            .iter()
            .filter(|(_, s)| *s > 0.0)
            .map(|(n, s)| format!("{n} {s:.4}"))
            .collect();
        vec![
            format!(
                "tracing overhead {:.4}s: traced wall {:.4}s - untraced wall {:.4}s",
                self.traced_wall_s - self.untraced_wall_s,
                self.traced_wall_s,
                self.untraced_wall_s
            ),
            format!(
                "traced wall {:.4}s = {} + trace.residue_s {:.4}",
                self.traced_wall_s,
                parts.join(" + "),
                self.residue_s()
            ),
        ]
    }

    /// Every per-layer metric, in `BENCHMARK.json` order. A layer the
    /// workload does not exercise reports 0.
    pub fn metrics(&self) -> Vec<Metric> {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let (process, other) = self.process_and_other();
        let other_est =
            ratio(self.other_sampled_s, self.other_sampled as f64) * self.other_steps as f64;
        let l1d = self.mem.l1d_hits + self.mem.l1d_misses;
        let run_functional = self.run_functional_s();
        vec![
            metric("setup.build_s", self.build_s, "s"),
            metric("setup.construct_s", self.construct_s, "s"),
            metric("emulator.step_s", self.step_s, "s"),
            metric(
                "emulator.step_ns_per_inst",
                ratio(self.step_s * 1e9, self.step_insts as f64),
                "ns",
            ),
            metric(
                "emulator.uops_per_inst",
                ratio(self.step_uops as f64, self.step_insts as f64),
                "ratio",
            ),
            metric("emulator.run_functional_s", run_functional, "s"),
            metric(
                "emulator.functional_ns_per_inst",
                ratio(run_functional * 1e9, self.functional_insts as f64),
                "ns",
            ),
            metric(
                "emulator.decode_invalidations",
                self.decode_invalidations as f64,
                "count",
            ),
            metric("emulator.tier_s.reference", self.tier_s[0], "s"),
            metric("emulator.tier_s.fast", self.tier_s[1], "s"),
            metric("emulator.tier_s.trace", self.tier_s[2], "s"),
            metric(
                "emulator.trace_coverage",
                ratio(self.traced_insts as f64, self.trace_tier_insts as f64),
                "ratio",
            ),
            metric(
                "runtime.ecall_step_share",
                ratio(self.ecall_s, self.ecall_s + other_est),
                "ratio",
            ),
            metric("runtime.allocs", self.allocs as f64, "count"),
            metric(
                "runtime.uops_allocator",
                self.allocator_uops as f64,
                "count",
            ),
            metric("backend.checks", self.checks as f64, "count"),
            metric(
                "backend.checks_per_kinst",
                ratio(self.checks as f64 * 1000.0, self.checked_insts as f64),
                "1/kinst",
            ),
            metric("pipeline.process_s", process, "s"),
            metric(
                "pipeline.ns_per_uop",
                ratio(process * 1e9, self.uops as f64),
                "ns",
            ),
            metric(
                "pipeline.mem_uop_share",
                ratio(self.mem_uops as f64, self.uops as f64),
                "ratio",
            ),
            metric(
                "pipeline.injected_uop_share",
                ratio(self.injected_uops as f64, self.uops as f64),
                "ratio",
            ),
            metric("system.loop_other_s", other, "s"),
            metric("mem.l1d_accesses", l1d as f64, "count"),
            metric(
                "mem.l1d_hit_rate",
                ratio(self.mem.l1d_hits as f64, l1d as f64),
                "ratio",
            ),
            metric("mem.l1i_misses", self.mem.l1i_misses as f64, "count"),
            metric("mem.l2_misses", self.mem.l2_misses as f64, "count"),
            metric("mem.dram_accesses", self.mem.dram_accesses as f64, "count"),
            metric("verify.s", self.verify_s, "s"),
            metric(
                "verify.ms_per_case",
                ratio(self.verify_s * 1e3, self.verify_cases as f64),
                "ms",
            ),
            metric("engine.jobs", self.engine_jobs as f64, "count"),
            metric("engine.cache_hits", self.engine_cache_hits as f64, "count"),
            metric("engine.overhead_s", self.engine_overhead_s, "s"),
            metric("sink.render_s", self.sink_render_s, "s"),
            metric(
                "trace.overhead_s",
                self.traced_wall_s - self.untraced_wall_s,
                "s",
            ),
            metric("trace.residue_s", self.residue_s(), "s"),
        ]
    }
}

/// Builds the machine as `System::new` does for the configurations the
/// benchmark runs: no fault injection, guest profiling, interval
/// sampling, uop trace or cycle budget, which the re-driven loop does
/// not model.
pub fn construct_timing(program: Program, cfg: &SimConfig) -> (Emulator, Pipeline) {
    assert!(
        cfg.fault.is_none()
            && !cfg.profile_guest
            && cfg.sample_interval == 0
            && cfg.trace_uops == 0
            && cfg.max_cycles == 0,
        "the re-driven timing loop models the plain System::run path only"
    );
    let emu = Emulator::new(program, cfg);
    let pipe = Pipeline::new(
        cfg.core.clone(),
        Hierarchy::new(cfg.mem.clone()),
        cfg.rt.mode,
    );
    (emu, pipe)
}
