use rest_core::Mode;
use rest_isa::Program;
use rest_mem::Hierarchy;
use rest_obs::{AuditEntry, IntervalSample, TimeSeries, FAULT_INJECTOR};

use crate::config::SimConfig;
use crate::emulator::{Emulator, StopReason, WINDOW_UOPS};
use crate::exec::ExecEngine;
use crate::pipeline::Pipeline;
use crate::profile::{GuestProfile, PcCounters};
use crate::stats::{stats_map_parts, SimResult};

/// A complete simulated machine: functional emulator + timing pipeline.
///
/// # Example
///
/// ```
/// use rest_cpu::{SimConfig, System};
/// use rest_isa::{ProgramBuilder, Reg};
/// use rest_runtime::RtConfig;
///
/// let mut p = ProgramBuilder::new();
/// p.li(Reg::A0, 2);
/// p.addi(Reg::A0, Reg::A0, 40);
/// p.halt();
/// let result = System::new(p.build(), SimConfig::isca2018(RtConfig::plain())).run();
/// assert!(result.cycles() > 0);
/// ```
#[derive(Debug)]
pub struct System {
    emulator: Emulator,
    pipeline: Pipeline,
    label: String,
    mode: Mode,
    sample_interval: u64,
    max_cycles: u64,
    has_fault: bool,
    /// Per-PC (cycles, uops) accumulators when guest profiling is on.
    profile: Option<(PcCounters, PcCounters)>,
}

impl System {
    /// Builds the machine for `program` under `cfg`.
    pub fn new(program: Program, cfg: SimConfig) -> System {
        let profile = cfg
            .profile_guest
            .then(|| (PcCounters::new(&program), PcCounters::new(&program)));
        let emulator = Emulator::new(program, &cfg);
        let mut hier = Hierarchy::new(cfg.mem.clone());
        if let Some(f) = emulator.fault_handle() {
            // The hierarchy shares the emulator's injection state: the
            // hardware sites trigger there, the architectural
            // consequences are applied here.
            hier.set_fault(f.clone());
        }
        let has_fault = emulator.fault_handle().is_some();
        let mut pipeline = Pipeline::new(cfg.core.clone(), hier, cfg.rt.mode);
        pipeline.enable_trace(cfg.trace_uops);
        System {
            emulator,
            pipeline,
            label: cfg.rt.label(),
            mode: cfg.rt.mode,
            sample_interval: cfg.sample_interval,
            max_cycles: cfg.max_cycles,
            has_fault,
            profile,
        }
    }

    /// Runs the program to completion (halt, exit, violation, or uop
    /// budget) and returns the full result.
    pub fn run(mut self) -> SimResult {
        let mut series = if self.sample_interval > 0 {
            Some(TimeSeries::new(self.sample_interval))
        } else {
            None
        };
        let mut batch = Vec::with_capacity(WINDOW_UOPS);
        let System {
            emulator,
            pipeline,
            sample_interval,
            max_cycles,
            has_fault,
            profile,
            ..
        } = &mut self;
        // Observers of per-instruction state take one-instruction
        // windows: the per-PC profile charges each instruction's cycles,
        // fault effects land between instructions, and the cycle budget
        // stops at the instruction that crosses it. Sampling needs only
        // a window end at each interval boundary.
        let every = if profile.is_some() || *has_fault || *max_cycles > 0 {
            1
        } else {
            *sample_interval
        };
        emulator.run_steps(&mut batch, every, &mut |emulator, batch, window| {
            // The emulator runs one window ahead; replay its micro-ops
            // through the timing model. The window's only writer of
            // guest memory is its first instruction, and lines modified
            // by an arm/disarm effect (alone in its window) carry
            // pre-update snapshots (see
            // GuestMemory::snapshot_line_pre_image), so the token
            // detector observes exactly what a hardware fill would.
            let ends = window.ends();
            let first_inst = emulator.insts() + 1 - ends.len() as u64;
            let commit_before = pipeline.current_cycles();
            pipeline.process_all(batch, ends, first_inst, &emulator.mem, emulator.token());
            if let Some((cycles, uops)) = profile.as_mut() {
                // One instruction per window here. Commit-frontier
                // deltas telescope, so per-PC cycle totals sum exactly
                // to the final cycle count. Runtime micro-ops spliced by
                // an `ecall` land in this instruction's batch and are
                // charged to its PC.
                cycles.add(window.pc, pipeline.current_cycles() - commit_before);
                uops.add(window.pc, batch.len() as u64);
            }
            batch.clear();
            // The timing model has consumed the window's micro-ops; its
            // pre-update line snapshots are no longer needed.
            emulator.mem.clear_pre_images();
            if *has_fault {
                // Deferred hardware fault effects (eviction-time
                // metadata loss) become architectural between
                // instructions.
                emulator.apply_fault_effects();
            }
            if *max_cycles > 0 && pipeline.current_cycles() >= *max_cycles {
                emulator.force_stop(StopReason::CycleLimit);
                return false;
            }
            if let Some(series) = series.as_mut() {
                // Every interval boundary ends a window, and `insts`
                // passes each boundary exactly once.
                if emulator.insts().is_multiple_of(*sample_interval) {
                    take_sample(emulator, pipeline, series);
                }
            }
            true
        });
        let core = self.pipeline.finish();
        let mut core = core;
        core.insts = self.emulator.insts();
        core.elided_checks = self.emulator.elided_checks();
        let trace = self.pipeline.take_trace();
        // Hardware detections recorded by the pipeline, then the
        // architectural violation (if the run stopped on one) with its
        // component provenance.
        let mut audit = self.pipeline.take_audit();
        // Fault-injection provenance: every applied fault and its
        // downstream consequences, before the architectural violation
        // (which always stays last).
        let fault_report = self.emulator.fault_handle().map(|f| {
            for rec in f.take_records() {
                audit.record(AuditEntry {
                    detector: FAULT_INJECTOR,
                    kind: rec.site,
                    pc: 0,
                    addr: rec.addr,
                    size: 0,
                    mode: self.mode.name(),
                    component: "hardware",
                    precise: true,
                    insts: rec.event,
                });
            }
            f.report()
        });
        let stop = self.emulator.take_stop().unwrap_or(StopReason::Halted);
        // Delayed detections (MTE async/asymm TFSR semantics): the run
        // completed architecturally, but the backend latched a fault that
        // is reported at the next kernel entry — here, program stop. The
        // stop reason is untouched (the access went through; an async
        // leak still leaks), only the audit log records the detection.
        if let Some(v) = self.emulator.take_deferred() {
            let pc = violation_pc(&v);
            audit.record(v.audit_entry(
                self.mode.name(),
                self.emulator.component_at(pc).name(),
                core.insts,
            ));
        }
        if let StopReason::Violation(v) = &stop {
            let pc = violation_pc(v);
            audit.record(v.audit_entry(
                self.mode.name(),
                self.emulator.component_at(pc).name(),
                core.insts,
            ));
        }
        let profile = self.profile.take().map(|(cycles, uops)| {
            let checks = self.emulator.take_pc_checks().unwrap_or_default();
            let (sites, elided_sites) = self
                .emulator
                .take_sites()
                .map(|s| {
                    let elided = s.elided_rows();
                    (s.into_rows(), elided)
                })
                .unwrap_or_default();
            GuestProfile {
                cycles,
                uops,
                checks: checks.checks,
                check_uops: checks.check_uops,
                backend_checks: self.emulator.backend().check_count(),
                sites,
                elided_sites,
            }
        });
        SimResult {
            trace,
            core,
            mem: *self.pipeline.mem_stats(),
            alloc: *self.emulator.runtime().allocator().stats(),
            stop,
            output: self.emulator.runtime().output().to_vec(),
            label: self.label,
            series,
            audit,
            fault: fault_report,
            profile,
        }
    }
}

/// Snapshots the running system's full counter map and occupancy
/// gauges into `series`.
fn take_sample(emulator: &Emulator, pipeline: &mut Pipeline, series: &mut TimeSeries) {
    let insts = emulator.insts();
    let cycles = pipeline.current_cycles();
    let mut core = *pipeline.stats();
    core.cycles = cycles;
    core.insts = insts;
    let counters = stats_map_parts(
        &core,
        pipeline.mem_stats(),
        emulator.runtime().allocator().stats(),
    );
    let gauges = pipeline.gauges();
    series.record(IntervalSample {
        insts,
        cycles,
        counters,
        gauges,
    });
}

/// PC of the faulting access for any violation flavour.
fn violation_pc(v: &rest_runtime::Violation) -> u64 {
    match v {
        rest_runtime::Violation::Rest(e) => e.pc,
        rest_runtime::Violation::Asan(r) => r.pc,
        rest_runtime::Violation::Tag(t) => t.pc,
        rest_runtime::Violation::Pac(p) => p.pc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rest_core::Mode;
    use rest_isa::{EcallNum, ProgramBuilder, Reg};
    use rest_runtime::{RtConfig, Violation};

    fn sum_loop_program(n: i64) -> Program {
        let mut p = ProgramBuilder::new();
        let lp = p.new_label();
        p.li(Reg::A0, 0);
        p.li(Reg::T0, n);
        p.bind(lp);
        p.add(Reg::A0, Reg::A0, Reg::T0);
        p.addi(Reg::T0, Reg::T0, -1);
        p.bne(Reg::T0, Reg::ZERO, lp);
        p.halt();
        p.build()
    }

    /// A guest that never terminates: `t0` is pinned to 1, so the
    /// backward branch is always taken.
    fn infinite_loop_program() -> Program {
        let mut p = ProgramBuilder::new();
        let lp = p.new_label();
        p.li(Reg::T0, 1);
        p.bind(lp);
        p.bne(Reg::T0, Reg::ZERO, lp);
        p.build()
    }

    #[test]
    fn cycle_budget_stops_a_hung_guest_on_the_timing_path() {
        let mut cfg = SimConfig::isca2018(RtConfig::plain());
        cfg.max_cycles = 10_000;
        let r = System::new(infinite_loop_program(), cfg).run();
        assert_eq!(r.stop, StopReason::CycleLimit);
        // The budget is conservative: the run stops when *either* the
        // pipeline clock or the committed-uop proxy reaches it (a
        // high-IPC guest trips the uop proxy first), so the cycle count
        // never meaningfully overshoots the budget.
        assert!(r.cycles() > 0);
        assert!(r.cycles() < 11_000, "overshot the budget: {}", r.cycles());
    }

    #[test]
    fn cycle_budget_stops_a_hung_guest_on_the_functional_path() {
        let mut cfg = SimConfig::isca2018(RtConfig::plain());
        cfg.max_cycles = 10_000;
        let mut emu = Emulator::new(infinite_loop_program(), &cfg);
        assert_eq!(emu.run_functional(), Some(&StopReason::CycleLimit));
    }

    #[test]
    fn zero_cycle_budget_means_no_budget() {
        // max_cycles = 0 (the default) must not stop anything early:
        // existing experiment bytes depend on it.
        let cfg = SimConfig::isca2018(RtConfig::plain());
        assert_eq!(cfg.max_cycles, 0);
        let r = System::new(sum_loop_program(10_000), cfg).run();
        assert_eq!(r.stop, StopReason::Halted);
    }

    #[test]
    fn runs_to_halt_with_sane_ipc() {
        let r = System::new(
            sum_loop_program(10_000),
            SimConfig::isca2018(RtConfig::plain()),
        )
        .run();
        assert_eq!(r.stop, StopReason::Halted);
        assert_eq!(r.core.insts, 3 + 3 * 10_000);
        assert!(
            r.core.uipc() > 1.0,
            "tight loop should exceed 1 uipc, got {}",
            r.core.uipc()
        );
        assert!(r.core.uipc() < 8.0);
    }

    #[test]
    fn heap_workload_runs_under_all_schemes_with_expected_ordering() {
        // malloc/free churn: plain must be fastest, ASan slowest of the
        // three schemes, REST secure in between but close to plain.
        let prog = || {
            let mut p = ProgramBuilder::new();
            let lp = p.new_label();
            p.li(Reg::S1, 200); // iterations
            p.bind(lp);
            p.li(Reg::A0, 256);
            p.ecall(EcallNum::Malloc);
            p.mv(Reg::S0, Reg::A0);
            // Work over the allocation: this is where ASan's per-access
            // checks bite while REST's hardware checks are free.
            let inner = p.new_label();
            p.li(Reg::T0, 0);
            p.bind(inner);
            p.add(Reg::T1, Reg::S0, Reg::T0);
            p.sd(Reg::T0, Reg::T1, 0);
            p.ld(Reg::T2, Reg::T1, 0);
            p.addi(Reg::T0, Reg::T0, 8);
            p.slti(Reg::T3, Reg::T0, 256);
            p.bne(Reg::T3, Reg::ZERO, inner);
            p.mv(Reg::A0, Reg::S0);
            p.ecall(EcallNum::Free);
            p.addi(Reg::S1, Reg::S1, -1);
            p.bne(Reg::S1, Reg::ZERO, lp);
            p.halt();
            p.build()
        };
        let plain = System::new(prog(), SimConfig::isca2018(RtConfig::plain())).run();
        let asan = System::new(prog(), SimConfig::isca2018(RtConfig::asan())).run();
        let rest = System::new(
            prog(),
            SimConfig::isca2018(RtConfig::rest(Mode::Secure, false)),
        )
        .run();
        assert_eq!(plain.stop, StopReason::Halted);
        assert_eq!(asan.stop, StopReason::Halted);
        assert_eq!(rest.stop, StopReason::Halted);
        assert!(
            asan.cycles() > plain.cycles(),
            "asan {} plain {}",
            asan.cycles(),
            plain.cycles()
        );
        assert!(
            rest.cycles() > plain.cycles(),
            "rest {} plain {}",
            rest.cycles(),
            plain.cycles()
        );
        assert!(
            rest.cycles() < asan.cycles(),
            "REST secure must beat ASan: rest {} asan {}",
            rest.cycles(),
            asan.cycles()
        );
    }

    #[test]
    fn violation_stops_the_run_and_is_reported() {
        let mut p = ProgramBuilder::new();
        p.li(Reg::A0, 64);
        p.ecall(EcallNum::Malloc);
        p.ld(Reg::A1, Reg::A0, 64); // first byte past the buffer: redzone
        p.halt();
        let r = System::new(
            p.build(),
            SimConfig::isca2018(RtConfig::rest(Mode::Secure, false)),
        )
        .run();
        assert!(
            matches!(r.stop, StopReason::Violation(Violation::Rest(_))),
            "{:?}",
            r.stop
        );
        // The hardware detects it too — at the cache (token bit) or in
        // the LSQ (the allocator's arm may still be in flight, in which
        // case the forwarding rule fires instead).
        assert!(
            r.mem.rest_exceptions + r.core.lsq_rest_exceptions >= 1,
            "hardware detector must fire too"
        );
    }

    #[test]
    fn debug_mode_is_slower_than_secure() {
        let prog = || {
            let mut p = ProgramBuilder::new();
            let lp = p.new_label();
            p.li(Reg::S1, 100);
            p.bind(lp);
            p.li(Reg::A0, 512);
            p.ecall(EcallNum::Malloc);
            p.mv(Reg::A0, Reg::A0);
            p.ecall(EcallNum::Free);
            p.addi(Reg::S1, Reg::S1, -1);
            p.bne(Reg::S1, Reg::ZERO, lp);
            p.halt();
            p.build()
        };
        let secure = System::new(
            prog(),
            SimConfig::isca2018(RtConfig::rest(Mode::Secure, false)),
        )
        .run();
        let debug = System::new(
            prog(),
            SimConfig::isca2018(RtConfig::rest(Mode::Debug, false)),
        )
        .run();
        assert!(
            debug.cycles() > secure.cycles(),
            "debug {} vs secure {}",
            debug.cycles(),
            secure.cycles()
        );
        assert!(debug.core.rob_blocked_store_cycles > secure.core.rob_blocked_store_cycles);
    }

    #[test]
    fn perfect_hw_tracks_secure_closely() {
        let prog = || {
            let mut p = ProgramBuilder::new();
            let lp = p.new_label();
            p.li(Reg::S1, 100);
            p.bind(lp);
            p.li(Reg::A0, 256);
            p.ecall(EcallNum::Malloc);
            p.ecall(EcallNum::Free);
            p.addi(Reg::S1, Reg::S1, -1);
            p.bne(Reg::S1, Reg::ZERO, lp);
            p.halt();
            p.build()
        };
        let secure = System::new(
            prog(),
            SimConfig::isca2018(RtConfig::rest(Mode::Secure, false)),
        )
        .run();
        let perfect = System::new(prog(), SimConfig::isca2018(RtConfig::rest_perfect(false))).run();
        let ratio = secure.cycles() as f64 / perfect.cycles() as f64;
        assert!(
            (0.9..1.25).contains(&ratio),
            "REST hardware cost must be near zero: secure {} perfect {}",
            secure.cycles(),
            perfect.cycles()
        );
    }

    #[test]
    fn cpi_stack_sums_exactly_to_cycles() {
        for rt in [
            RtConfig::plain(),
            RtConfig::asan(),
            RtConfig::rest(Mode::Secure, false),
            RtConfig::rest(Mode::Debug, false),
        ] {
            let r = System::new(sum_loop_program(2_000), SimConfig::isca2018(rt)).run();
            assert_eq!(
                r.core.cpi.total(),
                r.core.cycles,
                "CPI stack must sum exactly to cycles for {}",
                r.label
            );
        }
    }

    #[test]
    fn interval_sampler_fires_on_exact_boundaries() {
        let mut cfg = SimConfig::isca2018(RtConfig::plain());
        cfg.sample_interval = 100;
        let r = System::new(sum_loop_program(1_000), cfg).run();
        let series = r.series.as_ref().expect("sampling was enabled");
        // 3 + 3*1000 = 3003 instructions → 30 samples at 100, 200, … 3000.
        assert_eq!(series.samples().len(), 30);
        for (i, s) in series.samples().iter().enumerate() {
            assert_eq!(s.insts, 100 * (i as u64 + 1));
            assert!(s.cycles > 0);
            assert_eq!(
                s.counters.len(),
                crate::stats::stats_map_parts(&r.core, &r.mem, &r.alloc).len()
            );
        }
        // Cycles and instruction counts are monotone over the run.
        for w in series.samples().windows(2) {
            assert!(w[0].cycles <= w[1].cycles);
            assert!(w[0].insts < w[1].insts);
        }
        assert_eq!(series.dropped(), 0);
    }

    #[test]
    fn sampling_off_yields_no_series() {
        let r = System::new(
            sum_loop_program(100),
            SimConfig::isca2018(RtConfig::plain()),
        )
        .run();
        assert!(r.series.is_none());
        assert!(r.audit.is_empty());
    }

    #[test]
    fn violation_lands_in_audit_log_with_provenance() {
        let mut p = ProgramBuilder::new();
        p.li(Reg::A0, 64);
        p.ecall(EcallNum::Malloc);
        p.ld(Reg::A1, Reg::A0, 64); // redzone
        p.halt();
        let r = System::new(
            p.build(),
            SimConfig::isca2018(RtConfig::rest(Mode::Secure, false)),
        )
        .run();
        assert!(!r.audit.is_empty());
        // The last entry is the architectural violation; before it come
        // any hardware (cache / LSQ) detections of the same event.
        let arch = r.audit.entries().last().unwrap();
        assert_eq!(arch.detector, "rest");
        assert_eq!(arch.mode, "secure");
        assert!(arch.pc != 0);
        assert!(r.audit.total() as usize >= r.audit.entries().len());
        let text = r.audit.render();
        assert!(text.contains("rest"), "{text}");
    }

    #[test]
    fn traced_uops_have_monotone_stage_timestamps() {
        let mut cfg = SimConfig::isca2018(RtConfig::rest(Mode::Secure, false));
        cfg.trace_uops = 64;
        let mut p = ProgramBuilder::new();
        let lp = p.new_label();
        p.li(Reg::S1, 8);
        p.bind(lp);
        p.li(Reg::A0, 64);
        p.ecall(EcallNum::Malloc);
        p.sd(Reg::S1, Reg::A0, 0);
        p.ld(Reg::T0, Reg::A0, 0);
        p.ecall(EcallNum::Free);
        p.addi(Reg::S1, Reg::S1, -1);
        p.bne(Reg::S1, Reg::ZERO, lp);
        p.halt();
        let r = System::new(p.build(), cfg).run();
        let trace = r.trace.as_ref().expect("tracing was enabled");
        assert_eq!(trace.entries().len(), 64);
        for e in trace.entries() {
            assert!(e.fetch <= e.dispatch, "{e:?}");
            assert!(e.dispatch <= e.issue, "{e:?}");
            assert!(e.issue <= e.complete, "{e:?}");
            assert!(e.complete <= e.commit, "{e:?}");
        }
        let doc = trace.to_perfetto();
        assert_eq!(doc.slice_count(), 64 * 5);
        rest_obs::Json::parse(&doc.render()).expect("perfetto export must parse");
    }

    #[test]
    fn deferred_mte_fault_from_direct_access_carries_the_access_pc() {
        use rest_core::MteMode;
        // malloc, free, then store through the dangling pointer: under
        // MTE-async the mismatch latches TFSR-style and surfaces in the
        // audit log at program stop — but the entry must carry the PC of
        // the *triggering store*, not the stop PC.
        let mut p = ProgramBuilder::new();
        p.li(Reg::A0, 64);
        p.ecall(EcallNum::Malloc);
        p.mv(Reg::S0, Reg::A0);
        p.ecall(EcallNum::Free);
        let store_idx = p.len() as u64;
        p.sd(Reg::T0, Reg::S0, 0);
        p.halt();
        let store_pc = Program::CODE_BASE + store_idx * rest_isa::PC_STEP;
        let r = System::new(
            p.build(),
            SimConfig::isca2018(RtConfig::mte(MteMode::Async)),
        )
        .run();
        assert_eq!(
            r.stop,
            StopReason::Halted,
            "async latch must not stop the run"
        );
        let e = r
            .audit
            .entries()
            .last()
            .expect("deferred fault in audit log");
        assert_eq!(e.detector, "mte-tagger");
        assert_eq!(e.pc, store_pc, "must be the store PC, not the stop PC");
        assert_eq!(e.component, "app");
    }

    #[test]
    fn deferred_mte_fault_from_an_ecall_carries_the_calling_guest_pc() {
        use rest_core::MteMode;
        // Same latch, but the mismatching access happens *inside* the
        // runtime (memcpy reading a freed source). The audit entry must
        // carry the guest PC of the memcpy ecall — the regression was
        // runtime checks reporting a fixed runtime pseudo-PC.
        let mut p = ProgramBuilder::new();
        p.li(Reg::A0, 64);
        p.ecall(EcallNum::Malloc);
        p.mv(Reg::S0, Reg::A0);
        p.li(Reg::A0, 64);
        p.ecall(EcallNum::Malloc);
        p.mv(Reg::S1, Reg::A0);
        p.mv(Reg::A0, Reg::S0);
        p.ecall(EcallNum::Free);
        p.mv(Reg::A0, Reg::S1); // dst: live
        p.mv(Reg::A1, Reg::S0); // src: dangling
        p.li(Reg::A2, 16);
        p.ecall(EcallNum::Memcpy);
        let ecall_idx = p.len() as u64 - 1;
        p.halt();
        let ecall_pc = Program::CODE_BASE + ecall_idx * rest_isa::PC_STEP;
        let r = System::new(
            p.build(),
            SimConfig::isca2018(RtConfig::mte(MteMode::Async)),
        )
        .run();
        assert_eq!(r.stop, StopReason::Halted);
        let e = r
            .audit
            .entries()
            .last()
            .expect("deferred fault in audit log");
        assert_eq!(e.detector, "mte-tagger");
        assert_eq!(
            e.pc, ecall_pc,
            "must be the ecall's guest PC, not a runtime pseudo-PC"
        );
    }

    fn profiled_heap_workload(rt: RtConfig) -> SimResult {
        let mut p = ProgramBuilder::new();
        let lp = p.new_label();
        p.li(Reg::S1, 50);
        p.bind(lp);
        p.li(Reg::A0, 128);
        p.ecall(EcallNum::Malloc);
        p.mv(Reg::S0, Reg::A0);
        let inner = p.new_label();
        p.li(Reg::T0, 0);
        p.bind(inner);
        p.add(Reg::T1, Reg::S0, Reg::T0);
        p.sd(Reg::T0, Reg::T1, 0);
        p.ld(Reg::T2, Reg::T1, 0);
        p.addi(Reg::T0, Reg::T0, 8);
        p.slti(Reg::T3, Reg::T0, 128);
        p.bne(Reg::T3, Reg::ZERO, inner);
        p.mv(Reg::A0, Reg::S0);
        p.ecall(EcallNum::Free);
        p.addi(Reg::S1, Reg::S1, -1);
        p.bne(Reg::S1, Reg::ZERO, lp);
        p.halt();
        let mut cfg = SimConfig::isca2018(rt);
        cfg.profile_guest = true;
        System::new(p.build(), cfg).run()
    }

    #[test]
    fn guest_profile_cycles_and_uops_sum_exactly_to_totals() {
        for rt in [
            RtConfig::plain(),
            RtConfig::asan(),
            RtConfig::rest(Mode::Secure, true),
        ] {
            let r = profiled_heap_workload(rt);
            assert_eq!(r.stop, StopReason::Halted);
            let prof = r.profile.as_ref().expect("profiling was enabled");
            assert_eq!(
                prof.cycles.total(),
                r.core.cycles,
                "per-PC cycles must sum exactly to core.cycles for {}",
                r.label
            );
            assert_eq!(
                prof.uops.total(),
                r.core.uops,
                "per-PC uops must sum exactly to core.uops for {}",
                r.label
            );
            // Every cycle lands on a real code PC: runtime splices are
            // charged to their calling instruction.
            assert_eq!(prof.cycles.other(), 0);
            assert_eq!(prof.uops.other(), 0);
        }
    }

    #[test]
    fn guest_profile_attributes_checks_to_allocation_sites() {
        use rest_core::MteMode;
        let r = profiled_heap_workload(RtConfig::mte(MteMode::Sync));
        let prof = r.profile.as_ref().expect("profiling was enabled");
        // The site table reconciles with the backend's own counter:
        // every backend check_access lands on exactly one site row.
        let site_checks: u64 = prof.sites.iter().map(|(_, c)| c.checks).sum();
        assert_eq!(site_checks, prof.backend_checks);
        assert!(prof.backend_checks > 0);
        // The malloc site exists and owns the loop's accesses.
        let (site_pc, counters) = prof
            .sites
            .iter()
            .find(|(pc, _)| *pc != 0)
            .expect("a real allocation site");
        assert!(*site_pc >= Program::CODE_BASE);
        assert_eq!(counters.allocs, 50);
        assert_eq!(counters.frees, 50);
        assert!(counters.checks > 0);
        // MTE tags pointers, so checked accesses canonicalise.
        assert!(counters.canonicalizations > 0);
        // Per-PC counters cover the program's direct accesses; the site
        // table additionally captures runtime-internal validations (the
        // hardened free's tag check), so it can only be larger.
        assert!(prof.checks.total() <= site_checks);
        // Injected check micro-ops are only ever emitted for direct
        // accesses, so those totals agree exactly.
        let site_uops: u64 = prof.sites.iter().map(|(_, c)| c.check_uops).sum();
        assert_eq!(prof.check_uops.total(), site_uops);
        assert!(site_uops > 0, "MTE sync injects a tag fetch per access");
    }

    #[test]
    fn profiling_does_not_perturb_the_simulated_machine() {
        let base = {
            let mut p = ProgramBuilder::new();
            p.li(Reg::A0, 64);
            p.ecall(EcallNum::Malloc);
            p.sd(Reg::A0, Reg::A0, 0);
            p.ecall(EcallNum::Free);
            p.halt();
            p.build()
        };
        let cfg = SimConfig::isca2018(RtConfig::rest(Mode::Secure, true));
        let plainr = System::new(base.clone(), cfg.clone()).run();
        let mut prof_cfg = cfg;
        prof_cfg.profile_guest = true;
        let profr = System::new(base, prof_cfg).run();
        assert_eq!(plainr.core.cycles, profr.core.cycles);
        assert_eq!(plainr.core.uops, profr.core.uops);
        assert_eq!(plainr.stats_map(), profr.stats_map());
    }

    #[test]
    fn output_and_exit_code_propagate() {
        let mut p = ProgramBuilder::new();
        p.li(Reg::A0, b'o' as i64);
        p.ecall(EcallNum::PutChar);
        p.li(Reg::A0, b'k' as i64);
        p.ecall(EcallNum::PutChar);
        p.li(Reg::A0, 7);
        p.ecall(EcallNum::Exit);
        let r = System::new(p.build(), SimConfig::isca2018(RtConfig::plain())).run();
        assert_eq!(r.stop, StopReason::Exit(7));
        assert_eq!(r.output, b"ok");
    }
}
