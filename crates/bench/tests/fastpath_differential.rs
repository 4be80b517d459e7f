//! Differential gate for the execution tiers: the fast path (decode
//! once, replay templates), the superblock-trace tier (fused hot-loop
//! dispatch), and the reference path (re-decode every fetch) must be
//! architecturally indistinguishable — identical micro-op streams,
//! stats maps, violation logs, and program output — across every
//! benchmark row (micro-op streams under plain, ASan and
//! rest-secure-full) and every attack scenario.

use rest_attacks::Attack;
use rest_bench::engine::{Guest, SimJob};
use rest_bench::{figure_rows, stack_for};
use rest_core::Mode;
use rest_cpu::{Emulator, ExecEngine, ExecTier, SimConfig, StopReason};
use rest_isa::{DynInst, Program};
use rest_runtime::{RtConfig, StackScheme};
use rest_workloads::{Scale, WorkloadParams};

fn emulator(program: Program, rt: RtConfig, tier: ExecTier) -> Emulator {
    let mut cfg = SimConfig::isca2018(rt);
    cfg.tier = tier;
    Emulator::new(program, &cfg)
}

/// Drives a trace-tier, a fast-path, and a reference-path emulator over
/// the same program in lockstep, asserting the materialised micro-op
/// streams match chunk for chunk, and returns the (identical) stop
/// reason. The trace side decides each chunk size (a superblock pass
/// may retire a whole loop iteration at once); the per-step tiers
/// follow with exactly that many instructions.
fn lockstep(label: &str, program: Program, rt: RtConfig) -> StopReason {
    let mut trace = emulator(program.clone(), rt.clone(), ExecTier::Trace);
    let mut fast = emulator(program.clone(), rt.clone(), ExecTier::Fast);
    let mut reference = emulator(program, rt, ExecTier::Reference);

    let (mut t, mut f, mut r): (Vec<DynInst>, Vec<DynInst>, Vec<DynInst>) =
        (Vec::new(), Vec::new(), Vec::new());
    loop {
        t.clear();
        f.clear();
        r.clear();
        let ran = trace.run_chunk(&mut t, 1);
        if ran == 0 {
            assert!(!fast.step(&mut f), "{label}: fast path kept running");
            assert!(
                !reference.step(&mut r),
                "{label}: reference path kept running"
            );
            break;
        }
        let fast_ran = fast.run_chunk(&mut f, ran);
        let reference_ran = reference.run_chunk(&mut r, ran);
        assert_eq!(ran, fast_ran, "{label}: fast path fell behind");
        assert_eq!(ran, reference_ran, "{label}: reference path fell behind");
        assert_eq!(
            t,
            f,
            "{label}: trace-vs-fast micro-op streams diverge at inst {} (pc {:#x})",
            fast.insts(),
            fast.pc()
        );
        assert_eq!(
            t,
            r,
            "{label}: trace-vs-reference micro-op streams diverge at inst {} (pc {:#x})",
            reference.insts(),
            reference.pc()
        );
        assert_eq!(trace.pc(), fast.pc(), "{label}: PCs diverge");
    }
    for (tier, e) in [("fast", &fast), ("reference", &reference)] {
        assert_eq!(trace.insts(), e.insts(), "{label}: {tier} retired counts");
        assert_eq!(trace.uops(), e.uops(), "{label}: {tier} micro-op counts");
        assert_eq!(
            trace.rt_pc_cursor(),
            e.rt_pc_cursor(),
            "{label}: {tier} synthetic-PC cursors"
        );
    }
    let trace_stop = trace.take_stop().expect("trace tier stopped");
    let fast_stop = fast.take_stop().expect("fast path stopped");
    let reference_stop = reference.take_stop().expect("reference path stopped");
    assert_eq!(trace_stop, fast_stop, "{label}: trace-vs-fast stop reasons");
    assert_eq!(fast_stop, reference_stop, "{label}: stop reasons");
    assert_eq!(
        trace.runtime().output(),
        reference.runtime().output(),
        "{label}: program output"
    );
    trace_stop
}

#[test]
fn workload_rows_produce_identical_uop_streams() {
    let rows = figure_rows();
    assert_eq!(rows.len(), 16, "figure corpus is 16 rows");
    // No protection, the heaviest instrumentation (ASan injects uops
    // per access) and the paper's headline REST configuration.
    let configs = [
        RtConfig::plain(),
        RtConfig::asan(),
        RtConfig::rest(Mode::Secure, true),
    ];
    for row in rows {
        for rt in &configs {
            let label = format!("{} {}", row.name, rt.label());
            let params = WorkloadParams {
                scale: Scale::Test,
                stack_scheme: stack_for(rt),
                token_width: rt.token_width,
                seed: row.seed,
            };
            let stop = lockstep(&label, row.workload.build(&params), rt.clone());
            assert_eq!(stop, StopReason::Exit(0), "{label}: clean exit");
        }
    }
}

#[test]
fn workload_rows_produce_identical_stats_maps() {
    for row in figure_rows() {
        let rt = RtConfig::rest(Mode::Secure, true);
        let on = |tier: ExecTier| {
            let mut job = SimJob::new(&row, tier.label(), rt.clone(), Scale::Test);
            job.cfg.tier = tier;
            job.execute()
                .unwrap_or_else(|e| panic!("{} {} tier: {e}", row.name, tier.label()))
        };
        let fast = on(ExecTier::Fast);
        let trace = on(ExecTier::Trace);
        let reference = on(ExecTier::Reference);
        for (tier, result) in [("trace", &trace), ("reference", &reference)] {
            assert_eq!(
                fast.stats_map(),
                result.stats_map(),
                "{}: {tier} stats maps diverge",
                row.name
            );
            assert_eq!(
                fast.audit, result.audit,
                "{}: {tier} violation logs",
                row.name
            );
            assert_eq!(
                fast.output, result.output,
                "{}: {tier} program output",
                row.name
            );
            assert_eq!(fast.stop, result.stop, "{}: {tier} stop reasons", row.name);
        }
    }
}

#[test]
fn plain_core_kind_matches_on_all_tiers() {
    // The in-order core shares the emulator; spot-check it too.
    let row = figure_rows().into_iter().next().unwrap();
    let on = |tier| {
        let cfg = SimConfig {
            tier,
            ..SimConfig::inorder(RtConfig::plain())
        };
        SimJob::on(Guest::Workload(row), "plain", cfg, Scale::Test)
            .execute()
            .unwrap()
    };
    let fast = on(ExecTier::Fast);
    for tier in [ExecTier::Trace, ExecTier::Reference] {
        let other = on(tier);
        assert_eq!(fast.stats_map(), other.stats_map(), "{tier:?}");
    }
}

#[test]
fn attacks_detect_identically_on_all_tiers() {
    for attack in Attack::ALL {
        let rt = RtConfig::rest(Mode::Secure, true);
        let stop = lockstep(attack.name(), attack.build(StackScheme::Rest), rt);
        // Whatever each scenario does — violate, exit, leak — every
        // tier must agree; detection parity is the point, not outcome.
        match stop {
            StopReason::Violation(_) | StopReason::Exit(_) | StopReason::Halted => {}
            other => panic!("{attack}: unexpected stop {other:?}"),
        }
    }
}

/// Satellite: the three *consumer idioms* — `step` (timing loop),
/// `step_quiet` (functional fast path), `run_functional` (whole-run
/// driver) — must observe identical architectural state on the same
/// tier, over every attack scenario. This pins the stop-handling
/// contract the consumers rely on when they mix idioms.
#[test]
fn step_idioms_agree_over_every_attack() {
    for attack in Attack::ALL {
        for tier in [ExecTier::Fast, ExecTier::Trace] {
            let rt = RtConfig::rest(Mode::Secure, true);
            let program = attack.build(StackScheme::Rest);
            let label = format!("{} ({tier:?})", attack.name());

            let mut stepped = emulator(program.clone(), rt.clone(), tier);
            let mut buf: Vec<DynInst> = Vec::new();
            while stepped.step(&mut buf) {
                buf.clear();
            }

            let mut quiet = emulator(program.clone(), rt.clone(), tier);
            while quiet.step_quiet() {}

            let mut functional = emulator(program, rt, tier);
            functional.run_functional();

            for (idiom, e) in [("step_quiet", &quiet), ("run_functional", &functional)] {
                assert_eq!(stepped.insts(), e.insts(), "{label}: {idiom} insts");
                assert_eq!(stepped.uops(), e.uops(), "{label}: {idiom} uops");
                assert_eq!(stepped.pc(), e.pc(), "{label}: {idiom} final pc");
                assert_eq!(
                    stepped.rt_pc_cursor(),
                    e.rt_pc_cursor(),
                    "{label}: {idiom} synthetic-PC cursor"
                );
                assert_eq!(
                    stepped.runtime().output(),
                    e.runtime().output(),
                    "{label}: {idiom} output"
                );
                assert_eq!(
                    stepped.runtime().allocator().stats(),
                    e.runtime().allocator().stats(),
                    "{label}: {idiom} allocator stats"
                );
            }
            let stop = stepped.take_stop().expect("stopped");
            assert_eq!(stop, quiet.take_stop().expect("stopped"), "{label}: stop");
            assert_eq!(
                stop,
                functional.take_stop().expect("stopped"),
                "{label}: stop"
            );
            let deferred = stepped.take_deferred();
            assert_eq!(
                deferred,
                quiet.take_deferred(),
                "{label}: deferred violation"
            );
            assert_eq!(
                deferred,
                functional.take_deferred(),
                "{label}: deferred violation"
            );
        }
    }
}
