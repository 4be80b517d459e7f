//! Edge-case tests for the out-of-order timing model: structural stalls,
//! the serialisation ablation, REST LSQ rules under adversarial op
//! orders, and front-end behaviour on large code footprints.

use rest_core::{Mode, MteMode};
use rest_cpu::{CoreConfig, SimConfig, StopReason, System};
use rest_isa::{EcallNum, ProgramBuilder, Reg};
use rest_runtime::RtConfig;

fn arm_disarm_loop(iters: i64) -> rest_isa::Program {
    let mut p = ProgramBuilder::new();
    p.li(Reg::S0, 0x30_0000);
    let lp = p.new_label();
    p.li(Reg::S1, iters);
    p.bind(lp);
    p.arm(Reg::S0);
    p.disarm(Reg::S0);
    p.addi(Reg::S1, Reg::S1, -1);
    p.bne(Reg::S1, Reg::ZERO, lp);
    p.halt();
    p.build()
}

#[test]
fn serializing_rest_ops_is_much_slower() {
    let fast = System::new(
        arm_disarm_loop(500),
        SimConfig::isca2018(RtConfig::rest(Mode::Secure, true)),
    )
    .run();
    let mut cfg = SimConfig::isca2018(RtConfig::rest(Mode::Secure, true));
    cfg.core.serialize_rest_ops = true;
    let slow = System::new(arm_disarm_loop(500), cfg).run();
    assert_eq!(fast.stop, StopReason::Halted);
    assert_eq!(slow.stop, StopReason::Halted);
    assert!(
        slow.cycles() as f64 > fast.cycles() as f64 * 1.5,
        "serialisation must hurt: {} vs {}",
        slow.cycles(),
        fast.cycles()
    );
}

#[test]
fn store_to_inflight_arm_is_flagged_by_the_lsq() {
    // A store racing an in-flight arm to the same line triggers the
    // Table I store rule. (Architecturally the emulator reports the
    // violation; the LSQ stat confirms the hardware path fired too.)
    let mut p = ProgramBuilder::new();
    p.li(Reg::S0, 0x30_0000);
    p.arm(Reg::S0);
    p.li(Reg::T0, 1);
    p.sd(Reg::T0, Reg::S0, 8);
    p.halt();
    let r = System::new(
        p.build(),
        SimConfig::isca2018(RtConfig::rest(Mode::Secure, true)),
    )
    .run();
    assert!(matches!(r.stop, StopReason::Violation(_)));
    assert!(r.core.lsq_rest_exceptions + r.mem.rest_exceptions >= 1);
}

#[test]
fn large_code_footprint_stalls_the_front_end() {
    // A straight-line program much bigger than a few I-cache lines:
    // fetch must record I-cache stalls on cold lines.
    let mut p = ProgramBuilder::new();
    for i in 0..4000 {
        p.addi(Reg::T0, Reg::T0, i % 7);
    }
    p.halt();
    let r = System::new(p.build(), SimConfig::isca2018(RtConfig::plain())).run();
    assert!(r.core.fetch_stall_cycles > 0);
    assert_eq!(r.stop, StopReason::Halted);
}

#[test]
fn inorder_core_is_slower_than_ooo() {
    let prog = || {
        let mut p = ProgramBuilder::new();
        let lp = p.new_label();
        p.li(Reg::S1, 2000);
        p.bind(lp);
        // Independent work an OoO core can overlap.
        p.ld(Reg::T0, Reg::GP, 0);
        p.addi(Reg::T1, Reg::T1, 1);
        p.mul(Reg::T2, Reg::T1, Reg::T1);
        p.addi(Reg::S1, Reg::S1, -1);
        p.bne(Reg::S1, Reg::ZERO, lp);
        p.halt();
        p.build()
    };
    let ooo = System::new(prog(), SimConfig::isca2018(RtConfig::plain())).run();
    let ino = System::new(prog(), SimConfig::inorder(RtConfig::plain())).run();
    assert!(
        ino.cycles() as f64 > ooo.cycles() as f64 * 2.0,
        "in-order {} vs OoO {}",
        ino.cycles(),
        ooo.cycles()
    );
}

#[test]
fn sq_pressure_shows_up_in_lsq_stalls() {
    // A long burst of stores to distinct lines (all misses in debug
    // mode, where drains gate SQ reuse) must hit the SQ-occupancy limit.
    let mut p = ProgramBuilder::new();
    let lp = p.new_label();
    p.li(Reg::S0, 0x40_0000);
    p.li(Reg::S1, 300);
    p.bind(lp);
    p.sd(Reg::S1, Reg::S0, 0);
    p.addi(Reg::S0, Reg::S0, 64);
    p.addi(Reg::S1, Reg::S1, -1);
    p.bne(Reg::S1, Reg::ZERO, lp);
    p.halt();
    let r = System::new(
        p.build(),
        SimConfig::isca2018(RtConfig::rest(Mode::Debug, false)),
    )
    .run();
    assert!(r.core.lsq_stall_cycles > 0, "SQ pressure must register");
}

#[test]
fn call_ret_chains_predict_well() {
    // Nested call/ret: the RAS should keep mispredictions low.
    let mut p = ProgramBuilder::new();
    let f = p.new_label();
    let lp = p.new_label();
    p.li(Reg::S1, 500);
    p.bind(lp);
    p.call(f);
    p.addi(Reg::S1, Reg::S1, -1);
    p.bne(Reg::S1, Reg::ZERO, lp);
    p.halt();
    p.bind(f);
    p.addi(Reg::T0, Reg::T0, 1);
    p.ret();
    let r = System::new(p.build(), SimConfig::isca2018(RtConfig::plain())).run();
    let rate = r.core.branch_mispredicts as f64 / r.core.branch_lookups.max(1) as f64;
    assert!(rate < 0.05, "call/ret mispredict rate {rate:.3}");
}

#[test]
fn heap_runtime_traffic_counts_toward_components() {
    let mut p = ProgramBuilder::new();
    p.li(Reg::A0, 256);
    p.ecall(EcallNum::Malloc);
    p.ecall(EcallNum::Free);
    p.halt();
    let r = System::new(
        p.build(),
        SimConfig::isca2018(RtConfig::rest(Mode::Secure, false)),
    )
    .run();
    // Component 1 (allocator) uops must be attributed.
    let alloc_uops = r.core.uops_by_component[1];
    assert!(alloc_uops > 10, "allocator uops: {alloc_uops}");
    // And they are a strict subset of all uops.
    assert!(alloc_uops < r.core.uops);
}

#[test]
fn narrow_core_config_is_respected() {
    let mut cfg = SimConfig::isca2018(RtConfig::plain());
    cfg.core = CoreConfig {
        fetch_width: 1,
        issue_width: 1,
        commit_width: 1,
        ..CoreConfig::isca2018()
    };
    let mut p = ProgramBuilder::new();
    for _ in 0..1000 {
        p.nop();
    }
    p.halt();
    let r = System::new(p.build(), cfg).run();
    // 1-wide commit: at least one cycle per uop.
    assert!(r.cycles() >= r.core.uops);
}

#[test]
fn accesses_ending_at_the_top_of_the_address_space_run_under_every_scheme() {
    // Each access's last byte is u64::MAX: no end computation may
    // overflow (a host panic in debug builds), and the load still
    // forwards from the store before it, which a wrapped end cannot.
    let prog = || {
        let mut p = ProgramBuilder::new();
        p.li(Reg::S0, -8);
        p.li(Reg::T0, 7);
        p.sd(Reg::T0, Reg::S0, 0);
        p.ld(Reg::T1, Reg::S0, 0);
        p.sd(Reg::T1, Reg::S0, 0);
        p.halt();
        p.build()
    };
    for rt in [
        RtConfig::plain(),
        RtConfig::asan(),
        RtConfig::rest(Mode::Secure, true),
        RtConfig::rest(Mode::Debug, true),
        RtConfig::rest_perfect(true),
        RtConfig::mte(MteMode::Sync),
        RtConfig::mte(MteMode::Async),
    ] {
        let label = rt.label();
        let r = System::new(prog(), SimConfig::isca2018(rt)).run();
        assert!(
            matches!(
                r.stop,
                StopReason::Halted | StopReason::Violation(_) | StopReason::Fault(_)
            ),
            "{label}: {:?}",
            r.stop
        );
        if r.stop == StopReason::Halted {
            assert!(r.core.store_forwards >= 1, "{label}: the load must forward");
        }
    }
}
