//! Exhaustive op equivalence: every instruction form, executed on the
//! Fast tier (op and template tables) and on the Reference tier (decode
//! on every fetch), must give the same registers, memory, stop reason
//! and micro-op stream — and the value the instruction's own semantics
//! (`AluOp::apply`, `BranchCond::eval`, sign extension) predict.

use rest_core::Mode;
use rest_cpu::{Emulator, ExecEngine, ExecTier, SimConfig, StopReason};
use rest_isa::{
    AluOp, BranchCond, DynInst, EcallNum, Inst, MemSize, Program, ProgramBuilder, Reg, PC_STEP,
};
use rest_runtime::RtConfig;

/// Data the memory forms read and write.
const DATA: u64 = 0x30_0000;
/// Bytes of `DATA` compared after each run.
const WINDOW: u64 = 128;

const ALU_OPS: [AluOp; 13] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Mul,
    AluOp::Div,
    AluOp::Rem,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Sll,
    AluOp::Srl,
    AluOp::Sra,
    AluOp::Slt,
    AluOp::Sltu,
];

const CONDS: [BranchCond; 6] = [
    BranchCond::Eq,
    BranchCond::Ne,
    BranchCond::Lt,
    BranchCond::Ge,
    BranchCond::Ltu,
    BranchCond::Geu,
];

const SIZES: [MemSize; 4] = [MemSize::B1, MemSize::B2, MemSize::B4, MemSize::B8];

/// Operand pairs covering signs, zero divisors, `i64::MIN / -1` and
/// shift amounts at and past 64.
const OPERANDS: [(i64, i64); 7] = [
    (7, 3),
    (-7, 2),
    (5, 0),
    (i64::MIN, -1),
    (1, 64),
    (-8, 65),
    (0x1234_5678, 0x1234_5678),
];

/// Everything observable about one run.
#[derive(Debug, PartialEq)]
struct Outcome {
    regs: Vec<u64>,
    data: Vec<u8>,
    stop: Option<StopReason>,
    insts: u64,
    uops: u64,
    pc: u64,
    stream: Vec<DynInst>,
}

fn run(program: &Program, rt: &RtConfig, tier: ExecTier) -> Outcome {
    let mut cfg = SimConfig::isca2018(rt.clone());
    cfg.tier = tier;
    let mut emu = Emulator::new(program.clone(), &cfg);
    let mut stream = Vec::new();
    while emu.step(&mut stream) {}
    let mut data = vec![0u8; WINDOW as usize];
    emu.mem.read_bytes(DATA, &mut data);
    let outcome = Outcome {
        regs: Reg::all().map(|r| emu.reg_value(r)).collect(),
        data,
        stop: emu.take_stop(),
        insts: emu.insts(),
        uops: emu.uops(),
        pc: emu.pc(),
        stream,
    };
    assert_eq!(outcome.uops, outcome.stream.len() as u64);

    // The counting path retires the same instructions and micro-ops.
    let mut quiet = Emulator::new(program.clone(), &cfg);
    let stop = quiet.run_functional().cloned();
    assert_eq!(stop, outcome.stop, "{tier:?} counting run");
    assert_eq!((quiet.insts(), quiet.uops()), (outcome.insts, outcome.uops));
    outcome
}

/// Runs `program` on both tiers, asserts they agree, and returns the
/// Fast tier's outcome for semantic checks.
fn both_tiers(program: &Program, rt: &RtConfig, what: &str) -> Outcome {
    let fast = run(program, rt, ExecTier::Fast);
    let reference = run(program, rt, ExecTier::Reference);
    assert_eq!(fast, reference, "{what}: Fast and Reference tiers differ");
    fast
}

/// `li a1, a; li a2, b; li t0, DATA; <body>; halt`, with the data window
/// preloaded with bytes whose top bits are set (so sign extension shows).
fn program(a: i64, b: i64, body: impl FnOnce(&mut ProgramBuilder)) -> Program {
    let mut p = ProgramBuilder::new();
    p.data_segment(
        DATA,
        (0..WINDOW).map(|i| 0x80 | i as u8).collect::<Vec<_>>(),
    );
    p.li(Reg::A1, a);
    p.li(Reg::A2, b);
    p.li(Reg::T0, DATA as i64);
    body(&mut p);
    p.halt();
    p.build()
}

fn plain() -> RtConfig {
    RtConfig::plain()
}

#[test]
fn alu_forms_match_their_semantics_on_both_tiers() {
    for op in ALU_OPS {
        for (a, b) in OPERANDS {
            let want = op.apply(a as u64, b as u64);
            for dst in [Reg::A0, Reg::ZERO, Reg::A1] {
                let what = format!("{} {dst} <- {a}, {b}", op.mnemonic());
                let reg = program(a, b, |p| {
                    p.push(Inst::Alu {
                        op,
                        dst,
                        src1: Reg::A1,
                        src2: Reg::A2,
                    });
                });
                let out = both_tiers(&reg, &plain(), &what);
                let expect = if dst.is_zero() { 0 } else { want };
                assert_eq!(out.regs[dst.index()], expect, "{what}");
                assert_eq!(out.stop, Some(StopReason::Halted), "{what}");

                let imm = program(a, 0, |p| {
                    p.push(Inst::AluImm {
                        op,
                        dst,
                        src: Reg::A1,
                        imm: b,
                    });
                });
                let out = both_tiers(&imm, &plain(), &format!("{what} (imm)"));
                assert_eq!(out.regs[dst.index()], expect, "{what} (imm)");
            }
        }
    }
}

#[test]
fn li_and_nop_match_on_both_tiers() {
    for dst in [Reg::A0, Reg::ZERO] {
        let p = program(0, 0, |p| {
            p.push(Inst::Li { dst, imm: -5 });
            p.push(Inst::Nop);
        });
        let out = both_tiers(&p, &plain(), "li/nop");
        let expect = if dst.is_zero() { 0 } else { (-5i64) as u64 };
        assert_eq!(out.regs[dst.index()], expect);
        assert_eq!(out.insts, 3 + 2 + 1);
    }
}

#[test]
fn load_forms_match_their_semantics_on_both_tiers() {
    for size in SIZES {
        for signed in [false, true] {
            for dst in [Reg::A0, Reg::ZERO] {
                let offset = 8;
                let p = program(0, 0, |p| {
                    p.push(Inst::Load {
                        dst,
                        base: Reg::T0,
                        offset,
                        size,
                        signed,
                    });
                });
                let what = format!("load {size} signed={signed} into {dst}");
                let out = both_tiers(&p, &plain(), &what);
                let n = size.bytes() as usize;
                let mut raw = [0u8; 8];
                for (i, byte) in raw.iter_mut().enumerate().take(n) {
                    *byte = 0x80 | (offset as u8 + i as u8);
                }
                let raw = u64::from_le_bytes(raw);
                let want = if signed && n < 8 {
                    let shift = 64 - 8 * n as u32;
                    (((raw << shift) as i64) >> shift) as u64
                } else {
                    raw
                };
                let expect = if dst.is_zero() { 0 } else { want };
                assert_eq!(out.regs[dst.index()], expect, "{what}");
                let mem = out.stream.iter().find_map(|u| u.mem).expect("load uop");
                assert_eq!((mem.addr, mem.size), (DATA + 8, size.bytes()), "{what}");
            }
        }
    }
}

#[test]
fn store_forms_match_their_semantics_on_both_tiers() {
    for size in SIZES {
        let p = program(0x1122_3344_5566_7788, 0, |p| {
            p.push(Inst::Store {
                src: Reg::A1,
                base: Reg::T0,
                offset: 16,
                size,
            });
        });
        let what = format!("store {size}");
        let out = both_tiers(&p, &plain(), &what);
        let n = size.bytes() as usize;
        let stored = 0x1122_3344_5566_7788u64.to_le_bytes();
        assert_eq!(&out.data[16..16 + n], &stored[..n], "{what}");
        assert_eq!(
            out.data[16 + n],
            0x80 | (16 + n) as u8,
            "{what}: past the store"
        );
    }
}

#[test]
fn branch_conditions_match_their_semantics_on_both_tiers() {
    for cond in CONDS {
        for (a, b) in [(1i64, 2i64), (2, 1), (-1, 1), (3, 3)] {
            let p = program(a, b, |p| {
                let skip = p.new_label();
                p.push(Inst::Branch {
                    cond,
                    src1: Reg::A1,
                    src2: Reg::A2,
                    target: skip,
                });
                p.li(Reg::A0, 1);
                p.bind(skip);
            });
            let what = format!("{} {a}, {b}", cond.mnemonic());
            let out = both_tiers(&p, &plain(), &what);
            let taken = cond.eval(a as u64, b as u64);
            assert_eq!(out.regs[Reg::A0.index()], u64::from(!taken), "{what}");
            let br = out
                .stream
                .iter()
                .find_map(|u| u.branch)
                .expect("branch uop");
            assert_eq!(br.taken, taken, "{what}");
            let branch_pc = Program::CODE_BASE + 3 * PC_STEP;
            let next = if taken {
                branch_pc + 2 * PC_STEP
            } else {
                branch_pc + PC_STEP
            };
            assert_eq!(br.target, next, "{what}");
        }
    }
}

#[test]
fn jumps_match_on_both_tiers() {
    // jal over one instruction, linking into ra (a call) and into x0.
    for dst in [Reg::RA, Reg::ZERO] {
        let p = program(0, 0, |p| {
            let over = p.new_label();
            p.push(Inst::Jal { dst, target: over });
            p.li(Reg::A0, 1);
            p.bind(over);
        });
        let out = both_tiers(&p, &plain(), &format!("jal {dst}"));
        assert_eq!(out.regs[Reg::A0.index()], 0);
        let expect = if dst.is_zero() {
            0
        } else {
            Program::CODE_BASE + 4 * PC_STEP
        };
        assert_eq!(out.regs[dst.index()], expect);
    }
    // jalr whose base is also its destination: the target is read first.
    let target = Program::CODE_BASE + 6 * PC_STEP;
    let p = program(target as i64 - 8, 0, |p| {
        p.push(Inst::Jalr {
            dst: Reg::A1,
            base: Reg::A1,
            offset: 8,
        });
        p.li(Reg::A0, 1);
        p.li(Reg::A0, 2);
    });
    let out = both_tiers(&p, &plain(), "jalr a1, 8(a1)");
    assert_eq!(out.regs[Reg::A0.index()], 0);
    assert_eq!(out.regs[Reg::A1.index()], Program::CODE_BASE + 4 * PC_STEP);
    let br = out.stream.iter().find_map(|u| u.branch).expect("jalr uop");
    assert_eq!((br.taken, br.target), (true, target));
}

#[test]
fn bad_and_misaligned_pcs_fault_identically_on_both_tiers() {
    for target in [
        Program::CODE_BASE + 2,
        Program::CODE_BASE + 4096 * PC_STEP,
        0,
    ] {
        let p = program(target as i64, 0, |p| {
            p.push(Inst::Jalr {
                dst: Reg::ZERO,
                base: Reg::A1,
                offset: 0,
            });
        });
        let out = both_tiers(&p, &plain(), &format!("jump to {target:#x}"));
        assert_eq!(
            out.stop,
            Some(StopReason::Fault(format!("bad pc {target:#x}")))
        );
        assert_eq!(out.pc, target);
        assert_eq!(out.insts, 4);
    }
}

#[test]
fn arm_disarm_ecall_and_halt_match_on_both_tiers() {
    let schemes = [
        RtConfig::rest(Mode::Secure, true),
        RtConfig::rest(Mode::Debug, true),
        RtConfig::rest_perfect(true),
        RtConfig::asan(),
        plain(),
    ];
    for rt in &schemes {
        let what = rt.label();
        // arm then disarm a token-aligned slot, then touch it.
        let p = program(0, 0, |p| {
            p.push(Inst::Arm { addr: Reg::T0 });
            p.push(Inst::Disarm { addr: Reg::T0 });
            p.ld(Reg::A0, Reg::T0, 0);
        });
        both_tiers(&p, rt, &format!("{what}: arm/disarm"));
        // a load from an armed slot, and a misaligned arm.
        let p = program(0, 0, |p| {
            p.push(Inst::Arm { addr: Reg::T0 });
            p.ld(Reg::A0, Reg::T0, 0);
        });
        both_tiers(&p, rt, &format!("{what}: load of armed slot"));
        let p = program(0, 0, |p| {
            p.addi(Reg::T0, Reg::T0, 1);
            p.push(Inst::Arm { addr: Reg::T0 });
        });
        both_tiers(&p, rt, &format!("{what}: misaligned arm"));
        // malloc, a store into the block and one past its end.
        let p = program(0, 0, |p| {
            p.li(Reg::A0, 24);
            p.ecall(EcallNum::Malloc);
            p.sd(Reg::A0, Reg::A0, 0);
            p.sd(Reg::A0, Reg::A0, 24);
        });
        both_tiers(&p, rt, &format!("{what}: malloc and overflow"));
        // an unknown service number, and exit.
        let p = program(0, 0, |p| {
            p.li(Reg::A7, 99);
            p.push(Inst::Ecall);
        });
        let out = both_tiers(&p, rt, &format!("{what}: unknown ecall"));
        assert_eq!(out.stop, Some(StopReason::Fault("unknown ecall 99".into())));
        let p = program(0, 0, |p| {
            p.li(Reg::A0, 3);
            p.ecall(EcallNum::Exit);
        });
        let out = both_tiers(&p, rt, &format!("{what}: exit"));
        assert_eq!(out.stop, Some(StopReason::Exit(3)));
    }
}

#[test]
fn budgets_stop_both_tiers_at_the_same_instruction() {
    let p = program(0, 0, |p| {
        let top = p.label_here();
        p.addi(Reg::A0, Reg::A0, 1);
        p.j(top);
    });
    for (max_uops, max_cycles) in [(0, 0), (1, 0), (50, 0), (1_000, 40), (40, 1_000), (64, 64)] {
        for tier in [ExecTier::Fast, ExecTier::Reference] {
            let mut cfg = SimConfig::isca2018(plain());
            cfg.tier = tier;
            cfg.max_uops = max_uops;
            cfg.max_cycles = max_cycles;
            let mut emu = Emulator::new(p.clone(), &cfg);
            let mut stream = Vec::new();
            while emu.step(&mut stream) {}
            let cap = if max_cycles > 0 {
                max_uops.min(max_cycles)
            } else {
                max_uops
            };
            assert_eq!(emu.uops(), cap, "{tier:?} {max_uops}/{max_cycles}");
            let want = if max_uops <= cap {
                StopReason::UopLimit
            } else {
                StopReason::CycleLimit
            };
            assert_eq!(
                emu.take_stop(),
                Some(want),
                "{tier:?} {max_uops}/{max_cycles}"
            );
            // Taken: the engine stays stopped and run_functional says so.
            assert!(!emu.step_quiet());
            assert_eq!(emu.run_functional(), None);
        }
    }
}
