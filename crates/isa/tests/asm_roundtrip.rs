//! Property test: any program built through the `ProgramBuilder` API
//! serialises to assembly text that re-parses into an equivalent
//! program (instruction-for-instruction, with branch targets compared by
//! resolved PC).

#![cfg(feature = "proptest")]

use proptest::prelude::*;

use rest_isa::{parse_asm, AluOp, BranchCond, Inst, MemSize, Program, ProgramBuilder, Reg};

/// A generatable instruction template (labels handled separately).
#[derive(Debug, Clone)]
enum Tpl {
    Alu(AluOp, u8, u8, u8),
    AluImm(AluOp, u8, u8, i64),
    Li(u8, i64),
    Load(u8, u8, i64, MemSize, bool),
    Store(u8, u8, i64, MemSize),
    Arm(u8),
    Disarm(u8),
    Nop,
    BranchBack(u8, u8),            // beq to the program start
    BranchFwd(BranchCond, u8, u8), // any condition, to the program end
    Call(u8),                      // jal to the program end (forward label)
    Jump,                          // jal zero to the program end
    Jalr(u8, u8, i64),             // indirect jump/return form
    Ecall,
}

fn alu_op() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::Mul),
        Just(AluOp::Div),
        Just(AluOp::Rem),
        Just(AluOp::And),
        Just(AluOp::Or),
        Just(AluOp::Xor),
        Just(AluOp::Sll),
        Just(AluOp::Srl),
        Just(AluOp::Sra),
        Just(AluOp::Slt),
        Just(AluOp::Sltu),
    ]
}

fn mem_size() -> impl Strategy<Value = MemSize> {
    prop_oneof![
        Just(MemSize::B1),
        Just(MemSize::B2),
        Just(MemSize::B4),
        Just(MemSize::B8)
    ]
}

fn branch_cond() -> impl Strategy<Value = BranchCond> {
    prop_oneof![
        Just(BranchCond::Eq),
        Just(BranchCond::Ne),
        Just(BranchCond::Lt),
        Just(BranchCond::Ge),
        Just(BranchCond::Ltu),
        Just(BranchCond::Geu),
    ]
}

fn tpl() -> impl Strategy<Value = Tpl> {
    prop_oneof![
        (alu_op(), 0u8..32, 0u8..32, 0u8..32).prop_map(|(o, d, a, b)| Tpl::Alu(o, d, a, b)),
        (alu_op(), 0u8..32, 0u8..32, -4096i64..4096)
            .prop_map(|(o, d, s, i)| Tpl::AluImm(o, d, s, i)),
        (0u8..32, any::<i64>()).prop_map(|(d, i)| Tpl::Li(d, i)),
        (0u8..32, 0u8..32, -256i64..256, mem_size(), any::<bool>())
            .prop_map(|(d, b, o, sz, sg)| Tpl::Load(d, b, o, sz, sg)),
        (0u8..32, 0u8..32, -256i64..256, mem_size())
            .prop_map(|(s, b, o, sz)| Tpl::Store(s, b, o, sz)),
        (0u8..32).prop_map(Tpl::Arm),
        (0u8..32).prop_map(Tpl::Disarm),
        Just(Tpl::Nop),
        (0u8..32, 0u8..32).prop_map(|(a, b)| Tpl::BranchBack(a, b)),
        (branch_cond(), 0u8..32, 0u8..32).prop_map(|(c, a, b)| Tpl::BranchFwd(c, a, b)),
        (0u8..32).prop_map(Tpl::Call),
        Just(Tpl::Jump),
        (0u8..32, 0u8..32, -256i64..256).prop_map(|(d, b, o)| Tpl::Jalr(d, b, o)),
        Just(Tpl::Ecall),
    ]
}

fn build(tpls: &[Tpl]) -> Program {
    let mut p = ProgramBuilder::new();
    let start = p.label_here();
    let end = p.new_label();
    for t in tpls {
        match *t {
            Tpl::Alu(op, d, a, b) => {
                p.push(Inst::Alu {
                    op,
                    dst: Reg::new(d),
                    src1: Reg::new(a),
                    src2: Reg::new(b),
                });
            }
            Tpl::AluImm(op, d, s, imm) => {
                p.push(Inst::AluImm {
                    op,
                    dst: Reg::new(d),
                    src: Reg::new(s),
                    imm,
                });
            }
            Tpl::Li(d, imm) => {
                p.li(Reg::new(d), imm);
            }
            Tpl::Load(d, b, off, size, signed) => {
                p.push(Inst::Load {
                    dst: Reg::new(d),
                    base: Reg::new(b),
                    offset: off,
                    size,
                    signed,
                });
            }
            Tpl::Store(s, b, off, size) => {
                p.push(Inst::Store {
                    src: Reg::new(s),
                    base: Reg::new(b),
                    offset: off,
                    size,
                });
            }
            Tpl::Arm(r) => {
                p.arm(Reg::new(r));
            }
            Tpl::Disarm(r) => {
                p.disarm(Reg::new(r));
            }
            Tpl::Nop => {
                p.nop();
            }
            Tpl::BranchBack(a, b) => {
                p.beq(Reg::new(a), Reg::new(b), start);
            }
            Tpl::BranchFwd(cond, a, b) => {
                p.push(Inst::Branch {
                    cond,
                    src1: Reg::new(a),
                    src2: Reg::new(b),
                    target: end,
                });
            }
            Tpl::Call(d) => {
                p.push(Inst::Jal {
                    dst: Reg::new(d),
                    target: end,
                });
            }
            Tpl::Jump => {
                p.j(end);
            }
            Tpl::Jalr(d, b, off) => {
                p.jalr(Reg::new(d), Reg::new(b), off);
            }
            Tpl::Ecall => {
                p.ecall_raw();
            }
        }
    }
    p.bind(end);
    p.halt();
    p.build()
}

fn normalize(p: &Program) -> Vec<String> {
    p.instructions()
        .iter()
        .map(|inst| match *inst {
            Inst::Branch {
                cond,
                src1,
                src2,
                target,
            } => format!(
                "{} {src1},{src2} -> {:#x}",
                cond.mnemonic(),
                p.label_pc(target)
            ),
            Inst::Jal { dst, target } => format!("jal {dst} -> {:#x}", p.label_pc(target)),
            other => format!("{other}"),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_programs_round_trip(tpls in prop::collection::vec(tpl(), 0..80)) {
        let prog = build(&tpls);
        let text = prog.to_asm();
        let reparsed = parse_asm(&text)
            .unwrap_or_else(|e| panic!("serialised text failed to parse: {e}\n{text}"));
        prop_assert_eq!(normalize(&prog), normalize(&reparsed));
        // Serialisation is a fixed point after one round.
        prop_assert_eq!(text, reparsed.to_asm());
    }
}

#[test]
fn empty_program_round_trips() {
    let prog = ProgramBuilder::new().build();
    let again = parse_asm(&prog.to_asm()).unwrap();
    assert_eq!(again.len(), 0);
}
