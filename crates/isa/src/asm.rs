//! Textual assembler and serialiser for the mini-ISA.
//!
//! [`parse_asm`] turns assembly text into a [`Program`];
//! [`Program::to_asm`] renders a program back into parseable text, so
//! programs round-trip losslessly (modulo label names). The syntax is
//! RISC-V-flavoured:
//!
//! ```text
//! # comments with '#', ';' or '//'
//! .data 0x8000 de,ad,be,ef      ; initial data segment
//!
//! main:
//!     li   a0, 64
//!     ecall malloc              ; or: ecall 1
//!     mv   s0, a0
//!     sd   zero, 0(s0)
//!     ld   a1, 0(s0)
//!     beq  a1, zero, done
//!     arm  s0
//! done:
//!     halt
//! ```
//!
//! # Example
//!
//! ```
//! use rest_isa::parse_asm;
//!
//! let prog = parse_asm("
//!     li t0, 10
//! loop:
//!     addi t0, t0, -1
//!     bne t0, zero, loop
//!     halt
//! ").unwrap();
//! assert_eq!(prog.len(), 4);
//! ```

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::inst::{AluOp, BranchCond, EcallNum, Inst, MemSize};
use crate::program::{Label, Program, ProgramBuilder};
use crate::reg::Reg;
use crate::PC_STEP;

/// An assembly syntax error, with the 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "asm error on line {}: {}", self.line, self.message)
    }
}

impl Error for AsmError {}

fn err(line: usize, message: impl Into<String>) -> AsmError {
    AsmError {
        line,
        message: message.into(),
    }
}

/// Parses a register by ABI name (`a0`, `sp`, …) or index form (`x7`).
fn parse_reg(tok: &str, line: usize) -> Result<Reg, AsmError> {
    if let Some(n) = tok.strip_prefix('x') {
        if let Ok(i) = n.parse::<u8>() {
            if (i as usize) < Reg::COUNT {
                return Ok(Reg::new(i));
            }
        }
    }
    Reg::all()
        .find(|r| r.abi_name() == tok)
        .ok_or_else(|| err(line, format!("unknown register '{tok}'")))
}

/// Parses a decimal or `0x` immediate, optionally negative.
fn parse_imm(tok: &str, line: usize) -> Result<i64, AsmError> {
    let (neg, body) = match tok.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, tok),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        u64::from_str_radix(&hex.replace('_', ""), 16)
            .map_err(|_| err(line, format!("bad hex immediate '{tok}'")))? as i64
    } else {
        body.replace('_', "")
            .parse::<i64>()
            .map_err(|_| err(line, format!("bad immediate '{tok}'")))?
    };
    Ok(if neg { -v } else { v })
}

/// Parses a `offset(base)` memory operand.
fn parse_mem_operand(tok: &str, line: usize) -> Result<(i64, Reg), AsmError> {
    let open = tok
        .find('(')
        .ok_or_else(|| err(line, format!("expected offset(base), got '{tok}'")))?;
    if !tok.ends_with(')') {
        return Err(err(line, format!("unclosed memory operand '{tok}'")));
    }
    let off_str = &tok[..open];
    let base_str = &tok[open + 1..tok.len() - 1];
    let offset = if off_str.is_empty() {
        0
    } else {
        parse_imm(off_str, line)?
    };
    Ok((offset, parse_reg(base_str, line)?))
}

fn ecall_name(n: EcallNum) -> &'static str {
    match n {
        EcallNum::Malloc => "malloc",
        EcallNum::Free => "free",
        EcallNum::Memcpy => "memcpy",
        EcallNum::Memset => "memset",
        EcallNum::Exit => "exit",
        EcallNum::PutChar => "putchar",
        EcallNum::Sbrk => "sbrk",
        EcallNum::Calloc => "calloc",
        EcallNum::Realloc => "realloc",
    }
}

fn parse_ecall_num(tok: &str, line: usize) -> Result<EcallNum, AsmError> {
    for n in [
        EcallNum::Malloc,
        EcallNum::Free,
        EcallNum::Memcpy,
        EcallNum::Memset,
        EcallNum::Exit,
        EcallNum::PutChar,
        EcallNum::Sbrk,
        EcallNum::Calloc,
        EcallNum::Realloc,
    ] {
        if ecall_name(n) == tok {
            return Ok(n);
        }
    }
    let v = parse_imm(tok, line)? as u64;
    EcallNum::from_u64(v).ok_or_else(|| err(line, format!("unknown ecall '{tok}'")))
}

struct Parser {
    builder: ProgramBuilder,
    labels: HashMap<String, Label>,
}

impl Parser {
    fn label_for(&mut self, name: &str) -> Label {
        if let Some(&l) = self.labels.get(name) {
            return l;
        }
        let l = self.builder.new_label();
        self.labels.insert(name.to_string(), l);
        l
    }
}

/// Assembles `src` into a [`Program`].
///
/// # Errors
///
/// Returns an [`AsmError`] naming the offending line for unknown
/// mnemonics/registers, malformed operands, wrong operand counts,
/// duplicate label definitions, or references to labels never defined.
pub fn parse_asm(src: &str) -> Result<Program, AsmError> {
    let mut p = Parser {
        builder: ProgramBuilder::new(),
        labels: HashMap::new(),
    };
    let mut defined: HashMap<String, usize> = HashMap::new();
    let mut referenced: HashMap<String, usize> = HashMap::new();

    for (idx, raw) in src.lines().enumerate() {
        let line_no = idx + 1;
        // Strip comments.
        let mut text = raw;
        for marker in ["#", ";", "//"] {
            if let Some(pos) = text.find(marker) {
                text = &text[..pos];
            }
        }
        let text = text.trim();
        if text.is_empty() {
            continue;
        }

        // Directives.
        if let Some(rest) = text.strip_prefix(".data") {
            let mut parts = rest.trim().splitn(2, char::is_whitespace);
            let addr_tok = parts
                .next()
                .filter(|s| !s.is_empty())
                .ok_or_else(|| err(line_no, ".data needs an address"))?;
            let addr = parse_imm(addr_tok, line_no)? as u64;
            let bytes_tok = parts
                .next()
                .ok_or_else(|| err(line_no, ".data needs bytes"))?;
            let mut bytes = Vec::new();
            for b in bytes_tok.split(',') {
                let b = b.trim();
                if b.is_empty() {
                    continue;
                }
                bytes.push(
                    u8::from_str_radix(b, 16)
                        .map_err(|_| err(line_no, format!("bad data byte '{b}'")))?,
                );
            }
            p.builder.data_segment(addr, bytes);
            continue;
        }

        // Label definition (possibly followed by an instruction).
        let mut text = text;
        while let Some(colon) = text.find(':') {
            let (name, rest) = text.split_at(colon);
            let name = name.trim();
            if name.is_empty() || name.contains(char::is_whitespace) {
                break; // not a label — let instruction parsing complain
            }
            if let Some(first) = defined.insert(name.to_string(), line_no) {
                return Err(err(
                    line_no,
                    format!("label '{name}' defined twice (first defined on line {first})"),
                ));
            }
            let l = p.label_for(name);
            p.builder.bind(l);
            p.builder.symbol(name);
            text = rest[1..].trim();
            if text.is_empty() {
                break;
            }
        }
        if text.is_empty() {
            continue;
        }

        // Instruction: mnemonic + comma-separated operands.
        let (mnemonic, ops_str) = match text.find(char::is_whitespace) {
            Some(pos) => (&text[..pos], text[pos..].trim()),
            None => (text, ""),
        };
        let ops: Vec<&str> = if ops_str.is_empty() {
            Vec::new()
        } else {
            ops_str.split(',').map(str::trim).collect()
        };
        let want = |n: usize| -> Result<(), AsmError> {
            if ops.len() == n {
                Ok(())
            } else {
                Err(err(
                    line_no,
                    format!("'{mnemonic}' expects {n} operands, got {}", ops.len()),
                ))
            }
        };

        let alu3 = |op: AluOp, p: &mut Parser, ops: &[&str]| -> Result<(), AsmError> {
            p.builder.push(Inst::Alu {
                op,
                dst: parse_reg(ops[0], line_no)?,
                src1: parse_reg(ops[1], line_no)?,
                src2: parse_reg(ops[2], line_no)?,
            });
            Ok(())
        };
        let alui = |op: AluOp, p: &mut Parser, ops: &[&str]| -> Result<(), AsmError> {
            p.builder.push(Inst::AluImm {
                op,
                dst: parse_reg(ops[0], line_no)?,
                src: parse_reg(ops[1], line_no)?,
                imm: parse_imm(ops[2], line_no)?,
            });
            Ok(())
        };
        let load =
            |size: MemSize, signed: bool, p: &mut Parser, ops: &[&str]| -> Result<(), AsmError> {
                let (offset, base) = parse_mem_operand(ops[1], line_no)?;
                p.builder.push(Inst::Load {
                    dst: parse_reg(ops[0], line_no)?,
                    base,
                    offset,
                    size,
                    signed,
                });
                Ok(())
            };
        let store = |size: MemSize, p: &mut Parser, ops: &[&str]| -> Result<(), AsmError> {
            let (offset, base) = parse_mem_operand(ops[1], line_no)?;
            p.builder.push(Inst::Store {
                src: parse_reg(ops[0], line_no)?,
                base,
                offset,
                size,
            });
            Ok(())
        };
        let branch = |cond: BranchCond,
                      p: &mut Parser,
                      ops: &[&str],
                      referenced: &mut HashMap<String, usize>|
         -> Result<(), AsmError> {
            let src1 = parse_reg(ops[0], line_no)?;
            let src2 = parse_reg(ops[1], line_no)?;
            referenced.entry(ops[2].to_string()).or_insert(line_no);
            let target = p.label_for(ops[2]);
            p.builder.push(Inst::Branch {
                cond,
                src1,
                src2,
                target,
            });
            Ok(())
        };

        match mnemonic {
            "add" => want(3).and_then(|_| alu3(AluOp::Add, &mut p, &ops))?,
            "sub" => want(3).and_then(|_| alu3(AluOp::Sub, &mut p, &ops))?,
            "mul" => want(3).and_then(|_| alu3(AluOp::Mul, &mut p, &ops))?,
            "div" => want(3).and_then(|_| alu3(AluOp::Div, &mut p, &ops))?,
            "rem" => want(3).and_then(|_| alu3(AluOp::Rem, &mut p, &ops))?,
            "and" => want(3).and_then(|_| alu3(AluOp::And, &mut p, &ops))?,
            "or" => want(3).and_then(|_| alu3(AluOp::Or, &mut p, &ops))?,
            "xor" => want(3).and_then(|_| alu3(AluOp::Xor, &mut p, &ops))?,
            "sll" => want(3).and_then(|_| alu3(AluOp::Sll, &mut p, &ops))?,
            "srl" => want(3).and_then(|_| alu3(AluOp::Srl, &mut p, &ops))?,
            "sra" => want(3).and_then(|_| alu3(AluOp::Sra, &mut p, &ops))?,
            "slt" => want(3).and_then(|_| alu3(AluOp::Slt, &mut p, &ops))?,
            "sltu" => want(3).and_then(|_| alu3(AluOp::Sltu, &mut p, &ops))?,
            "addi" => want(3).and_then(|_| alui(AluOp::Add, &mut p, &ops))?,
            "subi" => want(3).and_then(|_| alui(AluOp::Sub, &mut p, &ops))?,
            "muli" => want(3).and_then(|_| alui(AluOp::Mul, &mut p, &ops))?,
            "divi" => want(3).and_then(|_| alui(AluOp::Div, &mut p, &ops))?,
            "remi" => want(3).and_then(|_| alui(AluOp::Rem, &mut p, &ops))?,
            "andi" => want(3).and_then(|_| alui(AluOp::And, &mut p, &ops))?,
            "ori" => want(3).and_then(|_| alui(AluOp::Or, &mut p, &ops))?,
            "xori" => want(3).and_then(|_| alui(AluOp::Xor, &mut p, &ops))?,
            "slli" => want(3).and_then(|_| alui(AluOp::Sll, &mut p, &ops))?,
            "srli" => want(3).and_then(|_| alui(AluOp::Srl, &mut p, &ops))?,
            "srai" => want(3).and_then(|_| alui(AluOp::Sra, &mut p, &ops))?,
            "slti" => want(3).and_then(|_| alui(AluOp::Slt, &mut p, &ops))?,
            "sltui" => want(3).and_then(|_| alui(AluOp::Sltu, &mut p, &ops))?,
            "li" => {
                want(2)?;
                let dst = parse_reg(ops[0], line_no)?;
                let imm = parse_imm(ops[1], line_no)?;
                p.builder.push(Inst::Li { dst, imm });
            }
            "mv" => {
                want(2)?;
                let dst = parse_reg(ops[0], line_no)?;
                let src = parse_reg(ops[1], line_no)?;
                p.builder.mv(dst, src);
            }
            "ld" | "ld8" | "ld8u" => {
                want(2).and_then(|_| load(MemSize::B8, false, &mut p, &ops))?
            }
            "ld4" | "ld4u" | "lw" => {
                want(2).and_then(|_| load(MemSize::B4, false, &mut p, &ops))?
            }
            "ld2" | "ld2u" | "lh" => {
                want(2).and_then(|_| load(MemSize::B2, false, &mut p, &ops))?
            }
            "ld1" | "ld1u" | "lb" => {
                want(2).and_then(|_| load(MemSize::B1, false, &mut p, &ops))?
            }
            "ld8s" => want(2).and_then(|_| load(MemSize::B8, true, &mut p, &ops))?,
            "ld4s" | "lws" => want(2).and_then(|_| load(MemSize::B4, true, &mut p, &ops))?,
            "ld2s" | "lhs" => want(2).and_then(|_| load(MemSize::B2, true, &mut p, &ops))?,
            "ld1s" | "lbs" => want(2).and_then(|_| load(MemSize::B1, true, &mut p, &ops))?,
            "sd" | "st8" => want(2).and_then(|_| store(MemSize::B8, &mut p, &ops))?,
            "sw" | "st4" => want(2).and_then(|_| store(MemSize::B4, &mut p, &ops))?,
            "sh" | "st2" => want(2).and_then(|_| store(MemSize::B2, &mut p, &ops))?,
            "sb" | "st1" => want(2).and_then(|_| store(MemSize::B1, &mut p, &ops))?,
            "beq" => want(3).and_then(|_| branch(BranchCond::Eq, &mut p, &ops, &mut referenced))?,
            "bne" => want(3).and_then(|_| branch(BranchCond::Ne, &mut p, &ops, &mut referenced))?,
            "blt" => want(3).and_then(|_| branch(BranchCond::Lt, &mut p, &ops, &mut referenced))?,
            "bge" => want(3).and_then(|_| branch(BranchCond::Ge, &mut p, &ops, &mut referenced))?,
            "bltu" => {
                want(3).and_then(|_| branch(BranchCond::Ltu, &mut p, &ops, &mut referenced))?
            }
            "bgeu" => {
                want(3).and_then(|_| branch(BranchCond::Geu, &mut p, &ops, &mut referenced))?
            }
            "j" => {
                want(1)?;
                referenced.entry(ops[0].to_string()).or_insert(line_no);
                let target = p.label_for(ops[0]);
                p.builder.push(Inst::Jal {
                    dst: Reg::ZERO,
                    target,
                });
            }
            "call" => {
                want(1)?;
                referenced.entry(ops[0].to_string()).or_insert(line_no);
                let target = p.label_for(ops[0]);
                p.builder.push(Inst::Jal {
                    dst: Reg::RA,
                    target,
                });
            }
            "jal" => {
                want(2)?;
                let dst = parse_reg(ops[0], line_no)?;
                referenced.entry(ops[1].to_string()).or_insert(line_no);
                let target = p.label_for(ops[1]);
                p.builder.push(Inst::Jal { dst, target });
            }
            "jalr" => {
                want(2)?;
                let dst = parse_reg(ops[0], line_no)?;
                let (offset, base) = parse_mem_operand(ops[1], line_no)?;
                p.builder.push(Inst::Jalr { dst, base, offset });
            }
            "ret" => {
                want(0)?;
                p.builder.ret();
            }
            "arm" => {
                want(1)?;
                let addr = parse_reg(ops[0], line_no)?;
                p.builder.push(Inst::Arm { addr });
            }
            "disarm" => {
                want(1)?;
                let addr = parse_reg(ops[0], line_no)?;
                p.builder.push(Inst::Disarm { addr });
            }
            "ecall" => match ops.len() {
                0 => {
                    p.builder.ecall_raw();
                }
                1 => {
                    let n = parse_ecall_num(ops[0], line_no)?;
                    p.builder.ecall(n);
                }
                _ => return Err(err(line_no, "'ecall' takes 0 or 1 operands")),
            },
            "halt" => {
                want(0)?;
                p.builder.halt();
            }
            "nop" => {
                want(0)?;
                p.builder.nop();
            }
            other => return Err(err(line_no, format!("unknown mnemonic '{other}'"))),
        }
    }

    // Every referenced label must be defined. Report the earliest
    // offending reference (ties broken by name) so the error is
    // deterministic regardless of map iteration order.
    if let Some((name, line)) = referenced
        .iter()
        .filter(|(name, _)| !defined.contains_key(*name))
        .min_by_key(|(name, line)| (**line, (*name).clone()))
    {
        return Err(err(*line, format!("label '{name}' is never defined")));
    }
    Ok(p.builder.build())
}

impl Program {
    /// Renders the program as assembly text that [`parse_asm`] accepts,
    /// generating `L_<pc>` labels at branch/jump targets. Data segments
    /// are emitted as `.data` directives.
    pub fn to_asm(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        for (base, bytes) in self.data_segments() {
            let hex: Vec<String> = bytes.iter().map(|b| format!("{b:02x}")).collect();
            let _ = writeln!(out, ".data {base:#x} {}", hex.join(","));
        }
        // Collect branch-target PCs.
        let mut targets = std::collections::BTreeSet::new();
        for inst in self.instructions() {
            match *inst {
                Inst::Branch { target, .. } | Inst::Jal { target, .. } => {
                    targets.insert(self.label_pc(target));
                }
                _ => {}
            }
        }
        for (i, inst) in self.instructions().iter().enumerate() {
            let pc = Self::CODE_BASE + i as u64 * PC_STEP;
            if targets.contains(&pc) {
                let _ = writeln!(out, "L_{pc:x}:");
            }
            // Only control-flow targets differ from `Display`: they
            // print as `L_<pc>` labels, not `.L<id>`.
            let _ = match *inst {
                Inst::Branch {
                    cond,
                    src1,
                    src2,
                    target,
                } => writeln!(
                    out,
                    "    {} {src1}, {src2}, L_{:x}",
                    cond.mnemonic(),
                    self.label_pc(target)
                ),
                Inst::Jal { dst, target } => {
                    writeln!(out, "    jal {dst}, L_{:x}", self.label_pc(target))
                }
                _ => writeln!(out, "    {inst}"),
            };
        }
        // Targets past the last instruction (e.g. a jump to the end).
        let end_pc = Self::CODE_BASE + self.len() as u64 * PC_STEP;
        if targets.contains(&end_pc) {
            let _ = writeln!(out, "L_{end_pc:x}:");
            let _ = writeln!(out, "    nop");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Renders instructions with branch targets resolved to PCs, so two
    /// programs compare equal regardless of label-id assignment.
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

    #[test]
    fn parses_the_doc_example() {
        let prog = parse_asm(
            "
            # a tiny heap program
            .data 0x8000 de,ad
            main:
                li   a0, 64
                ecall malloc
                mv   s0, a0
                sd   zero, 0(s0)
                ld   a1, 0(s0)
                beq  a1, zero, done
                arm  s0
            done:
                halt
            ",
        )
        .unwrap();
        assert_eq!(prog.len(), 9); // ecall expands to li a7 + ecall
        assert_eq!(prog.data_segments(), &[(0x8000, vec![0xde, 0xad])]);
        assert_eq!(prog.symbol_at(prog.entry()), Some("main"));
    }

    #[test]
    fn forward_and_backward_labels() {
        let prog = parse_asm(
            "
            start: addi t0, t0, 1
                   blt t0, t1, start
                   j end
                   nop
            end:   halt
            ",
        )
        .unwrap();
        assert_eq!(prog.len(), 5);
    }

    #[test]
    fn label_on_same_line_as_instruction() {
        let prog = parse_asm("loop: addi t0, t0, -1\n bne t0, zero, loop\n halt").unwrap();
        assert_eq!(prog.len(), 3);
    }

    #[test]
    fn register_index_form_and_hex_immediates() {
        let prog = parse_asm("li x10, 0x40\n addi x10, x10, -0x10\n halt").unwrap();
        assert_eq!(prog.len(), 3);
        assert_eq!(
            prog.fetch(prog.entry()),
            Some(Inst::Li {
                dst: Reg::A0,
                imm: 0x40
            })
        );
    }

    #[test]
    fn error_reporting_names_the_line() {
        let e = parse_asm("nop\n bogus t0, t1\n halt").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));

        let e = parse_asm("addi t0, t9, 1").unwrap_err();
        assert!(e.message.contains("t9"));

        let e = parse_asm("beq t0, t1, nowhere").unwrap_err();
        assert!(e.message.contains("never defined"));

        let e = parse_asm("x: nop\nx: nop").unwrap_err();
        assert!(e.message.contains("defined twice"));

        let e = parse_asm("add t0, t1").unwrap_err();
        assert!(e.message.contains("expects 3"));
    }

    #[test]
    fn duplicate_label_error_names_both_lines() {
        let e = parse_asm("nop\nx: nop\nnop\nx: halt").unwrap_err();
        assert_eq!(e.line, 4, "error is anchored at the re-definition");
        assert!(
            e.message.contains("first defined on line 2"),
            "message should point at the first definition: {}",
            e.message
        );
    }

    #[test]
    fn undefined_label_error_is_deterministic() {
        // Several undefined labels: the diagnostic must consistently
        // pick the earliest reference, whatever the map iteration order.
        let src = "beq t0, t1, zeta\nbeq t0, t1, alpha\nbeq t0, t1, mid\nhalt";
        for _ in 0..16 {
            let e = parse_asm(src).unwrap_err();
            assert_eq!(e.line, 1);
            assert!(e.message.contains("'zeta'"), "got: {}", e.message);
        }
        // Earliest reference wins even when a lexicographically smaller
        // name appears later.
        let e = parse_asm("j beta\nj alpha\nhalt").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("'beta'"), "got: {}", e.message);
    }

    #[test]
    fn all_load_store_widths_parse() {
        let prog = parse_asm(
            "lb a0, 0(sp)\n lh a0, 2(sp)\n lw a0, 4(sp)\n ld a0, 8(sp)
             ld1s a0, 0(sp)\n ld2s a0, 0(sp)\n ld4s a0, 0(sp)
             sb a0, 0(sp)\n sh a0, 0(sp)\n sw a0, 0(sp)\n sd a0, 0(sp)\n halt",
        )
        .unwrap();
        assert_eq!(prog.len(), 12);
    }

    #[test]
    fn ecall_by_name_and_number_agree() {
        let by_name = parse_asm("ecall exit").unwrap();
        let by_num = parse_asm("ecall 5").unwrap();
        assert_eq!(by_name.instructions(), by_num.instructions());
    }

    #[test]
    fn round_trip_preserves_instructions() {
        let src = "
            .data 0x9000 01,02,03
            main:
                li   s0, 0x30000
                li   t0, 8
            loop:
                sd   t0, 0(s0)
                addi t0, t0, -1
                arm  s0
                disarm s0
                bne  t0, zero, loop
                call fn
                j    done
            fn: ret
            done:
                ecall exit
            ";
        let first = parse_asm(src).unwrap();
        let text = first.to_asm();
        let second = parse_asm(&text).unwrap();
        assert_eq!(normalize(&first), normalize(&second));
        assert_eq!(first.data_segments(), second.data_segments());
        // And a third generation is a fixed point.
        assert_eq!(text, second.to_asm());
    }

    #[test]
    fn to_asm_emits_trailing_target_label() {
        // A jump to the very end of the program must round-trip.
        let prog = parse_asm("halt\nj end\nend: halt").unwrap();
        let text = prog.to_asm();
        let again = parse_asm(&text).unwrap();
        assert_eq!(prog.len(), again.len());
    }

    #[test]
    fn comments_in_all_styles() {
        let prog = parse_asm("nop # hash\n nop ; semicolon\n nop // slashes\n halt").unwrap();
        assert_eq!(prog.len(), 4);
    }
}
