use std::fmt;

use crate::program::Label;
use crate::reg::Reg;

/// Width of a scalar memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemSize {
    /// 1 byte.
    B1,
    /// 2 bytes.
    B2,
    /// 4 bytes.
    B4,
    /// 8 bytes.
    B8,
}

impl MemSize {
    /// Access width in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            MemSize::B1 => 1,
            MemSize::B2 => 2,
            MemSize::B4 => 4,
            MemSize::B8 => 8,
        }
    }
}

impl fmt::Display for MemSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}b", self.bytes())
    }
}

/// Integer ALU operation, used by both register-register and
/// register-immediate instruction forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    Add,
    Sub,
    Mul,
    /// Signed division; division by zero yields `-1` (all ones), matching
    /// RISC-V semantics, rather than trapping.
    Div,
    /// Signed remainder; remainder by zero yields the dividend.
    Rem,
    And,
    Or,
    Xor,
    /// Logical shift left (shift amount taken modulo 64).
    Sll,
    /// Logical shift right (shift amount taken modulo 64).
    Srl,
    /// Arithmetic shift right (shift amount taken modulo 64).
    Sra,
    /// Set-less-than, signed: `dst = (src1 < src2) as u64`.
    Slt,
    /// Set-less-than, unsigned.
    Sltu,
}

impl AluOp {
    /// Applies the operation to two 64-bit operands. Inlined so that a
    /// caller passing a constant operation compiles to that one arm.
    #[inline]
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if b == 0 {
                    u64::MAX
                } else {
                    ((a as i64).wrapping_div(b as i64)) as u64
                }
            }
            AluOp::Rem => {
                if b == 0 {
                    a
                } else {
                    ((a as i64).wrapping_rem(b as i64)) as u64
                }
            }
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Sll => a.wrapping_shl(b as u32 & 63),
            AluOp::Srl => a.wrapping_shr(b as u32 & 63),
            AluOp::Sra => ((a as i64).wrapping_shr(b as u32 & 63)) as u64,
            AluOp::Slt => ((a as i64) < (b as i64)) as u64,
            AluOp::Sltu => (a < b) as u64,
        }
    }

    /// Mnemonic for disassembly.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
            AluOp::Rem => "rem",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Sll => "sll",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
        }
    }
}

/// Condition of a conditional branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    Eq,
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned less-than.
    Ltu,
    /// Unsigned greater-or-equal.
    Geu,
}

impl BranchCond {
    /// Evaluates the condition on two 64-bit operands (inlined like
    /// [`AluOp::apply`]).
    #[inline]
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => (a as i64) < (b as i64),
            BranchCond::Ge => (a as i64) >= (b as i64),
            BranchCond::Ltu => a < b,
            BranchCond::Geu => a >= b,
        }
    }

    /// Mnemonic for disassembly.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BranchCond::Eq => "beq",
            BranchCond::Ne => "bne",
            BranchCond::Lt => "blt",
            BranchCond::Ge => "bge",
            BranchCond::Ltu => "bltu",
            BranchCond::Geu => "bgeu",
        }
    }
}

/// Runtime-service numbers for [`Inst::Ecall`].
///
/// The service number is passed in `a7`; arguments in `a0..a5`; the
/// result, if any, in `a0`. These model the program/runtime boundary the
/// paper relies on: heap allocation goes through the active allocator
/// (libc-style, ASan, or REST), and bulk data-movement calls model the
/// `libc` routines that ASan intercepts (its overhead component 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u64)]
pub enum EcallNum {
    /// `a0 = malloc(a0)`. Returns null (0) on exhaustion.
    Malloc = 1,
    /// `free(a0)`.
    Free = 2,
    /// `memcpy(dst=a0, src=a1, len=a2)`; models the libc call that ASan
    /// intercepts for checking.
    Memcpy = 3,
    /// `memset(dst=a0, byte=a1, len=a2)`.
    Memset = 4,
    /// Terminate the program with exit code `a0`.
    Exit = 5,
    /// Append the low byte of `a0` to the program's output buffer.
    PutChar = 6,
    /// `a0 = sbrk(a0)`: grow the flat data break (used by workload
    /// initialisation to obtain large static arrays without the heap).
    Sbrk = 7,
    /// `a0 = calloc(nmemb=a0, size=a1)`; zeroes the allocation.
    Calloc = 8,
    /// `a0 = realloc(ptr=a0, new_size=a1)`.
    Realloc = 9,
}

impl EcallNum {
    /// Decodes a service number from the value of `a7`.
    pub fn from_u64(v: u64) -> Option<EcallNum> {
        Some(match v {
            1 => EcallNum::Malloc,
            2 => EcallNum::Free,
            3 => EcallNum::Memcpy,
            4 => EcallNum::Memset,
            5 => EcallNum::Exit,
            6 => EcallNum::PutChar,
            7 => EcallNum::Sbrk,
            8 => EcallNum::Calloc,
            9 => EcallNum::Realloc,
            _ => None?,
        })
    }
}

/// One instruction of the mini-ISA.
///
/// Branch and jump targets are expressed as [`Label`]s while a program is
/// being built; [`crate::ProgramBuilder::build`] resolves them to absolute
/// PCs and rejects unbound labels, so an executable [`crate::Program`]
/// never contains dangling targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst {
    /// `dst = src1 <op> src2`.
    Alu {
        op: AluOp,
        dst: Reg,
        src1: Reg,
        src2: Reg,
    },
    /// `dst = src <op> imm`.
    AluImm {
        op: AluOp,
        dst: Reg,
        src: Reg,
        imm: i64,
    },
    /// Load a 64-bit immediate: `dst = imm`.
    Li { dst: Reg, imm: i64 },
    /// `dst = mem[base + offset]`, zero- or sign-extended to 64 bits.
    Load {
        dst: Reg,
        base: Reg,
        offset: i64,
        size: MemSize,
        signed: bool,
    },
    /// `mem[base + offset] = src` (low `size` bytes).
    Store {
        src: Reg,
        base: Reg,
        offset: i64,
        size: MemSize,
    },
    /// Conditional PC-relative branch to `target`.
    Branch {
        cond: BranchCond,
        src1: Reg,
        src2: Reg,
        target: Label,
    },
    /// Direct call/jump: `dst = pc + 4; pc = target`.
    Jal { dst: Reg, target: Label },
    /// Indirect jump: `dst = pc + 4; pc = base + offset`.
    Jalr { dst: Reg, base: Reg, offset: i64 },
    /// REST `arm`: store the secret token at the (token-width-aligned)
    /// address in `addr`. Functionally a wide store; never forwards its
    /// value to younger loads.
    Arm { addr: Reg },
    /// REST `disarm`: overwrite the token at the aligned address in
    /// `addr` with zeroes. Raises a REST exception if the location does
    /// not currently hold a token.
    Disarm { addr: Reg },
    /// Runtime-service call; service number in `a7` (see [`EcallNum`]).
    Ecall,
    /// Stop the program successfully.
    Halt,
    /// No operation.
    Nop,
}

impl Inst {
    /// Whether the instruction reads or writes data memory (including
    /// `arm`/`disarm`, which are stores microarchitecturally).
    pub fn is_mem(self) -> bool {
        matches!(
            self,
            Inst::Load { .. } | Inst::Store { .. } | Inst::Arm { .. } | Inst::Disarm { .. }
        )
    }

    /// Whether the instruction can redirect control flow.
    pub fn is_control(self) -> bool {
        matches!(
            self,
            Inst::Branch { .. } | Inst::Jal { .. } | Inst::Jalr { .. }
        )
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Inst::Alu {
                op,
                dst,
                src1,
                src2,
            } => {
                write!(f, "{} {dst}, {src1}, {src2}", op.mnemonic())
            }
            Inst::AluImm { op, dst, src, imm } => {
                write!(f, "{}i {dst}, {src}, {imm}", op.mnemonic())
            }
            Inst::Li { dst, imm } => write!(f, "li {dst}, {imm}"),
            Inst::Load {
                dst,
                base,
                offset,
                size,
                signed,
            } => {
                let s = if signed { "s" } else { "u" };
                write!(f, "ld{}{s} {dst}, {offset}({base})", size.bytes())
            }
            Inst::Store {
                src,
                base,
                offset,
                size,
            } => write!(f, "st{} {src}, {offset}({base})", size.bytes()),
            Inst::Branch {
                cond,
                src1,
                src2,
                target,
            } => write!(f, "{} {src1}, {src2}, {target}", cond.mnemonic()),
            Inst::Jal { dst, target } => write!(f, "jal {dst}, {target}"),
            Inst::Jalr { dst, base, offset } => write!(f, "jalr {dst}, {offset}({base})"),
            Inst::Arm { addr } => write!(f, "arm {addr}"),
            Inst::Disarm { addr } => write!(f, "disarm {addr}"),
            Inst::Ecall => f.write_str("ecall"),
            Inst::Halt => f.write_str("halt"),
            Inst::Nop => f.write_str("nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_semantics() {
        assert_eq!(AluOp::Add.apply(3, 4), 7);
        assert_eq!(AluOp::Sub.apply(3, 4), u64::MAX); // wraps
        assert_eq!(AluOp::Mul.apply(1 << 40, 1 << 40), 0); // wraps
        assert_eq!(AluOp::Div.apply(7, 2), 3);
        assert_eq!(AluOp::Div.apply((-7i64) as u64, 2), (-3i64) as u64);
        assert_eq!(AluOp::Div.apply(7, 0), u64::MAX);
        assert_eq!(AluOp::Rem.apply(7, 0), 7);
        assert_eq!(AluOp::Sra.apply((-8i64) as u64, 1), (-4i64) as u64);
        assert_eq!(AluOp::Srl.apply((-8i64) as u64, 1), (u64::MAX - 7) >> 1);
        assert_eq!(AluOp::Slt.apply((-1i64) as u64, 0), 1);
        assert_eq!(AluOp::Sltu.apply((-1i64) as u64, 0), 0);
    }

    #[test]
    fn shift_amounts_are_masked() {
        assert_eq!(AluOp::Sll.apply(1, 64), 1);
        assert_eq!(AluOp::Sll.apply(1, 65), 2);
    }

    #[test]
    fn branch_conditions() {
        assert!(BranchCond::Eq.eval(5, 5));
        assert!(BranchCond::Ne.eval(5, 6));
        assert!(BranchCond::Lt.eval((-1i64) as u64, 0));
        assert!(!BranchCond::Ltu.eval((-1i64) as u64, 0));
        assert!(BranchCond::Ge.eval(0, (-1i64) as u64));
        assert!(BranchCond::Geu.eval((-1i64) as u64, 0));
    }

    #[test]
    fn ecall_numbers_round_trip() {
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
            assert_eq!(EcallNum::from_u64(n as u64), Some(n));
        }
        assert_eq!(EcallNum::from_u64(0), None);
        assert_eq!(EcallNum::from_u64(99), None);
    }

    #[test]
    fn classification() {
        assert!(Inst::Arm { addr: Reg::A0 }.is_mem());
        assert!(Inst::Disarm { addr: Reg::A0 }.is_mem());
        assert!(!Inst::Nop.is_mem());
        assert!(Inst::Jalr {
            dst: Reg::ZERO,
            base: Reg::RA,
            offset: 0
        }
        .is_control());
    }
}
