//! The emulator's pre-decoded program: one flat [`Op`] per PC, and a
//! parallel table of micro-op templates.
//!
//! The timing/functional split re-executes every guest instruction once
//! per dynamic occurrence, but the *static* work of decoding — resolving
//! branch labels, splitting an instruction by ALU operation, access
//! width or branch condition, attributing the owning [`Component`], and
//! building the [`DynInst`] skeleton — is identical every time a PC is
//! revisited. A [`DecodedProgram`] does that work once per static
//! instruction and keeps two dense PC-indexed tables:
//!
//! * **the op table** — one 16-byte [`Op`] per PC. It has one variant
//!   per ALU operation in register and immediate form, per load width
//!   and signedness, per store width and per branch condition (target
//!   already resolved), so the emulator's step dispatches with a single
//!   `match` and copies nothing larger than the op. Memory ops carry
//!   their component, which decides whether an access is checked. Every
//!   execution tier and sink reads this table;
//! * **the template table** — the 56-byte [`DynInst`] each instruction
//!   lowers to ([`Op::template`]), with static fields final and dynamic
//!   ones (memory address, branch outcome, indirect target) patched per
//!   dynamic instance. Only sinks that materialise micro-ops read it:
//!   the timing path and the superblock trace compiler. Counting runs
//!   never touch it.
//!
//! The tables are coherent with the guest's view of its own code: the
//! only architected writes that can land in the code segment are
//! `arm`/`disarm` functional effects, and the emulator invalidates the
//! covered entries through [`DecodedProgram::invalidate_range`] at those
//! boundaries. The Reference tier skips the tables: it calls
//! [`Op::decode_at`] on every fetch and [`Op::template`] on every
//! materialised micro-op, which by construction yields the same values —
//! the lockstep differential in `rest-bench` holds the two paths to
//! byte-identical uop streams.

use crate::dyninst::{BranchInfo, Component, DynInst, OpKind};
use crate::inst::{AluOp, BranchCond, Inst, MemSize};
use crate::program::Program;
use crate::reg::Reg;
use crate::PC_STEP;

/// Static decode parameters: everything outside the [`Program`] that
/// shapes a micro-op template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeOptions {
    /// Token width in bytes — the access size of `arm`/`disarm`
    /// micro-ops.
    pub arm_width: u64,
    /// Model `arm`/`disarm` as ordinary 8-byte stores (the paper's
    /// "perfect hardware" ablation) instead of REST micro-ops.
    pub arm_as_store: bool,
}

/// What an [`Op`] may do to guest memory when it executes
/// ([`Op::guest_write`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuestWrite {
    /// Reads registers and memory, writes only registers and the PC.
    Nothing,
    /// May write guest memory bytes (the stores).
    Bytes,
    /// May write guest memory bytes and record line pre-images
    /// (`arm`, `disarm`, and `ecall`, whose runtime services arm and
    /// disarm redzones and copy memory).
    PreImages,
}

/// One pre-decoded instruction: an [`Inst`] split by operation, width
/// and condition so that executing it needs a single dispatch.
///
/// Register-form ALU ops compute `dst = a <op> b`, immediate forms
/// `dst = a <op> imm`, with the semantics of the [`AluOp`] they are named
/// after. Loads and stores address `base + offset`; branch and `jal`
/// targets are absolute PCs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[rustfmt::skip]
pub enum Op {
    Add { dst: Reg, a: Reg, b: Reg },
    Sub { dst: Reg, a: Reg, b: Reg },
    Mul { dst: Reg, a: Reg, b: Reg },
    Div { dst: Reg, a: Reg, b: Reg },
    Rem { dst: Reg, a: Reg, b: Reg },
    And { dst: Reg, a: Reg, b: Reg },
    Or { dst: Reg, a: Reg, b: Reg },
    Xor { dst: Reg, a: Reg, b: Reg },
    Sll { dst: Reg, a: Reg, b: Reg },
    Srl { dst: Reg, a: Reg, b: Reg },
    Sra { dst: Reg, a: Reg, b: Reg },
    Slt { dst: Reg, a: Reg, b: Reg },
    Sltu { dst: Reg, a: Reg, b: Reg },
    AddI { dst: Reg, a: Reg, imm: i64 },
    SubI { dst: Reg, a: Reg, imm: i64 },
    MulI { dst: Reg, a: Reg, imm: i64 },
    DivI { dst: Reg, a: Reg, imm: i64 },
    RemI { dst: Reg, a: Reg, imm: i64 },
    AndI { dst: Reg, a: Reg, imm: i64 },
    OrI { dst: Reg, a: Reg, imm: i64 },
    XorI { dst: Reg, a: Reg, imm: i64 },
    SllI { dst: Reg, a: Reg, imm: i64 },
    SrlI { dst: Reg, a: Reg, imm: i64 },
    SraI { dst: Reg, a: Reg, imm: i64 },
    SltI { dst: Reg, a: Reg, imm: i64 },
    SltuI { dst: Reg, a: Reg, imm: i64 },
    /// `dst = imm`.
    Li { dst: Reg, imm: i64 },
    /// Zero-extending 1-byte load.
    LoadU8 { dst: Reg, base: Reg, component: Component, offset: i64 },
    /// Sign-extending 1-byte load.
    LoadS8 { dst: Reg, base: Reg, component: Component, offset: i64 },
    LoadU16 { dst: Reg, base: Reg, component: Component, offset: i64 },
    LoadS16 { dst: Reg, base: Reg, component: Component, offset: i64 },
    LoadU32 { dst: Reg, base: Reg, component: Component, offset: i64 },
    LoadS32 { dst: Reg, base: Reg, component: Component, offset: i64 },
    /// 8-byte load (signedness is moot at full width).
    Load64 { dst: Reg, base: Reg, component: Component, offset: i64 },
    Store8 { src: Reg, base: Reg, component: Component, offset: i64 },
    Store16 { src: Reg, base: Reg, component: Component, offset: i64 },
    Store32 { src: Reg, base: Reg, component: Component, offset: i64 },
    Store64 { src: Reg, base: Reg, component: Component, offset: i64 },
    Beq { a: Reg, b: Reg, target: u64 },
    Bne { a: Reg, b: Reg, target: u64 },
    Blt { a: Reg, b: Reg, target: u64 },
    Bge { a: Reg, b: Reg, target: u64 },
    Bltu { a: Reg, b: Reg, target: u64 },
    Bgeu { a: Reg, b: Reg, target: u64 },
    Jal { dst: Reg, target: u64 },
    Jalr { dst: Reg, base: Reg, offset: i64 },
    Arm { addr: Reg },
    Disarm { addr: Reg },
    Ecall,
    Halt,
    Nop,
}

impl Op {
    /// Decodes `inst` (attributed to `component`), resolving its branch
    /// label against `p`.
    pub fn decode(p: &Program, inst: Inst, component: Component) -> Op {
        match inst {
            Inst::Alu {
                op,
                dst,
                src1: a,
                src2: b,
            } => match op {
                AluOp::Add => Op::Add { dst, a, b },
                AluOp::Sub => Op::Sub { dst, a, b },
                AluOp::Mul => Op::Mul { dst, a, b },
                AluOp::Div => Op::Div { dst, a, b },
                AluOp::Rem => Op::Rem { dst, a, b },
                AluOp::And => Op::And { dst, a, b },
                AluOp::Or => Op::Or { dst, a, b },
                AluOp::Xor => Op::Xor { dst, a, b },
                AluOp::Sll => Op::Sll { dst, a, b },
                AluOp::Srl => Op::Srl { dst, a, b },
                AluOp::Sra => Op::Sra { dst, a, b },
                AluOp::Slt => Op::Slt { dst, a, b },
                AluOp::Sltu => Op::Sltu { dst, a, b },
            },
            Inst::AluImm {
                op,
                dst,
                src: a,
                imm,
            } => match op {
                AluOp::Add => Op::AddI { dst, a, imm },
                AluOp::Sub => Op::SubI { dst, a, imm },
                AluOp::Mul => Op::MulI { dst, a, imm },
                AluOp::Div => Op::DivI { dst, a, imm },
                AluOp::Rem => Op::RemI { dst, a, imm },
                AluOp::And => Op::AndI { dst, a, imm },
                AluOp::Or => Op::OrI { dst, a, imm },
                AluOp::Xor => Op::XorI { dst, a, imm },
                AluOp::Sll => Op::SllI { dst, a, imm },
                AluOp::Srl => Op::SrlI { dst, a, imm },
                AluOp::Sra => Op::SraI { dst, a, imm },
                AluOp::Slt => Op::SltI { dst, a, imm },
                AluOp::Sltu => Op::SltuI { dst, a, imm },
            },
            Inst::Li { dst, imm } => Op::Li { dst, imm },
            Inst::Load {
                dst,
                base,
                offset,
                size,
                signed,
            } => match (size, signed) {
                (MemSize::B1, false) => Op::LoadU8 {
                    dst,
                    base,
                    component,
                    offset,
                },
                (MemSize::B1, true) => Op::LoadS8 {
                    dst,
                    base,
                    component,
                    offset,
                },
                (MemSize::B2, false) => Op::LoadU16 {
                    dst,
                    base,
                    component,
                    offset,
                },
                (MemSize::B2, true) => Op::LoadS16 {
                    dst,
                    base,
                    component,
                    offset,
                },
                (MemSize::B4, false) => Op::LoadU32 {
                    dst,
                    base,
                    component,
                    offset,
                },
                (MemSize::B4, true) => Op::LoadS32 {
                    dst,
                    base,
                    component,
                    offset,
                },
                (MemSize::B8, _) => Op::Load64 {
                    dst,
                    base,
                    component,
                    offset,
                },
            },
            Inst::Store {
                src,
                base,
                offset,
                size,
            } => match size {
                MemSize::B1 => Op::Store8 {
                    src,
                    base,
                    component,
                    offset,
                },
                MemSize::B2 => Op::Store16 {
                    src,
                    base,
                    component,
                    offset,
                },
                MemSize::B4 => Op::Store32 {
                    src,
                    base,
                    component,
                    offset,
                },
                MemSize::B8 => Op::Store64 {
                    src,
                    base,
                    component,
                    offset,
                },
            },
            Inst::Branch {
                cond,
                src1: a,
                src2: b,
                target,
            } => {
                let target = p.label_pc(target);
                match cond {
                    BranchCond::Eq => Op::Beq { a, b, target },
                    BranchCond::Ne => Op::Bne { a, b, target },
                    BranchCond::Lt => Op::Blt { a, b, target },
                    BranchCond::Ge => Op::Bge { a, b, target },
                    BranchCond::Ltu => Op::Bltu { a, b, target },
                    BranchCond::Geu => Op::Bgeu { a, b, target },
                }
            }
            Inst::Jal { dst, target } => Op::Jal {
                dst,
                target: p.label_pc(target),
            },
            Inst::Jalr { dst, base, offset } => Op::Jalr { dst, base, offset },
            Inst::Arm { addr } => Op::Arm { addr },
            Inst::Disarm { addr } => Op::Disarm { addr },
            Inst::Ecall => Op::Ecall,
            Inst::Halt => Op::Halt,
            Inst::Nop => Op::Nop,
        }
    }

    /// What executing this op may do to guest memory, which decides how
    /// it bounds a replay window of the timing loop (DESIGN.md, "Timing
    /// loop"). One arm per variant and no wildcard, so a new op must
    /// say what it writes.
    pub const fn guest_write(self) -> GuestWrite {
        match self {
            Op::Add { .. }
            | Op::Sub { .. }
            | Op::Mul { .. }
            | Op::Div { .. }
            | Op::Rem { .. }
            | Op::And { .. }
            | Op::Or { .. }
            | Op::Xor { .. }
            | Op::Sll { .. }
            | Op::Srl { .. }
            | Op::Sra { .. }
            | Op::Slt { .. }
            | Op::Sltu { .. }
            | Op::AddI { .. }
            | Op::SubI { .. }
            | Op::MulI { .. }
            | Op::DivI { .. }
            | Op::RemI { .. }
            | Op::AndI { .. }
            | Op::OrI { .. }
            | Op::XorI { .. }
            | Op::SllI { .. }
            | Op::SrlI { .. }
            | Op::SraI { .. }
            | Op::SltI { .. }
            | Op::SltuI { .. }
            | Op::Li { .. }
            | Op::LoadU8 { .. }
            | Op::LoadS8 { .. }
            | Op::LoadU16 { .. }
            | Op::LoadS16 { .. }
            | Op::LoadU32 { .. }
            | Op::LoadS32 { .. }
            | Op::Load64 { .. }
            | Op::Beq { .. }
            | Op::Bne { .. }
            | Op::Blt { .. }
            | Op::Bge { .. }
            | Op::Bltu { .. }
            | Op::Bgeu { .. }
            | Op::Jal { .. }
            | Op::Jalr { .. }
            | Op::Halt
            | Op::Nop => GuestWrite::Nothing,
            Op::Store8 { .. } | Op::Store16 { .. } | Op::Store32 { .. } | Op::Store64 { .. } => {
                GuestWrite::Bytes
            }
            Op::Arm { .. } | Op::Disarm { .. } | Op::Ecall => GuestWrite::PreImages,
        }
    }

    /// Decodes the instruction at `pc` — the Reference tier's per-fetch
    /// path — or `None` outside the code segment or at a misaligned PC
    /// (mirrors [`Program::fetch`]).
    pub fn decode_at(p: &Program, pc: u64) -> Option<Op> {
        let inst = p.fetch(pc)?;
        Some(Op::decode(p, inst, p.component_at(pc)))
    }

    /// Lowers the op at `pc` to its micro-op template, attributed to
    /// `component`. Static fields (kind, registers, access width, branch
    /// shape) are final; the memory address, branch outcome and indirect
    /// target are left for the emulator to patch per dynamic instance.
    pub fn template(self, pc: u64, component: Component, opts: DecodeOptions) -> DynInst {
        let rr = |dst, a, b| DynInst::alu(pc, Some(dst), [Some(a), Some(b)]);
        let ri = |dst, a| DynInst::alu(pc, Some(dst), [Some(a), None]);
        let load = |dst, base, size| DynInst::load(pc, Some(dst), Some(base), 0, size);
        let store = |src, base, size| DynInst::store(pc, Some(src), Some(base), 0, size);
        let arm_store = |addr| DynInst::store(pc, None, Some(addr), 0, 8);
        let cond = |a, b| {
            DynInst::branch(
                pc,
                [Some(a), Some(b)],
                None,
                BranchInfo {
                    taken: false,
                    target: 0,
                    conditional: true,
                    is_call: false,
                    is_return: false,
                    indirect: false,
                },
            )
        };
        let t = match self {
            Op::Mul { dst, a, b } => rr(dst, a, b).with_kind(OpKind::IntMul),
            Op::Div { dst, a, b } | Op::Rem { dst, a, b } => {
                rr(dst, a, b).with_kind(OpKind::IntDiv)
            }
            Op::Add { dst, a, b }
            | Op::Sub { dst, a, b }
            | Op::And { dst, a, b }
            | Op::Or { dst, a, b }
            | Op::Xor { dst, a, b }
            | Op::Sll { dst, a, b }
            | Op::Srl { dst, a, b }
            | Op::Sra { dst, a, b }
            | Op::Slt { dst, a, b }
            | Op::Sltu { dst, a, b } => rr(dst, a, b),
            Op::MulI { dst, a, .. } => ri(dst, a).with_kind(OpKind::IntMul),
            Op::DivI { dst, a, .. } | Op::RemI { dst, a, .. } => {
                ri(dst, a).with_kind(OpKind::IntDiv)
            }
            Op::AddI { dst, a, .. }
            | Op::SubI { dst, a, .. }
            | Op::AndI { dst, a, .. }
            | Op::OrI { dst, a, .. }
            | Op::XorI { dst, a, .. }
            | Op::SllI { dst, a, .. }
            | Op::SrlI { dst, a, .. }
            | Op::SraI { dst, a, .. }
            | Op::SltI { dst, a, .. }
            | Op::SltuI { dst, a, .. } => ri(dst, a),
            Op::Li { dst, .. } => DynInst::alu(pc, Some(dst), [None, None]),
            Op::Nop | Op::Halt => DynInst::alu(pc, None, [None, None]),
            Op::LoadU8 { dst, base, .. } | Op::LoadS8 { dst, base, .. } => load(dst, base, 1),
            Op::LoadU16 { dst, base, .. } | Op::LoadS16 { dst, base, .. } => load(dst, base, 2),
            Op::LoadU32 { dst, base, .. } | Op::LoadS32 { dst, base, .. } => load(dst, base, 4),
            Op::Load64 { dst, base, .. } => load(dst, base, 8),
            Op::Store8 { src, base, .. } => store(src, base, 1),
            Op::Store16 { src, base, .. } => store(src, base, 2),
            Op::Store32 { src, base, .. } => store(src, base, 4),
            Op::Store64 { src, base, .. } => store(src, base, 8),
            Op::Arm { addr } if opts.arm_as_store => arm_store(addr),
            Op::Disarm { addr } if opts.arm_as_store => arm_store(addr),
            Op::Arm { addr } => DynInst::arm(pc, Some(addr), 0, opts.arm_width),
            Op::Disarm { addr } => DynInst::disarm(pc, Some(addr), 0, opts.arm_width),
            Op::Beq { a, b, .. }
            | Op::Bne { a, b, .. }
            | Op::Blt { a, b, .. }
            | Op::Bge { a, b, .. }
            | Op::Bltu { a, b, .. }
            | Op::Bgeu { a, b, .. } => cond(a, b),
            Op::Jal { dst, target } => DynInst::branch(
                pc,
                [None, None],
                Some(dst),
                BranchInfo {
                    taken: true,
                    target,
                    conditional: false,
                    is_call: dst == Reg::RA,
                    is_return: false,
                    indirect: false,
                },
            ),
            Op::Jalr { dst, base, .. } => DynInst::branch(
                pc,
                [Some(base), None],
                Some(dst),
                BranchInfo {
                    taken: true,
                    target: 0,
                    conditional: false,
                    is_call: dst == Reg::RA,
                    is_return: dst == Reg::ZERO && base == Reg::RA,
                    indirect: true,
                },
            ),
            Op::Ecall => DynInst::alu(pc, Some(Reg::A0), [Some(Reg::A7), Some(Reg::A0)]),
        };
        t.with_component(component)
    }
}

/// The dense PC-indexed op and template tables covering the whole code
/// segment (see the module docs for who reads which).
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    ops: Vec<Op>,
    /// Parallel to `ops`: entry `i` is `ops[i]` lowered at its PC.
    templates: Vec<DynInst>,
    opts: DecodeOptions,
    invalidations: u64,
    redecoded: u64,
}

impl DecodedProgram {
    /// Eagerly decodes every instruction of `p`.
    pub fn new(p: &Program, opts: DecodeOptions) -> DecodedProgram {
        let n = p.len();
        let mut table = DecodedProgram {
            ops: Vec::with_capacity(n),
            templates: Vec::with_capacity(n),
            opts,
            invalidations: 0,
            redecoded: 0,
        };
        for (idx, &inst) in p.instructions().iter().enumerate() {
            let (op, template) = decode_entry(p, idx, inst, opts);
            table.ops.push(op);
            table.templates.push(template);
        }
        table
    }

    /// Table index of `pc` (not bounds-checked), or `None` below the
    /// code segment or at a misaligned PC.
    #[inline]
    fn index(pc: u64) -> Option<usize> {
        let off = pc.checked_sub(Program::CODE_BASE)?;
        off.is_multiple_of(PC_STEP)
            .then_some((off / PC_STEP) as usize)
    }

    /// The op at `pc`, or `None` outside the code segment or at a
    /// misaligned PC (mirrors [`Program::fetch`]).
    #[inline]
    pub fn op_at(&self, pc: u64) -> Option<Op> {
        self.ops.get(Self::index(pc)?).copied()
    }

    /// The micro-op template at `pc`, or `None` where [`Self::op_at`]
    /// is `None`.
    #[inline]
    pub fn template_at(&self, pc: u64) -> Option<&DynInst> {
        self.templates.get(Self::index(pc)?)
    }

    /// Number of static instructions covered.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Invalidates and re-derives every entry overlapped by the
    /// **half-open** byte range `[addr, addr + len)` — the
    /// ARM/DISARM-visible self-modification boundary. Returns the number
    /// of entries re-decoded.
    ///
    /// Boundary contract (trace invalidation reuses these semantics, so
    /// they are pinned by tests):
    ///
    /// * `len == 0` denotes the empty range and touches nothing;
    /// * an entry is covered iff its `PC_STEP`-byte cell intersects the
    ///   range, so a range ending exactly on an instruction boundary
    ///   (`addr + len == entry pc`) does **not** cover that entry;
    /// * the range is clamped to the code segment: a write straddling
    ///   the last entry re-decodes it once, and `addr + len` saturates
    ///   at `u64::MAX` rather than wrapping.
    pub fn invalidate_range(&mut self, p: &Program, addr: u64, len: u64) -> usize {
        if len == 0 || self.ops.is_empty() {
            return 0;
        }
        let code_end = Program::CODE_BASE + self.ops.len() as u64 * PC_STEP;
        let lo = addr.max(Program::CODE_BASE);
        let hi = addr.saturating_add(len).min(code_end);
        if lo >= hi {
            return 0;
        }
        let first = ((lo - Program::CODE_BASE) / PC_STEP) as usize;
        let last = ((hi - 1 - Program::CODE_BASE) / PC_STEP) as usize;
        let covered = p
            .instructions()
            .iter()
            .enumerate()
            .take(last + 1)
            .skip(first);
        for (idx, &inst) in covered {
            (self.ops[idx], self.templates[idx]) = decode_entry(p, idx, inst, self.opts);
        }
        self.invalidations += 1;
        self.redecoded += (last - first + 1) as u64;
        last - first + 1
    }

    /// How many invalidation events have hit the cache.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Total entries re-decoded across all invalidations.
    pub fn redecoded(&self) -> u64 {
        self.redecoded
    }
}

/// Decodes instruction `idx` of `p` into its op and template.
fn decode_entry(p: &Program, idx: usize, inst: Inst, opts: DecodeOptions) -> (Op, DynInst) {
    let pc = Program::CODE_BASE + idx as u64 * PC_STEP;
    let component = p.component_at(pc);
    let op = Op::decode(p, inst, component);
    (op, op.template(pc, component, opts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;
    use crate::reg::Reg;

    fn opts() -> DecodeOptions {
        DecodeOptions {
            arm_width: 64,
            arm_as_store: false,
        }
    }

    fn sample() -> Program {
        let mut p = ProgramBuilder::new();
        let lp = p.new_label();
        p.li(Reg::A0, 0);
        p.li(Reg::T0, 10);
        p.bind(lp);
        p.add(Reg::A0, Reg::A0, Reg::T0);
        p.addi(Reg::T0, Reg::T0, -1);
        p.bne(Reg::T0, Reg::ZERO, lp);
        p.arm(Reg::A1);
        p.halt();
        p.build()
    }

    #[test]
    fn ops_fit_sixteen_bytes() {
        assert!(std::mem::size_of::<Op>() <= 16);
    }

    #[test]
    fn guest_writes_follow_the_micro_op_kinds() {
        let mut p = ProgramBuilder::new();
        let lp = p.new_label();
        p.bind(lp);
        for size in [MemSize::B1, MemSize::B2, MemSize::B4, MemSize::B8] {
            p.store(Reg::A0, Reg::A1, 8, size);
            p.load(Reg::A0, Reg::A1, 8, size);
            p.load_signed(Reg::A0, Reg::A1, 8, size);
        }
        p.add(Reg::A0, Reg::A0, Reg::A1);
        p.li(Reg::A0, 3);
        p.bne(Reg::A0, Reg::ZERO, lp);
        p.jalr(Reg::RA, Reg::A0, 0);
        p.arm(Reg::A1);
        p.disarm(Reg::A1);
        p.ecall_raw();
        p.nop();
        p.halt();
        let prog = p.build();
        for pc in (0..prog.len() as u64).map(|i| Program::CODE_BASE + i * PC_STEP) {
            let op = Op::decode_at(&prog, pc).unwrap();
            let want = match op.template(pc, Component::App, opts()).kind {
                OpKind::Store => GuestWrite::Bytes,
                OpKind::Arm | OpKind::Disarm => GuestWrite::PreImages,
                _ if op == Op::Ecall => GuestWrite::PreImages,
                _ => GuestWrite::Nothing,
            };
            assert_eq!(op.guest_write(), want, "{op:?}");
        }
    }

    #[test]
    fn cache_covers_whole_code_segment_and_mirrors_fetch() {
        let p = sample();
        let cache = DecodedProgram::new(&p, opts());
        assert_eq!(cache.len(), p.len());
        assert!(!cache.is_empty());
        for i in 0..p.len() as u64 {
            let pc = Program::CODE_BASE + i * PC_STEP;
            let op = cache.op_at(pc).expect("entry in range");
            let template = cache.template_at(pc).expect("template in range");
            assert_eq!(template.pc, pc);
            // Per-fetch decode (the reference path) yields the same op
            // and template.
            assert_eq!(Op::decode_at(&p, pc), Some(op));
            assert_eq!(op.template(pc, p.component_at(pc), opts()), *template);
        }
        // Out-of-range and misaligned PCs miss exactly like fetch.
        let end = Program::CODE_BASE + p.len() as u64 * PC_STEP;
        for pc in [Program::CODE_BASE - 4, Program::CODE_BASE + 1, end, 0] {
            assert!(cache.op_at(pc).is_none(), "{pc:#x}");
            assert!(cache.template_at(pc).is_none(), "{pc:#x}");
            assert!(Op::decode_at(&p, pc).is_none(), "{pc:#x}");
        }
    }

    #[test]
    fn branch_targets_resolve_to_label_pcs() {
        let p = sample();
        let cache = DecodedProgram::new(&p, opts());
        // bne is the 5th instruction (index 4); its target is the bind
        // point at index 2.
        let bne = cache.op_at(Program::CODE_BASE + 4 * PC_STEP).unwrap();
        assert_eq!(
            bne,
            Op::Bne {
                a: Reg::T0,
                b: Reg::ZERO,
                target: Program::CODE_BASE + 2 * PC_STEP
            }
        );
    }

    #[test]
    fn arm_templates_follow_decode_options() {
        let p = sample();
        let arm_pc = Program::CODE_BASE + 5 * PC_STEP;
        let rest = DecodedProgram::new(&p, opts());
        let t = rest.template_at(arm_pc).unwrap();
        assert_eq!(t.kind, OpKind::Arm);
        assert_eq!(t.mem.unwrap().size, 64);
        let perfect = DecodedProgram::new(
            &p,
            DecodeOptions {
                arm_width: 64,
                arm_as_store: true,
            },
        );
        let t = perfect.template_at(arm_pc).unwrap();
        assert_eq!(t.kind, OpKind::Store);
        assert_eq!(t.mem.unwrap().size, 8);
        assert_eq!(perfect.op_at(arm_pc), rest.op_at(arm_pc));
    }

    #[test]
    fn invalidate_range_redecodes_only_covered_entries() {
        let p = sample();
        let mut cache = DecodedProgram::new(&p, opts());
        let fresh = cache.clone();
        // A write below, above, or of zero length touches nothing.
        assert_eq!(cache.invalidate_range(&p, 0, Program::CODE_BASE), 0);
        assert_eq!(
            cache.invalidate_range(&p, Program::CODE_BASE + p.len() as u64 * PC_STEP, 64),
            0
        );
        assert_eq!(cache.invalidate_range(&p, Program::CODE_BASE, 0), 0);
        assert_eq!(cache.invalidations(), 0);
        // A 5-byte write starting mid-instruction covers two entries.
        let n = cache.invalidate_range(&p, Program::CODE_BASE + PC_STEP + 2, 5);
        assert_eq!(n, 2);
        assert_eq!(cache.invalidations(), 1);
        assert_eq!(cache.redecoded(), 2);
        // Entries are re-derived, not dropped.
        assert_eq!(cache.ops, fresh.ops, "ops must survive invalidation");
        assert_eq!(cache.templates, fresh.templates);
        // A straddling range clamps to the code segment.
        let all = cache.invalidate_range(&p, 0, u64::MAX);
        assert_eq!(all, p.len());
        assert_eq!(cache.ops, fresh.ops);
    }

    #[test]
    fn invalidate_range_is_half_open() {
        let p = sample();
        let mut cache = DecodedProgram::new(&p, opts());
        let base = Program::CODE_BASE;
        // [base, base + PC_STEP) covers exactly the first entry: the
        // range ends on the second entry's boundary without touching it.
        assert_eq!(cache.invalidate_range(&p, base, PC_STEP), 1);
        // A 1-byte write to an entry's last byte covers only that entry.
        assert_eq!(cache.invalidate_range(&p, base + PC_STEP - 1, 1), 1);
        // A range ending exactly where an entry starts excludes it, even
        // mid-segment.
        assert_eq!(
            cache.invalidate_range(&p, base + PC_STEP, 2 * PC_STEP),
            2,
            "[pc1, pc3) covers entries 1 and 2, not 3"
        );
        assert_eq!(cache.invalidations(), 3);
        assert_eq!(cache.redecoded(), 4);
    }

    #[test]
    fn invalidate_range_zero_len_touches_nothing_everywhere() {
        let p = sample();
        let mut cache = DecodedProgram::new(&p, opts());
        // len == 0 is the empty range no matter where it points: below,
        // at, inside, and past the code segment.
        for addr in [
            0,
            Program::CODE_BASE,
            Program::CODE_BASE + 2,
            Program::CODE_BASE + (p.len() as u64 - 1) * PC_STEP,
            u64::MAX,
        ] {
            assert_eq!(cache.invalidate_range(&p, addr, 0), 0, "addr {addr:#x}");
        }
        assert_eq!(cache.invalidations(), 0);
        assert_eq!(cache.redecoded(), 0);
    }

    #[test]
    fn invalidate_range_clamps_writes_straddling_the_last_entry() {
        let p = sample();
        let mut cache = DecodedProgram::new(&p, opts());
        let last_pc = Program::CODE_BASE + (p.len() as u64 - 1) * PC_STEP;
        // A 64-byte token write starting inside the last entry covers
        // exactly that one entry — the tail past the segment is clamped.
        assert_eq!(cache.invalidate_range(&p, last_pc + 1, 64), 1);
        // A range beginning exactly at the segment end is empty
        // (half-open: the end boundary belongs to no entry).
        let end = Program::CODE_BASE + p.len() as u64 * PC_STEP;
        assert_eq!(cache.invalidate_range(&p, end, 64), 0);
        // addr + len saturates instead of wrapping around the address
        // space: a huge range anchored near u64::MAX misses the segment.
        assert_eq!(cache.invalidate_range(&p, u64::MAX - 8, u64::MAX), 0);
        assert_eq!(cache.invalidations(), 1);
        assert_eq!(cache.redecoded(), 1);
    }

    /// Both ends of the table are reachable by decode and invalidation:
    /// the first and last entries, and an empty program, which has no
    /// entries to index.
    #[test]
    fn decode_and_invalidation_reach_both_ends_of_the_code_segment() {
        let p = sample();
        let mut cache = DecodedProgram::new(&p, opts());
        let last_pc = Program::CODE_BASE + (p.len() as u64 - 1) * PC_STEP;
        assert_eq!(
            cache.op_at(Program::CODE_BASE),
            Some(Op::Li {
                dst: Reg::A0,
                imm: 0
            })
        );
        assert_eq!(cache.op_at(last_pc), Some(Op::Halt));
        assert_eq!(cache.invalidate_range(&p, Program::CODE_BASE, 1), 1);
        assert_eq!(cache.invalidate_range(&p, last_pc + PC_STEP - 1, 1), 1);
        assert_eq!(cache.op_at(last_pc), Some(Op::Halt));

        let empty = ProgramBuilder::new().build();
        let mut cache = DecodedProgram::new(&empty, opts());
        assert!(cache.is_empty());
        assert!(cache.op_at(Program::CODE_BASE).is_none());
        assert_eq!(cache.invalidate_range(&empty, 0, u64::MAX), 0);
    }

    #[test]
    fn alu_kinds_classify_functional_units() {
        let pc = Program::CODE_BASE;
        let kind = |op: Op| op.template(pc, Component::App, opts()).kind;
        let (dst, a, b) = (Reg::A0, Reg::A1, Reg::A2);
        assert_eq!(kind(Op::Add { dst, a, b }), OpKind::IntAlu);
        assert_eq!(kind(Op::Mul { dst, a, b }), OpKind::IntMul);
        assert_eq!(kind(Op::MulI { dst, a, imm: 3 }), OpKind::IntMul);
        assert_eq!(kind(Op::Div { dst, a, b }), OpKind::IntDiv);
        assert_eq!(kind(Op::RemI { dst, a, imm: 3 }), OpKind::IntDiv);
        assert_eq!(kind(Op::XorI { dst, a, imm: 3 }), OpKind::IntAlu);
    }
}
