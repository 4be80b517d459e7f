use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::dyninst::Component;
use crate::inst::{AluOp, BranchCond, EcallNum, Inst, MemSize};
use crate::reg::Reg;
use crate::PC_STEP;

/// A forward-referenceable code label produced by
/// [`ProgramBuilder::new_label`] and resolved by [`ProgramBuilder::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(pub(crate) u32);

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, ".L{}", self.0)
    }
}

/// An executable guest program: resolved code plus initial data image.
///
/// Produced by [`ProgramBuilder::build`]. Code addresses start at
/// [`Program::CODE_BASE`] and step by [`PC_STEP`]; the label table has
/// been fully resolved so every branch target is a valid PC.
#[derive(Debug, Clone, Default)]
pub struct Program {
    code: Vec<Inst>,
    /// Per-instruction attribution (parallel to `code`).
    components: Vec<Component>,
    /// Resolved label PCs (indexed by label id), kept for diagnostics.
    label_pcs: Vec<u64>,
    /// Initial data segments: `(base address, bytes)`.
    data: Vec<(u64, Vec<u8>)>,
    /// Function-name annotations for disassembly: pc -> name.
    symbols: HashMap<u64, String>,
}

impl Program {
    /// Base virtual address of the code segment. Code lives in its own
    /// region well away from stack/heap/static data.
    pub const CODE_BASE: u64 = 0x1_0000;

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the program contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Entry PC of the program.
    pub fn entry(&self) -> u64 {
        Self::CODE_BASE
    }

    /// Fetches the instruction at `pc`, or `None` if `pc` falls outside
    /// the code segment or is misaligned.
    pub fn fetch(&self, pc: u64) -> Option<Inst> {
        if pc < Self::CODE_BASE || !(pc - Self::CODE_BASE).is_multiple_of(PC_STEP) {
            return None;
        }
        let idx = ((pc - Self::CODE_BASE) / PC_STEP) as usize;
        self.code.get(idx).copied()
    }

    /// PC of a resolved label.
    ///
    /// # Panics
    ///
    /// Panics if the label does not belong to this program.
    pub fn label_pc(&self, label: Label) -> u64 {
        self.label_pcs[label.0 as usize]
    }

    /// Initial data segments as `(base address, bytes)` pairs.
    pub fn data_segments(&self) -> &[(u64, Vec<u8>)] {
        &self.data
    }

    /// The instruction slice (for analysis and disassembly).
    pub fn instructions(&self) -> &[Inst] {
        &self.code
    }

    /// Attribution of the instruction at `pc` for the Figure 3
    /// breakdown; [`Component::App`] for PCs outside the code segment.
    pub fn component_at(&self, pc: u64) -> Component {
        if pc < Self::CODE_BASE || !(pc - Self::CODE_BASE).is_multiple_of(PC_STEP) {
            return Component::App;
        }
        let idx = ((pc - Self::CODE_BASE) / PC_STEP) as usize;
        self.components.get(idx).copied().unwrap_or(Component::App)
    }

    /// Function-name annotation at `pc`, if any.
    pub fn symbol_at(&self, pc: u64) -> Option<&str> {
        self.symbols.get(&pc).map(String::as_str)
    }

    /// Renders a human-readable disassembly listing.
    pub fn disassemble(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        for (i, inst) in self.code.iter().enumerate() {
            let pc = Self::CODE_BASE + i as u64 * PC_STEP;
            if let Some(sym) = self.symbol_at(pc) {
                let _ = writeln!(out, "{sym}:");
            }
            let _ = writeln!(out, "  {pc:#08x}: {inst}");
        }
        out
    }
}

/// A canonical encoding: two programs hash alike when they run alike,
/// however they were built. Branch and jump targets take part as
/// resolved PCs (label numbering is the builder's), and symbols in PC
/// order (the map's iteration order varies per instance).
impl Hash for Program {
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.code.len().hash(h);
        for inst in &self.code {
            std::mem::discriminant(inst).hash(h);
            match *inst {
                Inst::Branch {
                    cond,
                    src1,
                    src2,
                    target,
                } => (cond, src1, src2, self.label_pc(target)).hash(h),
                Inst::Jal { dst, target } => (dst, self.label_pc(target)).hash(h),
                other => other.hash(h),
            }
        }
        self.components.hash(h);
        self.data.hash(h);
        let mut symbols: Vec<(&u64, &String)> = self.symbols.iter().collect();
        symbols.sort_unstable();
        symbols.hash(h);
    }
}

/// Label-based assembler DSL for constructing [`Program`]s.
///
/// All workload generators, attack scenarios, and instrumentation passes
/// build guest code through this type. Each mnemonic method appends one
/// instruction; [`ProgramBuilder::build`] resolves labels and returns the
/// executable program.
///
/// # Example
///
/// ```
/// use rest_isa::{ProgramBuilder, Reg};
///
/// let mut p = ProgramBuilder::new();
/// let done = p.new_label();
/// p.li(Reg::A0, 1);
/// p.beq(Reg::A0, Reg::ZERO, done); // not taken
/// p.addi(Reg::A0, Reg::A0, 41);
/// p.bind(done);
/// p.halt();
/// let prog = p.build();
/// assert_eq!(prog.len(), 4);
/// ```
#[derive(Debug)]
pub struct ProgramBuilder {
    code: Vec<Inst>,
    components: Vec<Component>,
    current_component: Component,
    labels: Vec<Option<u64>>, // label id -> resolved pc
    data: Vec<(u64, Vec<u8>)>,
    symbols: HashMap<u64, String>,
}

impl Default for ProgramBuilder {
    fn default() -> Self {
        ProgramBuilder {
            code: Vec::new(),
            components: Vec::new(),
            current_component: Component::App,
            labels: Vec::new(),
            data: Vec::new(),
            symbols: HashMap::new(),
        }
    }
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// Sets the [`Component`] attributed to subsequently appended
    /// instructions. Instrumentation passes switch this around the code
    /// they inject so the Figure 3 breakdown can tell hardening overhead
    /// from application work.
    pub fn set_component(&mut self, component: Component) -> &mut Self {
        self.current_component = component;
        self
    }

    /// The component currently attributed to appended instructions.
    pub fn current_component(&self) -> Component {
        self.current_component
    }

    /// Instructions appended so far (for passes that inspect or count
    /// what they emitted).
    pub fn instructions(&self) -> &[Inst] {
        &self.code
    }

    /// PC that the next appended instruction will occupy.
    pub fn here(&self) -> u64 {
        Program::CODE_BASE + self.code.len() as u64 * PC_STEP
    }

    /// Number of instructions appended so far.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether no instructions have been appended.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Allocates a fresh, unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() as u32 - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound (each label may be bound once).
    pub fn bind(&mut self, label: Label) {
        let pc = self.here();
        let slot = &mut self.labels[label.0 as usize];
        assert!(slot.is_none(), "label {label} bound twice");
        *slot = Some(pc);
    }

    /// Convenience: allocates a label and binds it here.
    pub fn label_here(&mut self) -> Label {
        let l = self.new_label();
        self.bind(l);
        l
    }

    /// Records a function-name annotation at the current position.
    pub fn symbol(&mut self, name: impl Into<String>) {
        self.symbols.insert(self.here(), name.into());
    }

    /// Adds an initial data segment at `base`.
    pub fn data_segment(&mut self, base: u64, bytes: impl Into<Vec<u8>>) {
        self.data.push((base, bytes.into()));
    }

    /// Appends a raw instruction attributed to the current component.
    pub fn push(&mut self, inst: Inst) -> &mut Self {
        self.code.push(inst);
        self.components.push(self.current_component);
        self
    }

    // --- ALU register-register ---

    pub fn add(&mut self, dst: Reg, src1: Reg, src2: Reg) -> &mut Self {
        self.push(Inst::Alu {
            op: AluOp::Add,
            dst,
            src1,
            src2,
        })
    }

    pub fn sub(&mut self, dst: Reg, src1: Reg, src2: Reg) -> &mut Self {
        self.push(Inst::Alu {
            op: AluOp::Sub,
            dst,
            src1,
            src2,
        })
    }

    pub fn mul(&mut self, dst: Reg, src1: Reg, src2: Reg) -> &mut Self {
        self.push(Inst::Alu {
            op: AluOp::Mul,
            dst,
            src1,
            src2,
        })
    }

    pub fn div(&mut self, dst: Reg, src1: Reg, src2: Reg) -> &mut Self {
        self.push(Inst::Alu {
            op: AluOp::Div,
            dst,
            src1,
            src2,
        })
    }

    pub fn rem(&mut self, dst: Reg, src1: Reg, src2: Reg) -> &mut Self {
        self.push(Inst::Alu {
            op: AluOp::Rem,
            dst,
            src1,
            src2,
        })
    }

    pub fn and(&mut self, dst: Reg, src1: Reg, src2: Reg) -> &mut Self {
        self.push(Inst::Alu {
            op: AluOp::And,
            dst,
            src1,
            src2,
        })
    }

    pub fn or(&mut self, dst: Reg, src1: Reg, src2: Reg) -> &mut Self {
        self.push(Inst::Alu {
            op: AluOp::Or,
            dst,
            src1,
            src2,
        })
    }

    pub fn xor(&mut self, dst: Reg, src1: Reg, src2: Reg) -> &mut Self {
        self.push(Inst::Alu {
            op: AluOp::Xor,
            dst,
            src1,
            src2,
        })
    }

    pub fn sll(&mut self, dst: Reg, src1: Reg, src2: Reg) -> &mut Self {
        self.push(Inst::Alu {
            op: AluOp::Sll,
            dst,
            src1,
            src2,
        })
    }

    pub fn srl(&mut self, dst: Reg, src1: Reg, src2: Reg) -> &mut Self {
        self.push(Inst::Alu {
            op: AluOp::Srl,
            dst,
            src1,
            src2,
        })
    }

    pub fn slt(&mut self, dst: Reg, src1: Reg, src2: Reg) -> &mut Self {
        self.push(Inst::Alu {
            op: AluOp::Slt,
            dst,
            src1,
            src2,
        })
    }

    // --- ALU immediate ---

    pub fn addi(&mut self, dst: Reg, src: Reg, imm: i64) -> &mut Self {
        self.push(Inst::AluImm {
            op: AluOp::Add,
            dst,
            src,
            imm,
        })
    }

    pub fn andi(&mut self, dst: Reg, src: Reg, imm: i64) -> &mut Self {
        self.push(Inst::AluImm {
            op: AluOp::And,
            dst,
            src,
            imm,
        })
    }

    pub fn ori(&mut self, dst: Reg, src: Reg, imm: i64) -> &mut Self {
        self.push(Inst::AluImm {
            op: AluOp::Or,
            dst,
            src,
            imm,
        })
    }

    pub fn xori(&mut self, dst: Reg, src: Reg, imm: i64) -> &mut Self {
        self.push(Inst::AluImm {
            op: AluOp::Xor,
            dst,
            src,
            imm,
        })
    }

    pub fn slli(&mut self, dst: Reg, src: Reg, imm: i64) -> &mut Self {
        self.push(Inst::AluImm {
            op: AluOp::Sll,
            dst,
            src,
            imm,
        })
    }

    pub fn srli(&mut self, dst: Reg, src: Reg, imm: i64) -> &mut Self {
        self.push(Inst::AluImm {
            op: AluOp::Srl,
            dst,
            src,
            imm,
        })
    }

    pub fn muli(&mut self, dst: Reg, src: Reg, imm: i64) -> &mut Self {
        self.push(Inst::AluImm {
            op: AluOp::Mul,
            dst,
            src,
            imm,
        })
    }

    pub fn slti(&mut self, dst: Reg, src: Reg, imm: i64) -> &mut Self {
        self.push(Inst::AluImm {
            op: AluOp::Slt,
            dst,
            src,
            imm,
        })
    }

    /// `dst = imm` (64-bit immediate load).
    pub fn li(&mut self, dst: Reg, imm: i64) -> &mut Self {
        self.push(Inst::Li { dst, imm })
    }

    /// Register move: `dst = src`.
    pub fn mv(&mut self, dst: Reg, src: Reg) -> &mut Self {
        self.addi(dst, src, 0)
    }

    // --- Memory ---

    /// Unsigned load of `size` bytes.
    pub fn load(&mut self, dst: Reg, base: Reg, offset: i64, size: MemSize) -> &mut Self {
        self.push(Inst::Load {
            dst,
            base,
            offset,
            size,
            signed: false,
        })
    }

    /// Signed load of `size` bytes.
    pub fn load_signed(&mut self, dst: Reg, base: Reg, offset: i64, size: MemSize) -> &mut Self {
        self.push(Inst::Load {
            dst,
            base,
            offset,
            size,
            signed: true,
        })
    }

    /// 8-byte load.
    pub fn ld(&mut self, dst: Reg, base: Reg, offset: i64) -> &mut Self {
        self.load(dst, base, offset, MemSize::B8)
    }

    /// 1-byte load.
    pub fn lb(&mut self, dst: Reg, base: Reg, offset: i64) -> &mut Self {
        self.load(dst, base, offset, MemSize::B1)
    }

    /// Store of `size` bytes.
    pub fn store(&mut self, src: Reg, base: Reg, offset: i64, size: MemSize) -> &mut Self {
        self.push(Inst::Store {
            src,
            base,
            offset,
            size,
        })
    }

    /// 8-byte store.
    pub fn sd(&mut self, src: Reg, base: Reg, offset: i64) -> &mut Self {
        self.store(src, base, offset, MemSize::B8)
    }

    /// 1-byte store.
    pub fn sb(&mut self, src: Reg, base: Reg, offset: i64) -> &mut Self {
        self.store(src, base, offset, MemSize::B1)
    }

    // --- Control flow ---

    pub fn branch(&mut self, cond: BranchCond, src1: Reg, src2: Reg, target: Label) -> &mut Self {
        self.push(Inst::Branch {
            cond,
            src1,
            src2,
            target,
        })
    }

    pub fn beq(&mut self, a: Reg, b: Reg, t: Label) -> &mut Self {
        self.branch(BranchCond::Eq, a, b, t)
    }

    pub fn bne(&mut self, a: Reg, b: Reg, t: Label) -> &mut Self {
        self.branch(BranchCond::Ne, a, b, t)
    }

    pub fn blt(&mut self, a: Reg, b: Reg, t: Label) -> &mut Self {
        self.branch(BranchCond::Lt, a, b, t)
    }

    pub fn bge(&mut self, a: Reg, b: Reg, t: Label) -> &mut Self {
        self.branch(BranchCond::Ge, a, b, t)
    }

    pub fn bltu(&mut self, a: Reg, b: Reg, t: Label) -> &mut Self {
        self.branch(BranchCond::Ltu, a, b, t)
    }

    pub fn bgeu(&mut self, a: Reg, b: Reg, t: Label) -> &mut Self {
        self.branch(BranchCond::Geu, a, b, t)
    }

    /// Unconditional jump (discarding the link).
    pub fn j(&mut self, target: Label) -> &mut Self {
        self.push(Inst::Jal {
            dst: Reg::ZERO,
            target,
        })
    }

    /// Call: `ra = pc + 4; pc = target`.
    pub fn call(&mut self, target: Label) -> &mut Self {
        self.push(Inst::Jal {
            dst: Reg::RA,
            target,
        })
    }

    /// Return: `pc = ra`.
    pub fn ret(&mut self) -> &mut Self {
        self.push(Inst::Jalr {
            dst: Reg::ZERO,
            base: Reg::RA,
            offset: 0,
        })
    }

    /// Indirect jump-and-link.
    pub fn jalr(&mut self, dst: Reg, base: Reg, offset: i64) -> &mut Self {
        self.push(Inst::Jalr { dst, base, offset })
    }

    // --- REST and system ---

    /// REST `arm` of the address in `addr`.
    pub fn arm(&mut self, addr: Reg) -> &mut Self {
        self.push(Inst::Arm { addr })
    }

    /// REST `disarm` of the address in `addr`.
    pub fn disarm(&mut self, addr: Reg) -> &mut Self {
        self.push(Inst::Disarm { addr })
    }

    /// Raw `ecall` (service number must already be in `a7`).
    pub fn ecall_raw(&mut self) -> &mut Self {
        self.push(Inst::Ecall)
    }

    /// Loads `num` into `a7` and issues `ecall`.
    pub fn ecall(&mut self, num: EcallNum) -> &mut Self {
        self.li(Reg::A7, num as u64 as i64);
        self.ecall_raw()
    }

    pub fn halt(&mut self) -> &mut Self {
        self.push(Inst::Halt)
    }

    pub fn nop(&mut self) -> &mut Self {
        self.push(Inst::Nop)
    }

    /// Resolves all labels and produces the executable [`Program`].
    ///
    /// # Panics
    ///
    /// Panics if any label referenced by a branch or jump was never bound.
    pub fn build(self) -> Program {
        let label_pcs: Vec<u64> = self
            .labels
            .iter()
            .enumerate()
            .map(|(i, slot)| slot.unwrap_or_else(|| panic!("label .L{i} never bound")))
            .collect();
        // Validate that every referenced label is bound (the map above
        // already panics for unbound ones that exist; also catch targets
        // referring to labels from another builder).
        for inst in &self.code {
            let target = match *inst {
                Inst::Branch { target, .. } | Inst::Jal { target, .. } => Some(target),
                _ => None,
            };
            if let Some(t) = target {
                assert!(
                    (t.0 as usize) < label_pcs.len(),
                    "instruction references foreign label {t}"
                );
            }
        }
        Program {
            code: self.code,
            components: self.components,
            label_pcs,
            data: self.data,
            symbols: self.symbols,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_resolve_forward_and_backward() {
        let mut p = ProgramBuilder::new();
        let back = p.label_here();
        p.nop();
        let fwd = p.new_label();
        p.beq(Reg::ZERO, Reg::ZERO, fwd);
        p.j(back);
        p.bind(fwd);
        p.halt();
        let prog = p.build();
        assert_eq!(prog.label_pc(back), Program::CODE_BASE);
        assert_eq!(prog.label_pc(fwd), Program::CODE_BASE + 3 * PC_STEP);
    }

    #[test]
    #[should_panic(expected = "never bound")]
    fn unbound_label_panics() {
        let mut p = ProgramBuilder::new();
        let l = p.new_label();
        p.j(l);
        let _ = p.build();
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut p = ProgramBuilder::new();
        let l = p.new_label();
        p.bind(l);
        p.nop();
        p.bind(l);
    }

    #[test]
    fn fetch_respects_code_bounds_and_alignment() {
        let mut p = ProgramBuilder::new();
        p.nop();
        p.halt();
        let prog = p.build();
        assert_eq!(prog.fetch(Program::CODE_BASE), Some(Inst::Nop));
        assert_eq!(prog.fetch(Program::CODE_BASE + PC_STEP), Some(Inst::Halt));
        assert_eq!(prog.fetch(Program::CODE_BASE + 2 * PC_STEP), None);
        assert_eq!(prog.fetch(Program::CODE_BASE + 1), None);
        assert_eq!(prog.fetch(0), None);
    }

    #[test]
    fn disassembly_contains_symbols_and_mnemonics() {
        let mut p = ProgramBuilder::new();
        p.symbol("main");
        p.li(Reg::A0, 7);
        p.arm(Reg::A0);
        p.halt();
        let prog = p.build();
        let dis = prog.disassemble();
        assert!(dis.contains("main:"), "{dis}");
        assert!(dis.contains("li a0, 7"), "{dis}");
        assert!(dis.contains("arm a0"), "{dis}");
    }

    #[test]
    fn data_segments_are_preserved() {
        let mut p = ProgramBuilder::new();
        p.data_segment(0x8000, vec![1, 2, 3]);
        p.halt();
        let prog = p.build();
        assert_eq!(prog.data_segments(), &[(0x8000, vec![1, 2, 3])]);
    }
}
