//! Control-flow graph over a [`Program`]: basic blocks, typed successor
//! edges, and a per-function partition.
//!
//! Functions are recovered syntactically: the program entry plus every
//! `jal` link target (`call f`) starts a function; `jalr zero, 0(ra)`
//! (`ret`) ends one. Calls are *intraprocedural* edges to the return
//! point — the dataflow analysis treats callees as opaque, which keeps
//! the verifier modular and lets it handle recursion (`sjeng`'s move
//! search) without unrolling.

use std::collections::BTreeSet;

use rest_isa::{Inst, Program, Reg, PC_STEP};

/// One successor edge of a basic block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Succ {
    /// Fallthrough to the next block.
    Fall(u64),
    /// Conditional branch taken.
    Taken(u64),
    /// Unconditional jump (`j` / `jal zero`).
    Jump(u64),
    /// Call: control continues at `ret` after the callee returns.
    CallReturn {
        /// Callee entry PC.
        callee: u64,
        /// Return point (the instruction after the call).
        ret: u64,
    },
    /// Function return (`jalr zero, 0(ra)`).
    Ret,
    /// Program exit (`halt` or `ecall exit`).
    Exit,
    /// Indirect jump the verifier cannot resolve (`jalr` through a
    /// computed register).
    Indirect,
    /// Execution runs past the last instruction of the code segment.
    FallsOffEnd,
}

/// The successor edges of a block, stored inline: a block has at most
/// two (a conditional branch's taken and fall-through edges). It reads
/// as the slice of its edges; slots past the length are ignored.
#[derive(Clone, Copy)]
pub struct Succs {
    edges: [Succ; 2],
    len: usize,
}

impl PartialEq for Succs {
    fn eq(&self, other: &Succs) -> bool {
        **self == **other
    }
}

impl Eq for Succs {}

impl std::fmt::Debug for Succs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

impl Succs {
    fn one(s: Succ) -> Succs {
        Succs {
            edges: [s, s],
            len: 1,
        }
    }

    fn two(a: Succ, b: Succ) -> Succs {
        Succs {
            edges: [a, b],
            len: 2,
        }
    }
}

impl std::ops::Deref for Succs {
    type Target = [Succ];

    fn deref(&self) -> &[Succ] {
        &self.edges[..self.len]
    }
}

impl std::ops::DerefMut for Succs {
    fn deref_mut(&mut self) -> &mut [Succ] {
        &mut self.edges[..self.len]
    }
}

impl<'a> IntoIterator for &'a Succs {
    type Item = &'a Succ;
    type IntoIter = std::slice::Iter<'a, Succ>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A maximal straight-line instruction sequence.
#[derive(Debug, Clone)]
pub struct Block {
    /// PC of the first instruction.
    pub start: u64,
    /// PC one past the last instruction.
    pub end: u64,
    /// Typed successors.
    pub succs: Succs,
}

impl Block {
    /// PCs of the block's instructions.
    pub fn pcs(&self) -> impl Iterator<Item = u64> {
        (self.start..self.end).step_by(PC_STEP as usize)
    }

    /// Number of instructions in the block.
    pub fn len(&self) -> usize {
        ((self.end - self.start) / PC_STEP) as usize
    }

    /// Whether the block holds no instructions (never true for built
    /// CFGs; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// A recovered function: an entry block plus every block reachable from
/// it along intraprocedural edges.
#[derive(Debug, Clone)]
pub struct Function {
    /// Entry PC (program entry or a `call` target).
    pub entry: u64,
    /// Member block indices, in ascending start-PC order.
    pub blocks: Vec<usize>,
}

impl Function {
    /// Position of block `bi` in [`Function::blocks`], if it is a
    /// member. Per-function tables (the analysis in-states) are indexed
    /// by this slot, so they hold one entry per member block.
    pub fn slot(&self, bi: usize) -> Option<usize> {
        self.blocks.binary_search(&bi).ok()
    }
}

/// The control-flow graph of one program.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Basic blocks in ascending start-PC order.
    pub blocks: Vec<Block>,
    /// Instruction index → index of the block containing it.
    block_of: Vec<usize>,
    /// Recovered functions; the first is always the program entry.
    pub functions: Vec<Function>,
    /// All `call` target PCs.
    pub call_targets: BTreeSet<u64>,
}

impl Cfg {
    /// Builds the CFG of `program`.
    pub fn build(program: &Program) -> Cfg {
        let base = Program::CODE_BASE;
        let end = base + program.len() as u64 * PC_STEP;
        let insts = program.instructions();

        // Pass 1: leaders (by instruction index) and call targets.
        let mut leader = vec![false; insts.len()];
        let mut mark = |pc: u64| leader[((pc - base) / PC_STEP) as usize] = true;
        let mut call_targets = BTreeSet::new();
        if !insts.is_empty() {
            mark(program.entry());
        }
        for (i, inst) in insts.iter().enumerate() {
            let pc = base + i as u64 * PC_STEP;
            let next = pc + PC_STEP;
            match *inst {
                Inst::Branch { target, .. } => {
                    let t = program.label_pc(target);
                    if t < end {
                        mark(t);
                    }
                    if next < end {
                        mark(next);
                    }
                }
                Inst::Jal { dst, target } => {
                    let t = program.label_pc(target);
                    if t < end {
                        mark(t);
                    }
                    if dst != Reg::ZERO && t < end {
                        call_targets.insert(t);
                    }
                    if next < end {
                        mark(next);
                    }
                }
                // After a jalr/halt/ecall a new block starts: `ecall
                // exit` terminates, other ecalls fall through, but
                // splitting after every ecall keeps service-number
                // resolution block-local.
                Inst::Jalr { .. } | Inst::Halt | Inst::Ecall if next < end => {
                    mark(next);
                }
                _ => {}
            }
        }

        // Pass 2: blocks and successors.
        let pc_of = |i: usize| base + i as u64 * PC_STEP;
        let mut blocks = Vec::with_capacity(leader.iter().filter(|&&l| l).count());
        let mut block_of = Vec::with_capacity(insts.len());
        let mut leaders = (0..insts.len()).filter(|&i| leader[i]).peekable();
        while let Some(first) = leaders.next() {
            let start = pc_of(first);
            let stop = leaders.peek().map_or(end, |&i| pc_of(i));
            let last_pc = stop - PC_STEP;
            // Invariant: every block spans instruction PCs of `program`.
            let last = program.fetch(last_pc).expect("pc in range");
            let jump_to = |t: u64| if t < end { t } else { end };
            let succs = match last {
                Inst::Branch { target, .. } => {
                    let t = program.label_pc(target);
                    let fall = if stop < end {
                        Succ::Fall(stop)
                    } else {
                        Succ::FallsOffEnd
                    };
                    Succs::two(Succ::Taken(jump_to(t)), fall)
                }
                Inst::Jal { dst, target } => {
                    let t = jump_to(program.label_pc(target));
                    Succs::one(if dst == Reg::ZERO {
                        Succ::Jump(t)
                    } else if stop < end {
                        Succ::CallReturn {
                            callee: t,
                            ret: stop,
                        }
                    } else {
                        Succ::FallsOffEnd
                    })
                }
                Inst::Jalr {
                    dst,
                    base: b,
                    offset,
                } => Succs::one(if dst == Reg::ZERO && b == Reg::RA && offset == 0 {
                    Succ::Ret
                } else {
                    Succ::Indirect
                }),
                Inst::Halt => Succs::one(Succ::Exit),
                Inst::Ecall => Succs::one(
                    if resolve_a7(program, last_pc) == Some(rest_isa::EcallNum::Exit as i64) {
                        Succ::Exit
                    } else if stop < end {
                        Succ::Fall(stop)
                    } else {
                        Succ::FallsOffEnd
                    },
                ),
                _ => Succs::one(if stop < end {
                    Succ::Fall(stop)
                } else {
                    Succ::FallsOffEnd
                }),
            };
            block_of.resize(((stop - base) / PC_STEP) as usize, blocks.len());
            blocks.push(Block {
                start,
                end: stop,
                succs,
            });
        }

        // Jump targets at `end` (past the last instruction) appear as
        // Jump(end)/Taken(end); map them to FallsOffEnd.
        for b in &mut blocks {
            for s in b.succs.iter_mut() {
                match *s {
                    Succ::Jump(t) | Succ::Taken(t) if t >= end && end > base => {
                        *s = Succ::FallsOffEnd;
                    }
                    _ => {}
                }
            }
        }

        let mut cfg = Cfg {
            blocks,
            block_of,
            functions: Vec::new(),
            call_targets,
        };

        // Pass 3: function partition (reachability along intraprocedural
        // edges).
        if !insts.is_empty() {
            let entries = std::iter::once(program.entry()).chain(
                cfg.call_targets
                    .iter()
                    .copied()
                    .filter(|t| *t != program.entry()),
            );
            let mut functions = Vec::with_capacity(1 + cfg.call_targets.len());
            let mut member = vec![false; cfg.blocks.len()];
            let mut work = Vec::with_capacity(cfg.blocks.len());
            let mut reached = Vec::with_capacity(cfg.blocks.len());
            for entry in entries {
                work.extend(cfg.block_at(entry));
                while let Some(bi) = work.pop() {
                    if member[bi] {
                        continue;
                    }
                    member[bi] = true;
                    reached.push(bi);
                    for s in &cfg.blocks[bi].succs {
                        let next = match *s {
                            Succ::Fall(t) | Succ::Taken(t) | Succ::Jump(t) => Some(t),
                            Succ::CallReturn { ret, .. } => Some(ret),
                            _ => None,
                        };
                        if let Some(ni) = next.and_then(|t| cfg.block_at(t)) {
                            if !member[ni] {
                                work.push(ni);
                            }
                        }
                    }
                }
                reached.sort_unstable();
                let blocks = reached.clone();
                reached.clear();
                for &bi in &blocks {
                    member[bi] = false;
                }
                functions.push(Function { entry, blocks });
            }
            cfg.functions = functions;
        }
        cfg
    }

    /// Index of the block that starts at `pc`, if one does.
    pub fn block_at(&self, pc: u64) -> Option<usize> {
        let i = pc.checked_sub(Program::CODE_BASE)? / PC_STEP;
        let bi = *self.block_of.get(usize::try_from(i).ok()?)?;
        (self.blocks[bi].start == pc).then_some(bi)
    }

    /// Block indices never reached from any function entry.
    pub fn unreachable_blocks(&self) -> Vec<usize> {
        let mut reached = vec![false; self.blocks.len()];
        for &bi in self.functions.iter().flat_map(|f| &f.blocks) {
            reached[bi] = true;
        }
        (0..self.blocks.len()).filter(|&i| !reached[i]).collect()
    }
}

/// Resolves the `a7` service number at an `ecall` PC by scanning
/// backwards over the straight-line prefix (`ProgramBuilder::ecall`
/// always emits `li a7, n` immediately before the `ecall`).
pub fn resolve_a7(program: &Program, ecall_pc: u64) -> Option<i64> {
    let mut pc = ecall_pc;
    while pc > Program::CODE_BASE {
        pc -= PC_STEP;
        match program.fetch(pc)? {
            Inst::Li { dst, imm } if dst == Reg::A7 => return Some(imm),
            // Any other write to a7, or any control transfer, ends the
            // scan inconclusively.
            Inst::Alu { dst, .. } | Inst::AluImm { dst, .. } | Inst::Load { dst, .. }
                if dst == Reg::A7 =>
            {
                return None;
            }
            Inst::Branch { .. }
            | Inst::Jal { .. }
            | Inst::Jalr { .. }
            | Inst::Halt
            | Inst::Ecall => return None,
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rest_isa::{EcallNum, ProgramBuilder};

    fn block_starting(cfg: &Cfg, pc: u64) -> &Block {
        &cfg.blocks[cfg.block_at(pc).unwrap()]
    }

    #[test]
    fn branch_makes_taken_and_fallthrough_edges() {
        let mut p = ProgramBuilder::new();
        let top = p.label_here();
        p.addi(Reg::T0, Reg::T0, -1); // 0x10000
        p.bne(Reg::T0, Reg::ZERO, top); // 0x10004
        p.halt(); // 0x10008
        let prog = p.build();
        let cfg = Cfg::build(&prog);
        assert_eq!(cfg.blocks.len(), 2);
        let b0 = block_starting(&cfg, 0x1_0000);
        assert_eq!(b0.len(), 2);
        assert_eq!(b0.succs[..], [Succ::Taken(0x1_0000), Succ::Fall(0x1_0008)]);
        assert_eq!(block_starting(&cfg, 0x1_0008).succs[..], [Succ::Exit]);
    }

    #[test]
    fn call_edge_returns_to_the_next_instruction() {
        let mut p = ProgramBuilder::new();
        let f = p.new_label();
        let done = p.new_label();
        p.call(f); // 0x10000
        p.j(done); // 0x10004
        p.bind(f);
        p.ret(); // 0x10008
        p.bind(done);
        p.halt(); // 0x1000c
        let prog = p.build();
        let cfg = Cfg::build(&prog);
        assert_eq!(
            block_starting(&cfg, 0x1_0000).succs[..],
            [Succ::CallReturn {
                callee: 0x1_0008,
                ret: 0x1_0004
            }]
        );
        assert_eq!(block_starting(&cfg, 0x1_0008).succs[..], [Succ::Ret]);
        assert!(cfg.call_targets.contains(&0x1_0008));
        // Two functions: main (entry) and f.
        assert_eq!(cfg.functions.len(), 2);
        assert_eq!(cfg.functions[0].entry, prog.entry());
        assert_eq!(cfg.functions[1].entry, 0x1_0008);
        // f's body is exactly the ret block.
        assert_eq!(
            cfg.functions[1].blocks,
            vec![cfg.block_at(0x1_0008).unwrap()]
        );
    }

    #[test]
    fn single_instruction_blocks() {
        let mut p = ProgramBuilder::new();
        let skip = p.new_label();
        p.beq(Reg::T0, Reg::ZERO, skip); // block 1: one branch
        p.nop(); // block 2: one nop (fallthrough)
        p.bind(skip);
        p.halt(); // block 3: one halt
        let prog = p.build();
        let cfg = Cfg::build(&prog);
        assert_eq!(cfg.blocks.len(), 3);
        assert!(cfg.blocks.iter().all(|b| b.len() == 1 && !b.is_empty()));
    }

    #[test]
    fn non_terminator_ending_falls_off_the_end() {
        let mut p = ProgramBuilder::new();
        p.nop();
        p.addi(Reg::T0, Reg::T0, 1);
        let prog = p.build();
        let cfg = Cfg::build(&prog);
        assert_eq!(cfg.blocks.len(), 1);
        assert_eq!(cfg.blocks[0].succs[..], [Succ::FallsOffEnd]);
    }

    #[test]
    fn ecall_exit_terminates_but_other_ecalls_fall_through() {
        let mut p = ProgramBuilder::new();
        p.li(Reg::A0, 64);
        p.ecall(EcallNum::Malloc);
        p.li(Reg::A0, 0);
        p.ecall(EcallNum::Exit);
        let prog = p.build();
        let cfg = Cfg::build(&prog);
        let first = &cfg.blocks[0];
        assert!(matches!(first.succs[..], [Succ::Fall(_)]));
        let last = cfg.blocks.last().unwrap();
        assert_eq!(last.succs[..], [Succ::Exit]);
        // The a7 resolver sees through the li/ecall pairs.
        let exit_pc = last.end - PC_STEP;
        assert_eq!(resolve_a7(&prog, exit_pc), Some(EcallNum::Exit as i64));
    }

    #[test]
    fn unreachable_blocks_are_reported() {
        let mut p = ProgramBuilder::new();
        let done = p.new_label();
        p.j(done);
        p.nop(); // dead
        p.nop(); // dead
        p.bind(done);
        p.halt();
        let prog = p.build();
        let cfg = Cfg::build(&prog);
        let dead = cfg.unreachable_blocks();
        assert_eq!(dead.len(), 1);
        assert_eq!(cfg.blocks[dead[0]].start, 0x1_0004);
    }

    #[test]
    fn successors_compare_and_print_as_their_edges() {
        let mut rewritten = Succs::one(Succ::Jump(0x1_0010));
        rewritten[0] = Succ::FallsOffEnd;
        assert_eq!(rewritten, Succs::one(Succ::FallsOffEnd));
        assert_ne!(rewritten, Succs::two(Succ::FallsOffEnd, Succ::FallsOffEnd));
        assert_eq!(format!("{rewritten:?}"), "[FallsOffEnd]");
    }

    #[test]
    fn jump_to_code_end_is_falls_off_end() {
        let mut p = ProgramBuilder::new();
        let end = p.new_label();
        p.j(end);
        p.bind(end);
        let prog = p.build();
        let cfg = Cfg::build(&prog);
        assert_eq!(cfg.blocks[0].succs[..], [Succ::FallsOffEnd]);
    }
}
